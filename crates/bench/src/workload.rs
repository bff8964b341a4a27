//! Shared workload construction for the experiment harnesses: building Raven
//! sessions over the synthetic datasets with trained pipelines, and timing
//! helpers.

use raven_columnar::Table;
use raven_core::{RavenConfig, RavenSession, RuntimePolicy, TransformChoice};
use raven_datagen::Dataset;
use raven_ml::{train_pipeline, ModelType, Pipeline, PipelineSpec};
use raven_relational::{ExecutionContext, Executor, LogicalPlan};
use std::time::{Duration, Instant};

/// A ready-to-run benchmark scenario: session + query + metadata.
pub struct Scenario {
    /// The Raven session with tables and the model registered.
    pub session: RavenSession,
    /// The prediction query text.
    pub query: String,
    /// Dataset name.
    pub dataset: String,
    /// Model short name (LR / DT / RF / GB).
    pub model: &'static str,
}

/// Join all tables of a dataset into one training batch.
pub fn joined_batch(dataset: &Dataset) -> raven_columnar::Batch {
    let mut catalog = raven_relational::Catalog::new();
    for t in &dataset.tables {
        catalog.register(t.clone());
    }
    let mut plan = LogicalPlan::scan(dataset.tables[0].name());
    for (_, lk, right, rk) in &dataset.joins {
        plan = plan.join(LogicalPlan::scan(right.clone()), lk, rk);
    }
    Executor::new()
        .execute(&plan, &catalog, &ExecutionContext::default())
        .expect("training join")
}

/// Train the standard pipeline (scaler + one-hot + model) for a dataset.
pub fn train_dataset_pipeline(dataset: &Dataset, model: ModelType, name: &str) -> Pipeline {
    train_pipeline(
        &joined_batch(dataset),
        &PipelineSpec {
            name: name.into(),
            numeric_inputs: dataset.numeric_inputs.clone(),
            categorical_inputs: dataset.categorical_inputs.clone(),
            label: dataset.label.clone(),
            model,
            seed: 13,
        },
    )
    .expect("pipeline training")
}

/// Build a scenario over a dataset with the standard prediction query
/// (optionally with an equality data predicate, like the paper's §7.2 runs).
pub fn build_scenario(
    dataset: &Dataset,
    model: ModelType,
    model_short: &'static str,
    predicate: Option<&str>,
) -> Scenario {
    let model_name = format!("{}_{}", dataset.name, model_short.to_lowercase());
    let pipeline = train_dataset_pipeline(dataset, model, &model_name);
    let mut session = RavenSession::new();
    for t in &dataset.tables {
        session.register_table(t.clone());
    }
    session.register_model(pipeline);

    let (with_clause, data_name) = if dataset.joins.is_empty() {
        (String::new(), dataset.tables[0].name().to_string())
    } else {
        (
            format!("WITH data AS (SELECT * FROM {}) ", dataset.from_clause()),
            "data".to_string(),
        )
    };
    let where_clause = match predicate {
        Some(p) => format!("WHERE {p}"),
        None => String::new(),
    };
    let query = format!(
        "{with_clause}SELECT d.id, p.score \
         FROM PREDICT(MODEL = {model_name}, DATA = {data_name} AS d) \
         WITH (score float) AS p {where_clause}"
    );
    Scenario {
        session,
        query,
        dataset: dataset.name.clone(),
        model: model_short,
    }
}

/// Register a replacement table (e.g. a partitioned version) in the scenario.
pub fn replace_table(scenario: &mut Scenario, table: Table) {
    scenario.session.register_table(table);
}

/// Run the scenario's query and return its end-to-end time: the wall clock
/// around `sql()`, so parse and every optimizer pass count against Raven the
/// same as execution. When the ML time comes from a simulated device, the
/// wall clock would measure the host, so the modeled total plus the
/// optimizer time is reported instead.
pub fn run_once(scenario: &RavenSession, query: &str) -> Duration {
    let start = Instant::now();
    let out = scenario.sql(query).expect("query execution");
    let wall = start.elapsed();
    if out.report.ml_time_modeled {
        out.report.optimization_time + out.report.total_time
    } else {
        wall
    }
}

/// Trimmed-mean of `runs` runs, dropping the min and max like the paper.
pub fn trimmed_mean_time(session: &RavenSession, query: &str, runs: usize) -> Duration {
    let mut times: Vec<Duration> = (0..runs.max(1)).map(|_| run_once(session, query)).collect();
    times.sort();
    let slice: Vec<&Duration> = if times.len() > 2 {
        times[1..times.len() - 1].iter().collect()
    } else {
        times.iter().collect()
    };
    let total: Duration = slice.iter().copied().sum();
    total / slice.len() as u32
}

/// Extract a pipeline's tree-ensemble model together with the feature matrix
/// its trees consume: the featurizer prefix of the pipeline (scaler, one-hot,
/// concat — everything but the model node) is evaluated once over `batch`.
/// Used by the scoring-kernel A/B harnesses so the interpreted and flattened
/// kernels score identical, realistically-featurized inputs. Returns `None`
/// when the model is not a tree ensemble fed by a single featurized value.
pub fn featurize_for_model(
    pipeline: &Pipeline,
    batch: &raven_columnar::Batch,
) -> Option<(raven_ml::Matrix, raven_ml::TreeEnsemble)> {
    let model_node = pipeline.model_node()?;
    let ensemble = match &model_node.op {
        raven_ml::Operator::TreeEnsemble(e) => e.clone(),
        _ => return None,
    };
    if model_node.inputs.len() != 1 {
        return None;
    }
    let mut featurizer = pipeline.clone();
    featurizer.output = model_node.inputs[0].clone();
    let model_name = model_node.name.clone();
    featurizer.nodes.retain(|n| n.name != model_name);
    let inputs = raven_ml::bind_batch(&featurizer, batch).ok()?;
    let features = raven_ml::MlRuntime::new()
        .run(&featurizer, &inputs)
        .ok()?
        .as_numeric()
        .ok()?
        .clone();
    Some((features, ensemble))
}

/// Convenience: a config with all Raven optimizations disabled.
pub fn no_opt_config() -> RavenConfig {
    RavenConfig::no_opt()
}

/// Convenience: a config forcing one logical-to-physical transform.
pub fn forced(choice: TransformChoice) -> RavenConfig {
    RavenConfig {
        runtime_policy: RuntimePolicy::Force(choice),
        ..Default::default()
    }
}

/// Format a duration as milliseconds with one decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_runs() {
        let dataset = raven_datagen::hospital(500, 3);
        let scenario = build_scenario(
            &dataset,
            ModelType::DecisionTree { max_depth: 4 },
            "DT",
            Some("d.asthma = 1"),
        );
        let out = scenario.session.sql(&scenario.query).unwrap();
        assert!(out.report.output_rows <= 500);
        let t = trimmed_mean_time(&scenario.session, &scenario.query, 3);
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn join_dataset_scenario_runs() {
        let dataset = raven_datagen::expedia(400, 5);
        let scenario = build_scenario(
            &dataset,
            ModelType::LogisticRegression { l1_alpha: 0.01 },
            "LR",
            None,
        );
        let out = scenario.session.sql(&scenario.query).unwrap();
        assert_eq!(out.report.output_rows, 400);
    }
}
