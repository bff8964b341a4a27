//! Generated inputs of each workload. Everything here is a function of the
//! seed and the sizes; the program under test receives only what this module
//! returns.

use raven_columnar::failpoint::splitmix64;
use raven_columnar::{partition_by_column, PartitionSpec, Table, TableBuilder, Value};
use raven_datagen::{tenant_schedule, Dataset, TenantProfile};
use raven_ml::{train_pipeline, ModelType, Pipeline, PipelineSpec};
use raven_relational::{Catalog, ExecutionContext, Executor, LogicalPlan};

/// Row counts of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// is for the test that drives every workload end to end in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub score_rows: usize,
    pub tree_rows: usize,
    pub star_rows: usize,
    pub prune_rows: usize,
    pub serve_rows: usize,
    /// Models train on a draw of the same generator this long, so set-up
    /// stays short however large the scored table is.
    pub train_rows: usize,
    /// Set-up is repeated at least this often, and then for as long as the
    /// repetitions total under `setup_budget_s` (its median is reported; the
    /// cheaper a set-up, the more samples its median needs to repeat).
    pub min_setups: usize,
    pub setup_budget_s: f64,
}

impl Sizes {
    pub const fn full() -> Sizes {
        Sizes {
            score_rows: 250_000,
            tree_rows: 30_000,
            star_rows: 100_000,
            prune_rows: 400_000,
            serve_rows: 20_000,
            train_rows: 20_000,
            min_setups: 3,
            setup_budget_s: 1.5,
        }
    }

    pub const fn smoke() -> Sizes {
        Sizes {
            score_rows: 8_000,
            tree_rows: 2_000,
            star_rows: 4_000,
            prune_rows: 20_000,
            serve_rows: 2_000,
            train_rows: 2_000,
            min_setups: 1,
            setup_budget_s: 0.0,
        }
    }
}

fn gradient_boosting(n_estimators: usize) -> ModelType {
    ModelType::GradientBoosting {
        n_estimators,
        max_depth: 6,
        learning_rate: 0.15,
    }
}

const FOREST: ModelType = ModelType::RandomForest {
    n_trees: 30,
    max_depth: 8,
};

/// All tables of a dataset joined along its declared edges: the training set.
fn joined(dataset: &Dataset) -> raven_columnar::Batch {
    let mut catalog = Catalog::new();
    for t in &dataset.tables {
        catalog.register(t.clone());
    }
    let mut plan = LogicalPlan::scan(dataset.tables[0].name());
    for (_, left_key, right, right_key) in &dataset.joins {
        plan = plan.join(LogicalPlan::scan(right.clone()), left_key, right_key);
    }
    Executor::new()
        .execute(&plan, &catalog, &ExecutionContext::default())
        .expect("joining generated tables")
}

/// Every model is trained on one fixed draw of its generator, whatever the
/// run's seed. A model's size sets what prepare and scoring cost, and it
/// varies by a tenth and more between training draws; tied to the seed, that
/// variation would read as run-to-run noise on every latency. The seed drives
/// the scored tables, the point rows and the traffic schedule.
const TRAINING_SEED: u64 = 0x5EED;

fn train(dataset: &Dataset, model: ModelType) -> Pipeline {
    train_pipeline(
        &joined(dataset),
        &PipelineSpec {
            name: "bench_model".into(),
            numeric_inputs: dataset.numeric_inputs.clone(),
            categorical_inputs: dataset.categorical_inputs.clone(),
            label: dataset.label.clone(),
            model,
            seed: TRAINING_SEED,
        },
    )
    .expect("training on generated data")
}

fn range_partitioned(table: &Table, column: &str, partitions: usize) -> Table {
    partition_by_column(
        table,
        &PartitionSpec::ByRange {
            column: column.into(),
            partitions,
        },
    )
    .expect("range partitioning a generated table")
}

/// Build a table again from its partition batches, as a loader would:
/// `Table::new` is where the statistics are computed, so set-up pays for them.
pub fn load(table: &Table) -> Result<Table, String> {
    let mut loaded =
        Table::new(table.name(), table.partitions().to_vec()).map_err(|e| e.to_string())?;
    loaded.set_partition_column(table.partition_column().map(String::from));
    Ok(loaded)
}

fn predict_query(data: &str, with_clause: &str, predicate: &str) -> String {
    let filter = if predicate.is_empty() {
        String::new()
    } else {
        format!(" WHERE {predicate}")
    };
    format!(
        "{with_clause}SELECT d.id, p.score FROM PREDICT(MODEL = bench_model, DATA = {data} AS d) \
         WITH (score float) AS p{filter}"
    )
}

/// Inputs of one `batch.*` workload.
pub struct BatchInputs {
    pub tables: Vec<Table>,
    pub model: Pipeline,
    pub query: String,
    /// `RavenConfig::degree_of_parallelism`; the one non-default setting a
    /// batch workload states.
    pub dop: usize,
    /// Rows of the scored (fact) table: the input size `throughput_per_s`
    /// is stated at.
    pub fact_rows: usize,
}

pub fn batch_inputs(workload: &str, seed: u64, sizes: &Sizes) -> BatchInputs {
    match workload {
        "batch.score" | "batch.score_filter" | "batch.mltosql_tree" => {
            let tree = workload == "batch.mltosql_tree";
            let rows = if tree {
                sizes.tree_rows
            } else {
                sizes.score_rows
            };
            let model = if tree {
                ModelType::DecisionTree { max_depth: 8 }
            } else {
                gradient_boosting(100)
            };
            let predicate = if workload == "batch.score_filter" {
                "p.score > 0.5"
            } else {
                ""
            };
            let data = raven_datagen::credit_card(rows, seed);
            let draw = raven_datagen::credit_card(sizes.train_rows, TRAINING_SEED);
            BatchInputs {
                model: train(&draw, model),
                query: predict_query("transactions", "", predicate),
                tables: data.tables,
                dop: 1,
                fact_rows: rows,
            }
        }
        "batch.join_star" => {
            let mut data = raven_datagen::five_table_star(sizes.star_rows, seed);
            let draw = raven_datagen::five_table_star(sizes.train_rows, TRAINING_SEED);
            data.tables[0] = range_partitioned(&data.tables[0], "id", 16);
            let with = format!("WITH data AS (SELECT * FROM {}) ", data.from_clause());
            BatchInputs {
                model: train(&draw, FOREST),
                query: predict_query("data", &with, ""),
                tables: data.tables,
                dop: 2,
                fact_rows: sizes.star_rows,
            }
        }
        "batch.prune" => {
            let mut data = raven_datagen::hospital(sizes.prune_rows, seed);
            let draw = raven_datagen::hospital(sizes.train_rows, TRAINING_SEED);
            data.tables[0] = range_partitioned(&data.tables[0], "age", 64);
            BatchInputs {
                model: train(&draw, FOREST),
                query: predict_query("hospital_stays", "", "d.age >= 93 AND d.asthma = 1"),
                tables: data.tables,
                dop: 1,
                fact_rows: sizes.prune_rows,
            }
        }
        other => panic!("'{other}' is not a batch workload"),
    }
}

/// What one slot of the traffic schedule asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// The hot query (`variant: None`) or the k-th literal of the pool.
    Sql { variant: Option<usize> },
    /// Score one row (index into `ServeInputs::point_rows`) with the hot
    /// query's model.
    Point { row: usize },
}

#[derive(Debug, Clone)]
pub struct Slot {
    pub tenant: usize,
    pub ask: Ask,
}

/// Inputs of one `serve.*` workload.
pub struct ServeInputs {
    pub table: Table,
    pub model: Pipeline,
    /// A side table no query reads; `serve.churn` re-registers it (and the
    /// model) with identical bytes, so epochs bump while answers stay put.
    pub churn_dim: Table,
    pub profiles: Vec<TenantProfile>,
    /// The traffic schedule, cycled for as long as a phase lasts.
    pub slots: Vec<Slot>,
    /// `(id, column/value pairs)` of table rows the hot query admits.
    pub point_rows: Vec<(i64, Vec<(String, Value)>)>,
    /// Smallest id the hot query admits.
    pub hot_from: usize,
    /// Literal pool of the analyst queries: variant k admits ids from
    /// `pool_from + k % pool`.
    pub pool_from: usize,
    pub pool: usize,
    /// `serve.churn`: durable store plus a write every 100 ms.
    pub churn: bool,
    /// Reference arrival rate of the open loop, requests per second: frozen
    /// per workload at about a seventh of its saturation rate on the two-core
    /// box the benchmark was defined on, where the same seed's latencies
    /// repeat between runs (README, "Reference rates").
    pub rate: f64,
}

impl ServeInputs {
    pub fn query_from(&self, first_id: usize) -> String {
        predict_query("hospital_stays", "", &format!("d.id >= {first_id}"))
    }

    pub fn hot_query(&self) -> String {
        self.query_from(self.hot_from)
    }

    /// First admitted id of a SQL ask.
    pub fn first_id(&self, variant: Option<usize>) -> usize {
        variant.map_or(self.hot_from, |k| self.pool_from + k % self.pool)
    }
}

/// Share of schedule slots turned into point requests, in percent.
const POINT_PCT: u64 = 30;

pub fn serve_inputs(workload: &str, seed: u64, sizes: &Sizes) -> ServeInputs {
    let churn = match workload {
        "serve.mixed" => false,
        "serve.churn" => true,
        other => panic!("'{other}' is not a serve workload"),
    };
    let rows = sizes.serve_rows;
    let data = raven_datagen::hospital(rows, seed);
    let draw = raven_datagen::hospital(sizes.train_rows, TRAINING_SEED);
    let model = train(&draw, gradient_boosting(60));
    let flat = data.tables[0].to_batch().expect("hospital is one table");
    let hot_from = rows * 95 / 100;

    let profile = |name: &str, weight, share, duplicate_pct| TenantProfile {
        name: name.into(),
        weight,
        share,
        duplicate_pct,
    };
    let profiles = vec![
        profile("dashboard", 4, 6, 100),
        profile("analyst", 2, 3, 0),
        profile("batch", 1, 1, 50),
    ];
    // a schedule long enough that a phase at the reference rate never wraps
    // inside one plan-cache generation
    let schedule = tenant_schedule(8_192, &profiles, seed);
    let hot_rows = rows - hot_from;
    let mut rng = seed;
    let slots = schedule
        .into_iter()
        .map(|s| {
            rng = splitmix64(rng);
            let ask = if rng % 100 < POINT_PCT {
                Ask::Point {
                    row: (splitmix64(rng) % hot_rows as u64) as usize,
                }
            } else {
                Ask::Sql { variant: s.variant }
            };
            Slot {
                tenant: s.tenant,
                ask,
            }
        })
        .collect();
    let names = flat.schema().names();
    let point_rows = (hot_from..rows)
        .map(|r| {
            let values = flat.row(r).expect("row inside the table");
            (
                r as i64,
                names
                    .iter()
                    .map(|n| n.to_string())
                    .zip(values)
                    .filter(|(n, _)| n != "long_stay")
                    .collect(),
            )
        })
        .collect();
    let dim_ids: Vec<i64> = (0..1_000).collect();
    let churn_dim = TableBuilder::new("churn_dim")
        .add_f64("weight", dim_ids.iter().map(|i| *i as f64 * 0.5).collect())
        .add_i64("id", dim_ids)
        .build()
        .expect("valid side table");
    ServeInputs {
        table: range_partitioned(&data.tables[0], "id", 32),
        model,
        churn_dim,
        profiles,
        slots,
        point_rows,
        hot_from,
        pool_from: rows * 90 / 100,
        pool: if churn { 256 } else { 8 },
        churn,
        rate: if churn { 250.0 } else { 1_000.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_points_are_a_seeded_share() {
        let sizes = Sizes::smoke();
        let a = serve_inputs("serve.mixed", 5, &sizes);
        let b = serve_inputs("serve.mixed", 5, &sizes);
        let asks = |s: &ServeInputs| s.slots.iter().map(|s| s.ask.clone()).collect::<Vec<_>>();
        assert_eq!(asks(&a), asks(&b));
        assert_ne!(asks(&a), asks(&serve_inputs("serve.mixed", 6, &sizes)));
        let points = a
            .slots
            .iter()
            .filter(|s| matches!(s.ask, Ask::Point { .. }))
            .count();
        let pct = points * 100 / a.slots.len();
        assert!((25..=35).contains(&pct), "{pct}% point requests");
        // ids admitted by the hot query, and only those, are point rows
        assert_eq!(a.point_rows.len(), sizes.serve_rows - a.hot_from);
        assert!(a
            .point_rows
            .iter()
            .all(|(id, _)| *id as usize >= a.hot_from));
    }
}
