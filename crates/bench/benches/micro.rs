//! Criterion micro-benchmarks of the hot paths behind the paper's
//! experiments: vectorized expression evaluation (the MLtoSQL execution
//! path), hash joins (dense Int64 and Utf8 keys), native tree-ensemble
//! inference, tensor-compiled (GEMM) inference, the Raven optimizer itself,
//! and the end-to-end session.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raven_columnar::TableBuilder;
use raven_core::{pipeline_to_sql, RavenConfig, RavenSession, RuntimePolicy, TransformChoice};
use raven_datagen::{credit_card, hospital};
use raven_ml::{MlRuntime, ModelType};
use raven_relational::{col, evaluate, lit, Catalog, ExecutionContext, Executor, LogicalPlan};
use raven_tensor::{compile_ensemble, Strategy};

fn bench_expression_eval(c: &mut Criterion) {
    let dataset = hospital(20_000, 1);
    let batch = dataset.tables[0].to_batch().unwrap();
    let expr = col("age")
        .mul(lit(0.1))
        .add(col("bmi").mul(lit(0.2)))
        .gt(lit(9.0));
    c.bench_function("expression_eval_20k_rows", |b| {
        b.iter(|| evaluate(&expr, &batch).unwrap())
    });
}

/// The MLtoSQL expression of a depth-8 decision tree (a nested CASE over
/// scaled features) on 30 000 credit_card rows: each row should cost one
/// WHEN per tree level, not one pass per tree node.
fn bench_nested_case(c: &mut Criterion) {
    let dataset = credit_card(30_000, 6);
    let pipeline = raven_bench::train_dataset_pipeline(
        &dataset,
        ModelType::DecisionTree { max_depth: 8 },
        "bench_dt8",
    );
    let batch = dataset.tables[0].to_batch().unwrap();
    let expr = pipeline_to_sql(&pipeline).unwrap();
    c.bench_function("nested_case_dt8_30k", |b| {
        b.iter(|| evaluate(&expr, &batch).unwrap())
    });
}

fn bench_hash_join(c: &mut Criterion) {
    let dataset = raven_datagen::expedia(10_000, 2);
    let mut catalog = Catalog::new();
    for t in &dataset.tables {
        catalog.register(t.clone());
    }
    let mut plan = LogicalPlan::scan(dataset.tables[0].name());
    for (_, lk, right, rk) in &dataset.joins {
        plan = plan.join(LogicalPlan::scan(right.clone()), lk, rk);
    }
    c.bench_function("three_way_hash_join_10k_rows", |b| {
        b.iter(|| {
            Executor::new()
                .execute(&plan, &catalog, &ExecutionContext::default())
                .unwrap()
        })
    });
}

/// The star join of `batch.join_star` at 20 000 fact rows: every dimension
/// key is a dense Int64 surrogate.
fn bench_star_join_dense(c: &mut Criterion) {
    let dataset = raven_datagen::five_table_star(20_000, 7);
    let mut catalog = Catalog::new();
    for t in &dataset.tables {
        catalog.register(t.clone());
    }
    let mut plan = LogicalPlan::scan(dataset.tables[0].name());
    for (_, lk, right, rk) in &dataset.joins {
        plan = plan.join(LogicalPlan::scan(right.clone()), lk, rk);
    }
    c.bench_function("star_join_dense_int_keys_20k_rows", |b| {
        b.iter(|| {
            Executor::new()
                .execute(&plan, &catalog, &ExecutionContext::default())
                .unwrap()
        })
    });
}

/// A 20 000-row fact table joined to 2 000 dimension rows on a Utf8 key,
/// probed without allocating per row.
fn bench_utf8_key_join(c: &mut Criterion) {
    let key = |i: usize| format!("customer-{i:05}");
    let mut catalog = Catalog::new();
    catalog.register(
        TableBuilder::new("fact")
            .add_utf8("cust", (0..20_000).map(|i| key(i * 7 % 2_000)).collect())
            .add_f64("amount", (0..20_000).map(|i| i as f64).collect())
            .build()
            .unwrap(),
    );
    catalog.register(
        TableBuilder::new("dim")
            .add_utf8("cust_key", (0..2_000).map(key).collect())
            .add_f64("weight", (0..2_000).map(|i| i as f64 * 0.5).collect())
            .build()
            .unwrap(),
    );
    let plan = LogicalPlan::scan("fact").join(LogicalPlan::scan("dim"), "cust", "cust_key");
    c.bench_function("utf8_key_join_20k_rows", |b| {
        b.iter(|| {
            Executor::new()
                .execute(&plan, &catalog, &ExecutionContext::default())
                .unwrap()
        })
    });
}

fn bench_model_inference(c: &mut Criterion) {
    let dataset = hospital(10_000, 3);
    let pipeline = raven_bench::train_dataset_pipeline(
        &dataset,
        ModelType::GradientBoosting {
            n_estimators: 20,
            max_depth: 3,
            learning_rate: 0.1,
        },
        "bench_gb",
    );
    let batch = dataset.tables[0].to_batch().unwrap();
    let runtime = MlRuntime::new();
    let mut group = c.benchmark_group("gb_scoring_10k_rows");
    group.bench_function("ml_runtime", |b| {
        b.iter(|| runtime.run_batch(&pipeline, &batch).unwrap())
    });
    // MLtoSQL path: evaluate the generated expression
    let expr = pipeline_to_sql(&pipeline).unwrap();
    group.bench_function("mltosql_expression", |b| {
        b.iter(|| evaluate(&expr, &batch).unwrap())
    });
    // MLtoDNN (GEMM) path over the featurized matrix
    let model = match &pipeline.model_node().unwrap().op {
        raven_ml::Operator::TreeEnsemble(e) => e.clone(),
        _ => unreachable!(),
    };
    let compiled = compile_ensemble(&model, Strategy::Gemm).unwrap();
    let inputs = raven_ml::bind_batch(&pipeline, &batch).unwrap();
    let mut featurizer = pipeline.clone();
    featurizer.output = "features".into();
    featurizer.prune_dead_nodes();
    let features = runtime.run(&featurizer, &inputs).unwrap();
    let features = features.as_numeric().unwrap().clone();
    group.bench_function("mltodnn_gemm", |b| {
        b.iter(|| compiled.predict(&features).unwrap())
    });
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let dataset = hospital(2_000, 4);
    let scenario = raven_bench::build_scenario(
        &dataset,
        ModelType::DecisionTree { max_depth: 10 },
        "DT",
        Some("d.asthma = 1"),
    );
    let plan = raven_ir::parse_prediction_query(
        &scenario.query,
        scenario.session.registry(),
        scenario.session.catalog(),
    )
    .unwrap();
    c.bench_function("raven_optimizer_cross_opts", |b| {
        b.iter(|| {
            let mut p = plan.clone();
            raven_core::apply_cross_optimizations(&mut p).unwrap()
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let dataset = hospital(10_000, 5);
    let mut scenario = raven_bench::build_scenario(
        &dataset,
        ModelType::DecisionTree { max_depth: 8 },
        "DT",
        Some("d.asthma = 1"),
    );
    let mut group = c.benchmark_group("end_to_end_hospital_10k");
    for (label, config) in [
        ("no_opt", RavenConfig::no_opt()),
        (
            "raven_mltosql",
            RavenConfig {
                runtime_policy: RuntimePolicy::Force(TransformChoice::MlToSql),
                ..Default::default()
            },
        ),
        (
            "raven_ml_runtime",
            RavenConfig {
                runtime_policy: RuntimePolicy::NoTransform,
                ..Default::default()
            },
        ),
    ] {
        *scenario.session.config_mut() = config;
        let session: &RavenSession = &scenario.session;
        let query = scenario.query.clone();
        group.bench_with_input(BenchmarkId::from_parameter(label), &query, |b, q| {
            b.iter(|| session.sql(q).unwrap())
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_expression_eval, bench_nested_case, bench_hash_join, bench_star_join_dense, bench_utf8_key_join, bench_model_inference, bench_optimizer, bench_end_to_end
}
criterion_main!(benches);
