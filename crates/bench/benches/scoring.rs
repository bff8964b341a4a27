//! Criterion micro-benchmarks of the scoring kernels:
//!
//! * tree kernels — the interpreted enum-node row walker
//!   (`TreeEnsemble::predict`) vs the flattened struct-of-arrays block
//!   kernels (`FlatEnsemble::predict`), across the model shapes the paper's
//!   workloads use (single decision tree, random forest, gradient
//!   boosting);
//! * whole-pipeline kernels — the PR 4 per-operator compiled path
//!   (interpreted featurizers + flat trees) vs the PR 5 fused
//!   featurize→score pass, over tree *and* linear models, end to end from
//!   the source batch.
//!
//! Feature rows are the Hospital dataset's actually-featurized columns, so
//! every kernel traverses realistic splits and category distributions.

use criterion::{criterion_group, criterion_main, Criterion};
use raven_columnar::Batch;
use raven_ml::{CompiledPipeline, FlatEnsemble, Matrix, MlRuntime, ModelType, Pipeline};

fn trained(rows: usize, model: ModelType, name: &'static str) -> (Pipeline, Batch) {
    let dataset = raven_datagen::hospital(rows, 11);
    let pipeline = raven_bench::train_dataset_pipeline(&dataset, model, name);
    let batch = dataset.tables[0].to_batch().expect("batch");
    (pipeline, batch)
}

fn featurized(
    rows: usize,
    model: ModelType,
    name: &'static str,
) -> (Matrix, raven_ml::TreeEnsemble) {
    let (pipeline, batch) = trained(rows, model, name);
    // evaluate the featurizers (scaler + one-hot) once, keep the matrix
    raven_bench::featurize_for_model(&pipeline, &batch).expect("tree-model pipeline")
}

fn bench_scoring_kernels(c: &mut Criterion) {
    let rows = 4_000;
    let shapes: Vec<(&str, ModelType)> = vec![
        ("DT-d8", ModelType::DecisionTree { max_depth: 8 }),
        (
            "RF-20xd6",
            ModelType::RandomForest {
                n_trees: 20,
                max_depth: 6,
            },
        ),
        (
            "GB-60xd6",
            ModelType::GradientBoosting {
                n_estimators: 60,
                max_depth: 6,
                learning_rate: 0.15,
            },
        ),
    ];
    let mut group = c.benchmark_group("scoring_kernels_4k_rows");
    for (label, model) in shapes {
        let (features, ensemble) = featurized(rows, model, label);
        let flat = FlatEnsemble::compile(&ensemble).expect("compile");
        group.bench_function(format!("interpreted/{label}"), |b| {
            b.iter(|| ensemble.predict(&features).expect("interpreted"))
        });
        group.bench_function(format!("flattened/{label}"), |b| {
            b.iter(|| flat.predict(&features).expect("flattened"))
        });
    }
    group.finish();
}

fn bench_fused_pipeline(c: &mut Criterion) {
    let rows = 4_000;
    let shapes: Vec<(&str, ModelType)> = vec![
        (
            "GB-60xd6",
            ModelType::GradientBoosting {
                n_estimators: 60,
                max_depth: 6,
                learning_rate: 0.15,
            },
        ),
        ("LR", ModelType::LogisticRegression { l1_alpha: 0.001 }),
    ];
    let rt = MlRuntime::new();
    let mut group = c.benchmark_group("fused_pipeline_4k_rows");
    for (label, model) in shapes {
        let (pipeline, batch) = trained(rows, model, label);
        let compiled = CompiledPipeline::compile(&pipeline).expect("compile");
        assert!(compiled.fused().is_some(), "{label} should fuse");
        let per_operator = compiled.per_operator();
        group.bench_function(format!("per-operator/{label}"), |b| {
            b.iter(|| {
                rt.run_batch_compiled(&per_operator, &batch)
                    .expect("per-operator scoring")
            })
        });
        group.bench_function(format!("fused/{label}"), |b| {
            b.iter(|| {
                rt.run_batch_compiled(&compiled, &batch)
                    .expect("fused scoring")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scoring_kernels, bench_fused_pipeline);
criterion_main!(benches);
