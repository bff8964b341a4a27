//! Property-based tests (proptest) for the core invariants the Raven paper's
//! optimizations rely on:
//!
//! * tree pruning with a statistics/predicate box never changes predictions
//!   on rows the box admits, NaN rows included,
//! * model densification + feature remapping preserves predictions,
//! * MLtoSQL and MLtoDNN agree with the native ML runtime,
//! * relational optimizer rewrites preserve query results.

use proptest::prelude::*;
use raven::prelude::*;
use raven_columnar::{ColumnStatistics, Interval};
use raven_ml::{
    train_decision_tree_classifier, train_gradient_boosting, BoostingConfig, Matrix, TreeConfig,
};
use raven_relational::{evaluate, ExecutionContext, Executor, Optimizer};
use raven_tensor::{compile_ensemble, Strategy as TensorStrategy};
use std::collections::BTreeMap;

mod model_inputs;

/// Whether `v` lies in `interval` (NaN iff it admits NaN).
fn admits(interval: Interval, v: f64) -> bool {
    if v.is_nan() {
        interval.may_be_nan
    } else {
        interval.lo <= v && v <= interval.hi
    }
}

fn feature_matrix(rows: &[Vec<f64>]) -> Matrix {
    let cols = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * cols);
    for r in rows {
        data.extend_from_slice(r);
    }
    Matrix::new(rows.len(), cols, data).unwrap()
}

prop_compose! {
    /// A random small binary-classification dataset: 40-120 rows, 3-6 features.
    fn dataset()(
        n in 40usize..120,
        d in 3usize..6,
        seed in 0u64..1_000,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] - 0.7 * r[1] + 0.2 * r[2] > 0.1 { 1.0 } else { 0.0 })
            .collect();
        (rows, labels)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pruning a tree ensemble with a feature box keeps predictions
    /// bit-identical on every row the box admits, NaN rows included. The box
    /// of feature 0 is the statistics of a NaN-laced column (so
    /// `null_count > 0`), optionally intersected with the predicate
    /// `f0 <= threshold`, which no NaN satisfies. The rows are the data with
    /// NaN laced into feature 0 plus model-directed probes: at every split,
    /// its threshold, the next float above it and NaN.
    #[test]
    fn domain_pruning_preserves_in_domain_predictions(
        (rows, labels) in dataset(),
        threshold in -1.0f64..1.0,
        nan_stride in 2usize..6,
        with_predicate in 0usize..2,
    ) {
        let x = feature_matrix(&rows);
        let ensemble = train_decision_tree_classifier(
            &x,
            &labels,
            &TreeConfig { max_depth: 6, ..Default::default() },
        ).unwrap();
        let mut test_rows: Vec<Vec<f64>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                if i % nan_stride == 0 {
                    r[0] = f64::NAN;
                }
                r
            })
            .collect();
        for f in 0..x.cols() {
            for v in model_inputs::split_values(&ensemble.trees, f) {
                for base in rows.iter().take(4) {
                    let mut r = base.clone();
                    r[f] = v;
                    test_rows.push(r);
                }
            }
        }
        // statistics of feature 0 over the rows at or below the threshold,
        // the missing ones included
        let column: Vec<f64> = test_rows.iter().map(|r| r[0]).filter(|v| v.is_nan() || *v <= threshold).collect();
        let stats = ColumnStatistics::compute("f0", &Column::Float64(column)).unwrap();
        prop_assert!(stats.null_count > 0);
        prop_assume!(stats.interval().is_some());
        let within_stats = stats.interval().unwrap();
        let predicate = if with_predicate == 1 {
            Interval { lo: f64::NEG_INFINITY, hi: threshold, may_be_nan: false }
        } else {
            Interval::UNBOUNDED
        };
        let domains = BTreeMap::from([(0usize, within_stats.intersect(predicate))]);
        let pruned = ensemble.prune_with_domains(&domains);
        prop_assert!(pruned.total_nodes() <= ensemble.total_nodes());
        for row in test_rows
            .iter()
            .filter(|r| admits(within_stats, r[0]) && admits(predicate, r[0]))
        {
            prop_assert_eq!(ensemble.predict_row(row).to_bits(), pruned.predict_row(row).to_bits());
        }
    }

    /// Densifying an ensemble to its used features and remapping the feature
    /// vector accordingly never changes predictions.
    #[test]
    fn densification_preserves_predictions((rows, labels) in dataset()) {
        let x = feature_matrix(&rows);
        let ensemble = train_gradient_boosting(
            &x,
            &labels,
            &BoostingConfig { n_estimators: 5, max_depth: 3, ..Default::default() },
        ).unwrap();
        let used: Vec<usize> = ensemble.used_features().into_iter().collect();
        prop_assume!(!used.is_empty());
        let dense = ensemble.select(&used).unwrap();
        for row in &rows {
            let dense_row: Vec<f64> = used.iter().map(|&i| row[i]).collect();
            let a = ensemble.predict_row(row);
            let b = dense.predict_row(&dense_row);
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// The GEMM and TreeTraversal tensor compilations agree with native
    /// ensemble inference.
    #[test]
    fn tensor_compilation_matches_native((rows, labels) in dataset()) {
        let x = feature_matrix(&rows);
        let ensemble = train_gradient_boosting(
            &x,
            &labels,
            &BoostingConfig { n_estimators: 4, max_depth: 3, ..Default::default() },
        ).unwrap();
        let native = ensemble.predict(&x).unwrap();
        for strategy in [TensorStrategy::Gemm, TensorStrategy::TreeTraversal] {
            let compiled = compile_ensemble(&ensemble, strategy).unwrap();
            let scores = compiled.predict(&x).unwrap();
            for (a, b) in native.column(0).iter().zip(scores.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// MLtoSQL translation of a trained tree agrees with the native runtime.
    #[test]
    fn mltosql_matches_native((rows, labels) in dataset()) {
        let x = feature_matrix(&rows);
        let ensemble = train_decision_tree_classifier(
            &x,
            &labels,
            &TreeConfig { max_depth: 5, ..Default::default() },
        ).unwrap();
        // build a batch with one column per feature named f0..fd
        let mut builder = TableBuilder::new("t");
        for j in 0..x.cols() {
            builder = builder.add_f64(&format!("f{j}"), x.column(j));
        }
        let batch = builder.build_batch().unwrap();
        let features: Vec<Expr> = (0..x.cols()).map(|j| col(format!("f{j}"))).collect();
        let expr = raven_core::ensemble_to_sql(&ensemble, &features).unwrap();
        let sql_scores = evaluate(&expr, &batch).unwrap().to_f64_vec().unwrap();
        let native = ensemble.predict(&x).unwrap();
        for (a, b) in native.column(0).iter().zip(sql_scores.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Relational optimizer rewrites (predicate/projection pushdown, join
    /// elimination, constant folding) preserve query results.
    #[test]
    fn relational_optimizer_preserves_results(
        rows in 20usize..200,
        threshold in 0.0f64..100.0,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut catalog = Catalog::new();
        catalog.register(
            TableBuilder::new("fact")
                .add_i64("id", (0..rows as i64).collect())
                .add_f64("x", (0..rows).map(|_| rng.gen_range(0.0..100.0)).collect())
                .add_i64("dim_id", (0..rows).map(|_| rng.gen_range(0..10)).collect())
                .build()
                .unwrap(),
        );
        catalog.register(
            TableBuilder::new("dim")
                .add_i64("dim_id", (0..10).collect())
                .add_f64("weight", (0..10).map(|_| rng.gen_range(0.0..1.0)).collect())
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), "dim_id", "dim_id")
            .filter(col("x").lt(lit(threshold)))
            .project(vec![col("id"), col("x"), col("weight")]);
        let optimized = Optimizer::new().optimize(&plan, &catalog).unwrap();
        let ctx = ExecutionContext::default();
        let a = Executor::new().execute(&plan, &catalog, &ctx).unwrap();
        let b = Executor::new().execute(&optimized, &catalog, &ctx).unwrap();
        prop_assert_eq!(a.num_rows(), b.num_rows());
        let mut ax = a.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
        let mut bx = b.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
        ax.sort();
        bx.sort();
        prop_assert_eq!(ax, bx);
    }
}
