//! Property tests for the streaming partition-parallel execution pipeline:
//! for any randomly generated workload, a prediction query must return
//! bitwise the `(id, score)` rows of a materialized reference — the whole
//! data side in one batch, filtered with `Batch::filter`, scored once with
//! `MlRuntime::run_batch` — across dop ∈ {1, 4}, partitioned/unpartitioned
//! tables, and statistics-based partition pruning on or off. A fixed join
//! case extends the parity to multi-table plans with a selective dimension
//! filter.

use proptest::prelude::*;
use raven::prelude::*;
use raven_columnar::{partition_by_column, PartitionSpec, TableBuilder};
use raven_ml::{InputKind, Operator, PipelineInput, PipelineNode, Tree, TreeEnsemble, TreeNode};
use raven_relational::{
    col, evaluate_predicate, lit, ExecutionContext, Executor, LogicalPlan, Optimizer,
};

mod common;

/// Degrees of parallelism every parity property runs at: {1, 4} plus an
/// optional extra from `RAVEN_TEST_DOP` (see [`common::extra_dop`]).
fn test_dops() -> Vec<usize> {
    let mut dops = vec![1usize, 4];
    if let Some(extra) = common::extra_dop() {
        if !dops.contains(&extra) {
            dops.push(extra);
        }
    }
    dops
}

fn patient_table(rows: usize, seed: u64) -> Table {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TableBuilder::new("patients")
        .add_i64("id", (0..rows as i64).collect())
        .add_f64(
            "age",
            (0..rows).map(|_| rng.gen_range(18.0..95.0)).collect(),
        )
        .add_f64(
            "rcount",
            (0..rows).map(|_| rng.gen_range(0.0..5.0)).collect(),
        )
        .build()
        .unwrap()
}

/// A small fixed decision tree over (age, rcount) — no training needed, so
/// property cases stay fast and deterministic.
fn risk_pipeline() -> Pipeline {
    let tree = Tree {
        nodes: vec![
            TreeNode::Branch {
                feature: 0,
                threshold: 60.0,
                left: 1,
                right: 2,
            },
            TreeNode::Branch {
                feature: 1,
                threshold: 2.0,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { value: 0.9 },
            TreeNode::Leaf { value: 0.1 },
            TreeNode::Leaf { value: 0.5 },
        ],
        root: 0,
    };
    Pipeline::new(
        "risk_model",
        vec![
            PipelineInput {
                name: "age".into(),
                kind: InputKind::Numeric,
            },
            PipelineInput {
                name: "rcount".into(),
                kind: InputKind::Numeric,
            },
        ],
        vec![
            PipelineNode {
                name: "concat".into(),
                op: Operator::Concat,
                inputs: vec!["age".into(), "rcount".into()],
                output: "features".into(),
            },
            PipelineNode {
                name: "model".into(),
                op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree, 2)),
                inputs: vec!["features".into()],
                output: "score".into(),
            },
        ],
        "score",
    )
    .unwrap()
}

fn partitioned(table: &Table, partitions: usize, by_range: bool) -> Table {
    if partitions <= 1 {
        return table.clone();
    }
    let spec = if by_range {
        PartitionSpec::ByRange {
            column: "age".into(),
            partitions,
        }
    } else {
        PartitionSpec::RoundRobin { partitions }
    };
    partition_by_column(table, &spec).unwrap()
}

/// Sorted `(id, score bits)` of a batch: bitwise result identity.
fn id_score_bits(batch: &Batch, score: &str) -> Vec<(i64, u64)> {
    let ids = batch.column_by_name("id").unwrap().as_i64().unwrap();
    let scores = batch.column_by_name(score).unwrap().as_f64().unwrap();
    let mut rows: Vec<(i64, u64)> = ids
        .iter()
        .zip(scores)
        .map(|(id, s)| (*id, s.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

/// The materialized reference of a prediction query: filter the whole data
/// side with `input`, score every surviving row with `MlRuntime::run_batch`,
/// keep the rows satisfying `output` (over the score column `score`), and
/// return their sorted `(id, score bits)`.
fn reference_rows(
    data: &Batch,
    input: &Expr,
    pipeline: &Pipeline,
    score: &str,
    output: Option<&Expr>,
) -> Vec<(i64, u64)> {
    let filtered = data
        .filter(&evaluate_predicate(input, data).unwrap())
        .unwrap();
    let scores = MlRuntime::new().run_batch(pipeline, &filtered).unwrap();
    let mut scored = filtered
        .with_column(
            Field::new(score, DataType::Float64),
            std::sync::Arc::new(Column::Float64(scores)),
        )
        .unwrap();
    if let Some(output) = output {
        scored = scored
            .filter(&evaluate_predicate(output, &scored).unwrap())
            .unwrap();
    }
    id_score_bits(&scored, score)
}

fn sorted_ids(batch: &Batch) -> Vec<i64> {
    let mut v = batch
        .column_by_name("id")
        .unwrap()
        .as_i64()
        .unwrap()
        .to_vec();
    v.sort();
    v
}

prop_compose! {
    /// A random workload: table size, seed, partition layout, predicate
    /// threshold.
    fn workload()(
        rows in 40usize..250,
        seed in 0u64..1_000,
        partitions in 1usize..7,
        by_range_sel in 0u64..2,
        threshold in 20.0f64..95.0,
    ) -> (usize, u64, usize, bool, f64) {
        (rows, seed, partitions, by_range_sel == 1, threshold)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Relational layer: for any query, the streaming executor with
    /// statistics-based partition pruning produces exactly the rows of the
    /// same plan executed without pruning, at dop 1 and 4.
    #[test]
    fn relational_pruning_never_changes_results(
        (rows, seed, partitions, by_range, threshold) in workload(),
    ) {
        let table = partitioned(&patient_table(rows, seed), partitions, by_range);
        let mut catalog = raven_relational::Catalog::new();
        catalog.register(table);
        let plan = LogicalPlan::scan("patients")
            .filter(col("age").gt_eq(lit(threshold)))
            .project(vec![col("id"), col("age")]);
        let plan = Optimizer::new().optimize(&plan, &catalog).unwrap();
        let unpruned = Executor::new()
            .execute(
                &plan,
                &catalog,
                &ExecutionContext {
                    partition_pruning: false,
                    ..ExecutionContext::default()
                },
            )
            .unwrap();
        for dop in test_dops() {
            let exec = Executor::new();
            let streamed = exec
                .execute(
                    &plan,
                    &catalog,
                    &ExecutionContext {
                        degree_of_parallelism: dop,
                        partition_pruning: true,
                        ..ExecutionContext::default()
                    },
                )
                .unwrap();
            prop_assert_eq!(sorted_ids(&streamed), sorted_ids(&unpruned));
        }
    }

    /// Session layer: any prediction query returns bitwise the rows of the
    /// materialized reference, across dop ∈ {1, 4}, partitioned and
    /// unpartitioned tables, and statistics pruning on or off.
    #[test]
    fn session_streaming_matches_materialized(
        (rows, seed, partitions, by_range, threshold) in workload(),
    ) {
        let unpartitioned = patient_table(rows, seed);
        let table = partitioned(&unpartitioned, partitions, by_range);
        let mut session = RavenSession::new();
        session.register_table(table);
        session.register_model(risk_pipeline());
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let threshold = format!("{threshold:.3}");
        let query = format!(
            "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (risk float) AS p WHERE d.age >= {threshold} AND p.risk >= 0.2"
        );
        let expected = reference_rows(
            &unpartitioned.to_batch().unwrap(),
            &col("age").gt_eq(lit(threshold.parse::<f64>().unwrap())),
            &risk_pipeline(),
            "risk",
            Some(&col("risk").gt_eq(lit(0.2))),
        );

        for dop in test_dops() {
            for data_induced in [false, true] {
                session.config_mut().degree_of_parallelism = dop;
                session.config_mut().enable_data_induced = data_induced;
                let out = session.sql(&query).unwrap();
                prop_assert_eq!(
                    id_score_bits(&out.batch, "risk"),
                    expected.clone(),
                    "dop {}, pruning {} diverged from the reference on {} partitions",
                    dop,
                    data_induced,
                    partitions
                );
                // pruned + streamed covers every partition; nothing is
                // pruned with data-induced optimizations off
                prop_assert_eq!(
                    out.report.pruned_partitions + out.report.streamed_partitions,
                    partitions.max(1)
                );
                if !data_induced {
                    prop_assert_eq!(out.report.pruned_partitions, 0);
                }
            }
        }
    }
}

const JOIN_QUERY: &str = "WITH data AS (SELECT * FROM orders JOIN customers ON cust_id = cust_key) \
                          SELECT d.id, p.score FROM PREDICT(MODEL = amount_model, DATA = data AS d) \
                          WITH (score float) AS p WHERE d.tier < 0.02";

/// A 20k-row fact table in 8 amount ranges, joined to 50 customers.
fn orders(rows: usize) -> Table {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let table = TableBuilder::new("orders")
        .add_i64("id", (0..rows as i64).collect())
        .add_f64(
            "amount",
            (0..rows).map(|_| rng.gen_range(1.0..500.0)).collect(),
        )
        .add_i64("cust_id", (0..rows).map(|i| (i % 50) as i64).collect())
        .build()
        .unwrap();
    partition_by_column(
        &table,
        &PartitionSpec::ByRange {
            column: "amount".into(),
            partitions: 8,
        },
    )
    .unwrap()
}

fn customers() -> Table {
    TableBuilder::new("customers")
        .add_i64("cust_key", (0..50).collect())
        .add_f64("tier", (0..50).map(|i| i as f64 / 50.0).collect())
        .build()
        .unwrap()
}

fn amount_model() -> Pipeline {
    let tree = Tree {
        nodes: vec![
            TreeNode::Branch {
                feature: 0,
                threshold: 250.0,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { value: 0.2 },
            TreeNode::Leaf { value: 0.8 },
        ],
        root: 0,
    };
    Pipeline::new(
        "amount_model",
        vec![PipelineInput {
            name: "amount".into(),
            kind: InputKind::Numeric,
        }],
        vec![PipelineNode {
            name: "model".into(),
            op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree, 1)),
            inputs: vec!["amount".into()],
            output: "score".into(),
        }],
        "score",
    )
    .unwrap()
}

/// Session layer, multi-table: `orders ⋈ customers` with a ~2% dimension
/// filter returns bitwise the `(id, score)` rows of the materialized
/// reference — the join run by `Executor::execute` without partition
/// pruning — at every tested dop, with statistics pruning on or off.
#[test]
fn join_with_dimension_filter_streaming_matches_materialized() {
    let mut catalog = raven_relational::Catalog::new();
    catalog.register(orders(20_000));
    catalog.register(customers());
    let joined = Executor::new()
        .execute(
            &LogicalPlan::scan("orders").join(
                LogicalPlan::scan("customers"),
                "cust_id",
                "cust_key",
            ),
            &catalog,
            &ExecutionContext {
                partition_pruning: false,
                ..ExecutionContext::default()
            },
        )
        .unwrap();
    let expected = reference_rows(
        &joined,
        &col("tier").lt(lit(0.02)),
        &amount_model(),
        "score",
        None,
    );
    assert!(!expected.is_empty());

    let mut session = RavenSession::new();
    session.register_table(orders(20_000));
    session.register_table(customers());
    session.register_model(amount_model());
    session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
    for dop in test_dops() {
        for data_induced in [false, true] {
            session.config_mut().degree_of_parallelism = dop;
            session.config_mut().enable_data_induced = data_induced;
            let out = session.sql(JOIN_QUERY).unwrap();
            assert_eq!(
                id_score_bits(&out.batch, "score"),
                expected,
                "dop {dop}, pruning {data_induced} diverged from the reference"
            );
        }
    }
}
