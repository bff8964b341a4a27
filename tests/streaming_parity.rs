//! Property tests for the streaming partition-parallel execution pipeline:
//! for any randomly generated workload, the streaming path must produce
//! row-identical output to the materialized path across dop ∈ {1, 4} and
//! partitioned/unpartitioned tables, and statistics-based partition pruning
//! must never change results. A fixed join case extends the parity to
//! multi-table plans with a selective dimension filter.

use proptest::prelude::*;
use raven::prelude::*;
use raven_columnar::{partition_by_column, PartitionSpec, TableBuilder};
use raven_core::ExecutionMode;
use raven_ml::{InputKind, Operator, PipelineInput, PipelineNode, Tree, TreeEnsemble, TreeNode};
use raven_relational::{col, lit, ExecutionContext, Executor, LogicalPlan, Optimizer};

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
    /// legacy no-pruning execution, at dop 1 and 4.
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
        let legacy = Executor::new()
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
            prop_assert_eq!(sorted_ids(&streamed), sorted_ids(&legacy));
        }
    }

    /// Session layer: any prediction query executed via the streaming
    /// pipeline produces row-identical output to the materialized path,
    /// across dop ∈ {1, 4} and partitioned/unpartitioned tables.
    #[test]
    fn session_streaming_matches_materialized(
        (rows, seed, partitions, by_range, threshold) in workload(),
    ) {
        let table = partitioned(&patient_table(rows, seed), partitions, by_range);
        let mut session = RavenSession::new();
        session.register_table(table);
        session.register_model(risk_pipeline());
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let query = format!(
            "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (risk float) AS p WHERE d.age >= {threshold:.3} AND p.risk >= 0.2"
        );

        session.config_mut().execution_mode = ExecutionMode::Materialized;
        let materialized = session.sql(&query).unwrap();
        prop_assert_eq!(materialized.report.pruned_partitions, 0);

        for dop in test_dops() {
            session.config_mut().execution_mode = ExecutionMode::Streaming;
            session.config_mut().degree_of_parallelism = dop;
            let streamed = session.sql(&query).unwrap();
            prop_assert_eq!(
                sorted_ids(&streamed.batch),
                sorted_ids(&materialized.batch),
                "streaming (dop {}) diverged from materialized on {} partitions",
                dop,
                partitions
            );
            // pruning is observable but must never change results (asserted
            // above); pruned + streamed covers every partition
            prop_assert_eq!(
                streamed.report.pruned_partitions + streamed.report.streamed_partitions,
                partitions.max(1)
            );
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

/// Sorted `(id, score bits)` of a join query's output.
fn id_score_bits(batch: &Batch) -> Vec<(i64, u64)> {
    let ids = batch.column_by_name("id").unwrap().as_i64().unwrap();
    let scores = batch.column_by_name("score").unwrap().as_f64().unwrap();
    let mut rows: Vec<(i64, u64)> = ids
        .iter()
        .zip(scores)
        .map(|(id, s)| (*id, s.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Session layer, multi-table: `orders ⋈ customers` with a ~2% dimension
/// filter returns bitwise-identical `(id, score)` rows under both execution
/// modes at every tested dop.
#[test]
fn join_with_dimension_filter_streaming_matches_materialized() {
    let mut session = RavenSession::new();
    session.register_table(orders(20_000));
    session.register_table(customers());
    session.register_model(amount_model());
    session.config_mut().runtime_policy = RuntimePolicy::NoTransform;

    let mut reference: Option<Vec<(i64, u64)>> = None;
    for dop in test_dops() {
        for mode in [ExecutionMode::Materialized, ExecutionMode::Streaming] {
            session.config_mut().execution_mode = mode;
            session.config_mut().degree_of_parallelism = dop;
            let out = session.sql(JOIN_QUERY).unwrap();
            assert_eq!(out.report.execution_mode, mode);
            let rows = id_score_bits(&out.batch);
            match &reference {
                None => {
                    assert!(!rows.is_empty());
                    reference = Some(rows);
                }
                Some(expected) => {
                    assert_eq!(&rows, expected, "{} (dop {dop}) diverged", mode.name())
                }
            }
        }
    }
}
