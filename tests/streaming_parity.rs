//! Property tests for the streaming partition-parallel execution pipeline:
//! for any randomly generated workload, a prediction query must return
//! bitwise the `(id, score)` rows of a materialized reference — the whole
//! data side in one batch, filtered with `Batch::filter`, scored once with
//! `MlRuntime::run_batch` — across dop ∈ {1, 4}, partitioned/unpartitioned
//! tables, and statistics-based partition pruning on or off. A fixed join
//! case extends the parity to multi-table plans with a selective dimension
//! filter. The clause-product matrix at the end runs every combination of
//! input predicate, output predicate, aggregate and source under all three
//! scorers of the one drive, each against its own reference.

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

// ---------------------------------------------------------------------------
// Clause-product parity matrix: one drive, three scorers
// ---------------------------------------------------------------------------

/// Where a matrix query reads its rows.
#[derive(Clone, Copy, Debug)]
enum Source {
    Unpartitioned,
    RangePartitioned,
    /// The range-partitioned table joined to a small dimension.
    Join,
}

/// The final aggregate of a matrix query.
#[derive(Clone, Copy, Debug)]
enum Aggregate {
    None,
    Global,
    GroupBy,
}

/// `visits` (one partition), the same rows as `visits_ranged` (six age
/// ranges), the `wards` dimension, and the fixed tree over (age, rcount).
fn matrix_session() -> RavenSession {
    use rand::{Rng, SeedableRng};
    let rows = 600;
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let age: Vec<f64> = (0..rows).map(|_| rng.gen_range(18.0..95.0)).collect();
    let rcount: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..5.0)).collect();
    let visits = |name: &str| {
        TableBuilder::new(name)
            .add_i64("id", (0..rows as i64).collect())
            .add_f64("age", age.clone())
            .add_f64("rcount", rcount.clone())
            .add_i64("ward", (0..rows as i64).map(|i| i % 5).collect())
            .build()
            .unwrap()
    };
    let mut session = RavenSession::new();
    session.register_table(visits("visits"));
    session.register_table(partitioned(&visits("visits_ranged"), 6, true));
    session.register_table(
        TableBuilder::new("wards")
            .add_i64("ward_key", (0..5).collect())
            .add_f64("capacity", (0..5).map(|i| 10.0 + i as f64).collect())
            .build()
            .unwrap(),
    );
    session.register_model(risk_pipeline());
    session
}

/// The matrix query over `source` with `inputs` input-predicate conjuncts
/// (0–2) and, when `output` is set, an output predicate on the score.
fn matrix_query(source: Source, inputs: usize, output: bool) -> String {
    let mut preds = ["d.age >= 40.0", "d.rcount < 3.5"][..inputs].to_vec();
    if output {
        preds.push("p.risk > 0.3");
    }
    let (with, data) = match source {
        Source::Unpartitioned => ("", "visits"),
        Source::RangePartitioned => ("", "visits_ranged"),
        Source::Join => (
            "WITH data AS (SELECT * FROM visits_ranged JOIN wards ON ward = ward_key) ",
            "data",
        ),
    };
    let filter = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    format!(
        "{with}SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = {data} AS d) \
         WITH (risk float) AS p{filter}"
    )
}

fn set_aggregate(plan: &mut UnifiedPlan, aggregate: Aggregate) {
    use raven_relational::{AggregateExpr, AggregateFunction};
    let aggs = [
        (AggregateFunction::Count, "n"),
        (AggregateFunction::Sum, "total"),
        (AggregateFunction::Avg, "mean"),
        (AggregateFunction::Min, "lo"),
        (AggregateFunction::Max, "hi"),
    ]
    .map(|(func, alias)| AggregateExpr {
        func,
        arg: col("risk"),
        alias: alias.into(),
    })
    .to_vec();
    let group_by = match aggregate {
        Aggregate::None => return,
        Aggregate::Global => vec![],
        Aggregate::GroupBy => vec!["ward".to_string()],
    };
    plan.projection = vec![];
    plan.aggregate = Some((group_by, aggs));
}

/// A result in comparable form: sorted `(id, score bits)` rows, or the
/// aggregate's rows as sorted bit patterns.
fn result_bits(batch: &Batch, aggregate: Aggregate) -> Vec<Vec<u64>> {
    if let Aggregate::None = aggregate {
        return id_score_bits(batch, "risk")
            .into_iter()
            .map(|(id, score)| vec![id as u64, score])
            .collect();
    }
    let mut rows: Vec<Vec<u64>> = (0..batch.num_rows())
        .map(|r| {
            batch
                .columns()
                .iter()
                .map(|c| match c.as_ref() {
                    Column::Int64(v) => v[r] as u64,
                    Column::Float64(v) => v[r].to_bits(),
                    other => panic!("unexpected aggregate column {other:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn with_scores(batch: &Batch, name: &str, scores: Vec<f64>) -> Batch {
    batch
        .with_column(
            Field::new(name, DataType::Float64),
            std::sync::Arc::new(Column::Float64(scores)),
        )
        .unwrap()
}

/// The tail every reference shares, over one scored batch: the output
/// predicates with `Batch::filter`, then the projection, or the aggregate
/// over the scored batch registered as a one-partition table.
fn finish(mut scored: Batch, plan: &UnifiedPlan) -> Batch {
    for p in plan.output_predicates() {
        scored = scored
            .filter(&evaluate_predicate(p, &scored).unwrap())
            .unwrap();
    }
    if let Some((group_by, aggs)) = &plan.aggregate {
        let mut catalog = raven_relational::Catalog::new();
        catalog.register(Table::from_batch("__scored", scored).unwrap());
        let agg = LogicalPlan::scan("__scored").aggregate(group_by.clone(), aggs.clone());
        return Executor::new()
            .execute(&agg, &catalog, &ExecutionContext::default())
            .unwrap();
    }
    let mut out = TableBuilder::new("out");
    for e in &plan.projection {
        let c = raven_relational::evaluate(e, &scored).unwrap();
        out = match c.as_ref() {
            Column::Int64(v) => out.add_i64(&e.output_name(), v.clone()),
            Column::Float64(v) => out.add_f64(&e.output_name(), v.clone()),
            other => panic!("unexpected projected column {other:?}"),
        };
    }
    out.build_batch().unwrap()
}

/// The materialized reference: the whole data side as one batch
/// (`data`, in source partition order), filtered with `Batch::filter`,
/// scored once with `MlRuntime::run_batch` by the unoptimized pipeline.
fn materialized_reference(data: &Batch, plan: &UnifiedPlan) -> Batch {
    let mut batch = data.clone();
    for p in plan.input_predicates() {
        batch = batch
            .filter(&evaluate_predicate(p, &batch).unwrap())
            .unwrap();
    }
    let scores = MlRuntime::new().run_batch(&plan.pipeline, &batch).unwrap();
    finish(with_scores(&batch, &plan.prediction_column, scores), plan)
}

/// The session's relational optimizer and execution context, as the
/// session configures them.
fn engine(session: &RavenSession) -> (Optimizer, ExecutionContext) {
    let config = session.config();
    let optimizer = Optimizer::with_options(raven_relational::OptimizerOptions {
        join_reordering: config.cost_based_joins,
        ..Default::default()
    });
    let ctx = ExecutionContext {
        degree_of_parallelism: config.degree_of_parallelism.max(1),
        batch_size: config.ml_runtime.batch_size.max(1),
        partition_pruning: config.enable_data_induced,
        selection_vectors: true,
        cost_based_build_side: config.cost_based_joins,
    };
    (optimizer, ctx)
}

fn filtered(plan: &UnifiedPlan) -> LogicalPlan {
    let input: Vec<Expr> = plan.input_predicates().into_iter().cloned().collect();
    if input.is_empty() {
        plan.data.clone()
    } else {
        plan.data.clone().filter(Expr::conjunction(input))
    }
}

/// The MLtoSQL execution path before scorers, kept as a reference: the whole
/// optimized query — input predicates, the pipeline as one SQL expression,
/// output predicates, projection, aggregate — lowered to one relational
/// plan, optimized once, and run by `Executor::execute`.
fn ml_to_sql_reference(session: &RavenSession, plan: &UnifiedPlan) -> Batch {
    let (optimized, transform, _, _) = session.optimize(plan).unwrap();
    assert_eq!(transform, TransformChoice::MlToSql);
    let score = raven_core::pipeline_to_sql(&optimized.pipeline).unwrap();
    let mut exprs: Vec<Expr> = optimized
        .externally_required_columns()
        .iter()
        .map(col)
        .collect();
    exprs.push(score.alias(&optimized.prediction_column));
    let mut data = filtered(&optimized).project(exprs);
    let output: Vec<Expr> = optimized.output_predicates().into_iter().cloned().collect();
    if !output.is_empty() {
        data = data.filter(Expr::conjunction(output));
    }
    if !optimized.projection.is_empty() {
        data = data.project(optimized.projection.clone());
    }
    if let Some((group_by, aggs)) = &optimized.aggregate {
        data = data.aggregate(group_by.clone(), aggs.clone());
    }
    let (optimizer, ctx) = engine(session);
    let relational = optimizer.optimize(&data, session.catalog()).unwrap();
    Executor::new()
        .execute(&relational, session.catalog(), &ctx)
        .unwrap()
}

/// The MLtoDNN execution path before scorers, kept as a reference: the
/// optimized data side run by `Executor::execute` into one batch,
/// featurized on the ML runtime, scored by the tensor model.
fn ml_to_dnn_reference(session: &RavenSession, plan: &UnifiedPlan) -> Batch {
    let (optimized, transform, _, _) = session.optimize(plan).unwrap();
    assert_eq!(transform, TransformChoice::MlToDnn);
    let config = session.config();
    let dnn = raven_core::apply_ml_to_dnn(
        &optimized.pipeline,
        config.dnn_strategy,
        config.device.clone(),
    )
    .unwrap();
    let mut needed: Vec<String> = optimized
        .pipeline
        .input_names()
        .into_iter()
        .map(String::from)
        .collect();
    for c in optimized.externally_required_columns() {
        if !needed.contains(&c) {
            needed.push(c);
        }
    }
    let data = filtered(&optimized).project(needed.iter().map(col).collect());
    let (optimizer, ctx) = engine(session);
    let data = optimizer.optimize(&data, session.catalog()).unwrap();
    let batch = Executor::new()
        .execute(&data, session.catalog(), &ctx)
        .unwrap();
    let runtime = MlRuntime::with_config(config.ml_runtime.clone());
    let inputs = raven_ml::bind_batch(&dnn.featurizer, &batch).unwrap();
    let features = runtime.run(&dnn.featurizer, &inputs).unwrap();
    let scores = dnn
        .model
        .run(features.as_numeric().unwrap())
        .unwrap()
        .scores;
    finish(
        with_scores(&batch, &optimized.prediction_column, scores),
        &optimized,
    )
}

/// Every clause combination over `source` — input predicate none / one /
/// two conjuncts, output predicate none / `p.risk > 0.3`, aggregate none /
/// global / `GROUP BY` — under every scorer, at every test dop, with
/// statistics pruning on and off — and, for the join source, with
/// cost-based join planning on and off — returns bitwise the result of that
/// scorer's reference: the materialized reference for the ML runtime, and
/// the pre-scorer execution paths for MLtoSQL and MLtoDNN (CPU). The join
/// reference is built under the same join setting: the build-side swap
/// permutes rows, and a floating-point aggregate depends on row order.
fn assert_parity_matrix(source: Source) {
    let mut session = matrix_session();
    let cost_settings: &[bool] = match source {
        Source::Join => &[true, false],
        _ => &[true],
    };
    for &cost_based in cost_settings {
        session.config_mut().cost_based_joins = cost_based;
        let data = match source {
            Source::Unpartitioned => session.catalog().table("visits").unwrap().to_batch(),
            Source::RangePartitioned => {
                session.catalog().table("visits_ranged").unwrap().to_batch()
            }
            Source::Join => Executor::new()
                .execute(
                    &LogicalPlan::scan("visits_ranged").join(
                        LogicalPlan::scan("wards"),
                        "ward",
                        "ward_key",
                    ),
                    session.catalog(),
                    &ExecutionContext {
                        partition_pruning: false,
                        cost_based_build_side: cost_based,
                        ..ExecutionContext::default()
                    },
                )
                .map_err(|e| raven_columnar::ColumnarError::Execution(e.to_string())),
        }
        .unwrap();
        for inputs in 0..=2 {
            for output in [false, true] {
                for aggregate in [Aggregate::None, Aggregate::Global, Aggregate::GroupBy] {
                    assert_clause_combination(
                        &mut session,
                        &data,
                        source,
                        inputs,
                        output,
                        aggregate,
                    );
                }
            }
        }
    }
}

/// One clause combination of [`assert_parity_matrix`] under every scorer,
/// test dop and pruning setting.
fn assert_clause_combination(
    session: &mut RavenSession,
    data: &Batch,
    source: Source,
    inputs: usize,
    output: bool,
    aggregate: Aggregate,
) {
    let query = matrix_query(source, inputs, output);
    let mut plan =
        raven_ir::parse_prediction_query(&query, session.registry(), session.catalog()).unwrap();
    set_aggregate(&mut plan, aggregate);
    let materialized = result_bits(&materialized_reference(data, &plan), aggregate);
    assert!(!materialized.is_empty(), "{query}");
    let cost_based = session.config().cost_based_joins;
    for dop in test_dops() {
        for data_induced in [false, true] {
            session.config_mut().degree_of_parallelism = dop;
            session.config_mut().enable_data_induced = data_induced;
            for choice in [
                TransformChoice::None,
                TransformChoice::MlToSql,
                TransformChoice::MlToDnn,
            ] {
                session.config_mut().runtime_policy = RuntimePolicy::Force(choice);
                let out = session.execute(&plan).unwrap();
                assert!(!out.report.transform_fallback, "{choice:?}: {query}");
                let expected = match choice {
                    TransformChoice::None => materialized.clone(),
                    TransformChoice::MlToSql => {
                        result_bits(&ml_to_sql_reference(session, &plan), aggregate)
                    }
                    TransformChoice::MlToDnn => {
                        result_bits(&ml_to_dnn_reference(session, &plan), aggregate)
                    }
                };
                assert_eq!(
                    result_bits(&out.batch, aggregate),
                    expected,
                    "{choice:?}, {aggregate:?}, dop {dop}, pruning {data_induced}, \
                     cost-based joins {cost_based}: {query}"
                );
            }
        }
    }
}

#[test]
fn parity_matrix_unpartitioned() {
    assert_parity_matrix(Source::Unpartitioned);
}

#[test]
fn parity_matrix_range_partitioned() {
    assert_parity_matrix(Source::RangePartitioned);
}

#[test]
fn parity_matrix_join() {
    assert_parity_matrix(Source::Join);
}

/// The tensor scorer runs once per query, not once per partition: a
/// simulated GPU whose every call costs 1000 s of launch overhead reports
/// one launch's worth of ML time on the six-partition table.
#[test]
fn tensor_scorer_runs_once_per_query() {
    let launch = std::time::Duration::from_secs(1000);
    let mut session = matrix_session();
    session.config_mut().runtime_policy = RuntimePolicy::Force(TransformChoice::MlToDnn);
    session.config_mut().device = Device::SimulatedGpu(GpuProfile {
        name: "launch-bound".into(),
        launch_overhead: launch,
        transfer_bytes_per_sec: 1e30,
        flops_per_sec: 1e30,
    });
    let query = matrix_query(Source::RangePartitioned, 1, true);
    for dop in test_dops() {
        for data_induced in [false, true] {
            session.config_mut().degree_of_parallelism = dop;
            session.config_mut().enable_data_induced = data_induced;
            let out = session.sql(&query).unwrap();
            assert_eq!(out.report.transform, TransformChoice::MlToDnn);
            assert!(out.report.ml_time_modeled);
            assert!(
                out.report.ml_time >= launch && out.report.ml_time < 2 * launch,
                "dop {dop}, pruning {data_induced}: ml_time {:?}",
                out.report.ml_time
            );
        }
    }
}
