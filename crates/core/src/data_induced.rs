//! Data-induced optimizations (paper §4.2): use min/max column statistics —
//! globally or per partition — to induce predicates that prune the models of
//! a prediction query at compile time, and compile a partition-optimized
//! model per partition.

use crate::cross_opt::{model_projection_pushdown, prune_model};
use crate::error::Result;
use crate::layout::FeatureLayout;
use raven_columnar::TableStatistics;
use raven_ir::UnifiedPlan;
use raven_ml::Pipeline;
use raven_relational::{Catalog, ColumnBox, LogicalPlan};

/// Outcome of applying data-induced optimizations.
#[derive(Debug, Clone, Default)]
pub struct DataInducedReport {
    /// Whether the globally-optimized model changed.
    pub global_pruning_applied: bool,
    /// Data columns pruned after global data-induced pruning.
    pub pruned_columns: Vec<String>,
    /// Number of per-partition models compiled (0 when not partitioned).
    pub partition_models: usize,
    /// Average number of columns pruned across partition-optimized models.
    pub avg_pruned_columns_per_partition: f64,
}

/// Prune the plan's model using the *global* statistics of its base tables.
/// Returns the data columns that became prunable as a result.
pub fn apply_global_data_induced(
    plan: &mut UnifiedPlan,
    catalog: &Catalog,
) -> Result<DataInducedReport> {
    let mut report = DataInducedReport::default();
    let Ok(layout) = FeatureLayout::analyze(&plan.pipeline) else {
        return Ok(report);
    };
    let stats = gather_statistics(&plan.data, catalog);
    let features = layout.feature_box(&ColumnBox::from_statistics(&stats));
    report.global_pruning_applied = prune_model(&mut plan.pipeline, &features);
    if report.global_pruning_applied {
        report.pruned_columns = model_projection_pushdown(plan)?;
    }
    Ok(report)
}

/// Compile a partition-optimized pipeline per partition of the scanned table
/// (when the data part is a scan of a value-partitioned table), as in §4.2's
/// per-partition models. The returned pipelines are aligned with the table's
/// partitions; partitions whose statistics prune nothing reuse the input
/// pipeline.
pub fn compile_partition_models(
    plan: &UnifiedPlan,
    catalog: &Catalog,
) -> Result<(Vec<Pipeline>, DataInducedReport)> {
    let mut report = DataInducedReport::default();
    let table_name = match &plan.data {
        LogicalPlan::Scan { table, .. } => table.clone(),
        other => {
            // only direct scans keep partition alignment
            let tables = other.referenced_tables();
            if tables.len() == 1 {
                tables[0].clone()
            } else {
                return Ok((vec![plan.pipeline.clone()], report));
            }
        }
    };
    let table = catalog.table(&table_name)?;
    if table.partitions().len() <= 1 {
        return Ok((vec![plan.pipeline.clone()], report));
    }
    let layout = match FeatureLayout::analyze(&plan.pipeline) {
        Ok(l) => l,
        Err(_) => return Ok((vec![plan.pipeline.clone()], report)),
    };
    let mut pipelines = Vec::with_capacity(table.partitions().len());
    let mut total_pruned_cols = 0usize;
    for part_stats in table.partition_statistics() {
        let features = layout.feature_box(&ColumnBox::from_statistics(part_stats));
        let mut pipeline = plan.pipeline.clone();
        if prune_model(&mut pipeline, &features) {
            // per-partition densification (counts the pruned columns of Tab. 2)
            let mut partition_plan = plan.clone();
            partition_plan.pipeline = pipeline.clone();
            let removed = model_projection_pushdown(&mut partition_plan)?;
            total_pruned_cols += removed.len();
            pipeline = partition_plan.pipeline;
        }
        pipelines.push(pipeline);
    }
    report.partition_models = pipelines.len();
    report.avg_pruned_columns_per_partition =
        total_pruned_cols as f64 / pipelines.len().max(1) as f64;
    Ok((pipelines, report))
}

fn gather_statistics(plan: &LogicalPlan, catalog: &Catalog) -> TableStatistics {
    let mut merged = TableStatistics::default();
    for table in plan.referenced_tables() {
        if let Some(stats) = catalog.statistics(&table) {
            if merged.columns.is_empty() {
                merged = stats;
            } else {
                // columns from different tables are disjoint; append
                let row_count = merged.row_count.max(stats.row_count);
                merged.columns.extend(stats.columns);
                merged.row_count = row_count;
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_columnar::{partition_by_column, PartitionSpec, TableBuilder};
    use raven_ml::{
        InputKind, MlRuntime, Operator, PipelineInput, PipelineNode, Tree, TreeEnsemble, TreeNode,
    };
    use raven_relational::col;

    /// Tree splitting on raw age at 60: data whose max age is 50 can prune the
    /// right sub-tree entirely.
    fn pipeline() -> Pipeline {
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
                    threshold: 1.5,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 0.9 },
                TreeNode::Leaf { value: 0.1 },
                TreeNode::Leaf { value: 0.4 },
            ],
            root: 0,
        };
        Pipeline::new(
            "m",
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

    fn young_table(ages: Vec<f64>) -> raven_columnar::Table {
        let n = ages.len() as i64;
        TableBuilder::new("hospital")
            .add_i64("id", (1..=n).collect())
            .add_f64("age", ages)
            .add_f64("rcount", (0..n).map(|i| (i % 3) as f64).collect())
            .build()
            .unwrap()
    }

    fn young_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(young_table(vec![25.0, 40.0, 50.0]));
        c
    }

    /// Scores of the pipeline over the catalog's `hospital` table, as bits.
    fn score_bits(pipeline: &Pipeline, c: &Catalog) -> Vec<u64> {
        let batch = c.table("hospital").unwrap().to_batch().unwrap();
        let inputs = raven_ml::bind_batch(pipeline, &batch).unwrap();
        let scores = MlRuntime::new().run(pipeline, &inputs).unwrap();
        let scores = scores.as_numeric().unwrap().column(0);
        scores.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn global_stats_prune_unreachable_subtree() {
        let c = young_catalog();
        let mut plan =
            UnifiedPlan::new(LogicalPlan::scan("hospital"), pipeline(), "risk", &c).unwrap();
        plan.projection = vec![col("id"), col("risk")];
        let before = plan.pipeline.clone();
        let report = apply_global_data_induced(&mut plan, &c).unwrap();
        assert!(report.global_pruning_applied);
        // age column is no longer needed by the pruned model (root decided)
        assert!(report.pruned_columns.contains(&"age".to_string()));
        // predictions on in-domain data are unchanged
        assert_eq!(score_bits(&before, &c), score_bits(&plan.pipeline, &c));

        // One more row, with a missing age: NaN goes right at the root
        // (0.9), so the statistics no longer decide it and the row scores as
        // before pruning.
        let mut c = Catalog::new();
        c.register(young_table(vec![25.0, 40.0, 50.0, f64::NAN]));
        let mut plan =
            UnifiedPlan::new(LogicalPlan::scan("hospital"), pipeline(), "risk", &c).unwrap();
        plan.projection = vec![col("id"), col("risk")];
        apply_global_data_induced(&mut plan, &c).unwrap();
        assert!(plan.pipeline.input("age").is_some());
        let scores = score_bits(&plan.pipeline, &c);
        assert_eq!(scores, score_bits(&before, &c));
        assert_eq!(f64::from_bits(scores[3]), 0.9);
    }

    /// The whole query, optimized and not, on a table holding a missing age:
    /// every `(id, score)` pair agrees bit for bit, on one partition (global
    /// statistics) and on age partitions (per-partition models).
    #[test]
    fn session_scores_nan_rows_like_no_opt() {
        use crate::session::{RavenConfig, RavenSession, RuntimePolicy};
        let table = young_table(vec![25.0, 40.0, f64::NAN, 70.0, 50.0, 80.0, 65.0]);
        let partitioned = partition_by_column(
            &table,
            &PartitionSpec::ByRange {
                column: "age".into(),
                partitions: 2,
            },
        )
        .unwrap();
        let young = young_table(vec![25.0, f64::NAN, 40.0, 50.0]);
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = m, DATA = hospital AS d) \
                     WITH (risk float) AS p";
        for (table, partition_models) in [(young, false), (partitioned, true)] {
            let run = |config: RavenConfig| {
                let mut session = RavenSession::with_config(config);
                session.register_table(table.clone());
                session.register_model(pipeline());
                let out = session.sql(query).unwrap();
                let ids = out
                    .batch
                    .column_by_name("id")
                    .unwrap()
                    .as_i64()
                    .unwrap()
                    .to_vec();
                let risk = out.batch.column_by_name("risk").unwrap().as_f64().unwrap();
                let mut rows: Vec<(i64, u64)> = ids
                    .into_iter()
                    .zip(risk.iter().map(|r| r.to_bits()))
                    .collect();
                rows.sort();
                (rows, out.report)
            };
            // partition models are compiled for the ML runtime only
            let runtime_policy = if partition_models {
                RuntimePolicy::NoTransform
            } else {
                RuntimePolicy::Heuristic
            };
            let (raven, report) = run(RavenConfig {
                enable_partition_models: partition_models,
                runtime_policy,
                ..RavenConfig::default()
            });
            let (baseline, _) = run(RavenConfig::no_opt());
            assert_eq!(raven, baseline, "partition models: {partition_models}");
            assert_eq!(raven.len(), table.num_rows());
            if partition_models {
                assert!(report.data_induced.partition_models >= 2);
            }
        }
    }

    #[test]
    fn no_pruning_when_stats_cover_both_branches() {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("hospital")
                .add_i64("id", vec![1, 2])
                .add_f64("age", vec![25.0, 80.0])
                .add_f64("rcount", vec![0.0, 3.0])
                .build()
                .unwrap(),
        );
        let mut plan =
            UnifiedPlan::new(LogicalPlan::scan("hospital"), pipeline(), "risk", &c).unwrap();
        let report = apply_global_data_induced(&mut plan, &c).unwrap();
        assert!(!report.global_pruning_applied);
    }

    #[test]
    fn partition_models_are_specialized_and_correct() {
        let mut c = Catalog::new();
        // the missing age lands in the young partition, whose statistics
        // then cannot send every row left at the age split
        let table = TableBuilder::new("hospital")
            .add_i64("id", (0..9).collect())
            .add_f64(
                "age",
                vec![20.0, 30.0, 40.0, 50.0, 65.0, 70.0, 80.0, 90.0, f64::NAN],
            )
            .add_f64("rcount", vec![0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0, 0.0])
            .build()
            .unwrap();
        let partitioned = partition_by_column(
            &table,
            &PartitionSpec::ByRange {
                column: "age".into(),
                partitions: 2,
            },
        )
        .unwrap();
        c.register(partitioned);
        let plan = UnifiedPlan::new(LogicalPlan::scan("hospital"), pipeline(), "risk", &c).unwrap();
        let (models, report) = compile_partition_models(&plan, &c).unwrap();
        assert_eq!(report.partition_models, models.len());
        assert!(models.len() >= 2);

        // each partition-specific model matches the original on its partition
        let rt = MlRuntime::new();
        let table = c.table("hospital").unwrap();
        for (batch, model) in table.partitions().iter().zip(models.iter()) {
            let orig = rt.run_batch(&plan.pipeline, batch).unwrap();
            // the specialized pipeline may have dropped inputs; bind only what it needs
            let inputs = raven_ml::bind_batch(model, batch).unwrap();
            let new = rt.run(model, &inputs).unwrap();
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&orig), bits(&new.as_numeric().unwrap().column(0)));
        }
        // at least one partition model is smaller than the original
        let orig_nodes: usize = match &plan.pipeline.model_node().unwrap().op {
            Operator::TreeEnsemble(e) => e.total_nodes(),
            _ => 0,
        };
        assert!(models.iter().any(|m| match &m.model_node().unwrap().op {
            Operator::TreeEnsemble(e) => e.total_nodes() < orig_nodes,
            _ => false,
        }));
    }

    #[test]
    fn single_partition_table_returns_original() {
        let c = young_catalog();
        let plan = UnifiedPlan::new(LogicalPlan::scan("hospital"), pipeline(), "risk", &c).unwrap();
        let (models, report) = compile_partition_models(&plan, &c).unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(report.partition_models, 0);
    }
}
