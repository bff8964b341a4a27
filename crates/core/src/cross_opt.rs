//! Cross-optimizations (paper §4.1): predicate-based model pruning
//! (data-to-model) and model-projection pushdown (model-to-data).

use crate::error::Result;
use crate::layout::FeatureLayout;
use raven_columnar::Interval;
use raven_ir::UnifiedPlan;
use raven_ml::{Operator, Pipeline};
use raven_relational::ColumnBox;
use std::collections::{BTreeMap, BTreeSet};

/// What a cross-optimization pass did, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossOptReport {
    /// Tree/graph nodes in the models before and after pruning.
    pub model_nodes_before: usize,
    pub model_nodes_after: usize,
    /// Feature-vector width before and after densification.
    pub features_before: usize,
    pub features_after: usize,
    /// Pipeline inputs (data columns) removed from the query.
    pub removed_inputs: Vec<String>,
    /// Whether each rule changed anything.
    pub predicate_pruning_applied: bool,
    pub projection_pushdown_applied: bool,
}

// ---------------------------------------------------------------------------
// Predicate-based model pruning
// ---------------------------------------------------------------------------

/// The pipeline's model operator, for in-place rewriting.
fn model_op(pipeline: &mut Pipeline) -> Option<&mut Operator> {
    let name = pipeline.model_node()?.name.clone();
    pipeline
        .nodes
        .iter_mut()
        .find(|n| n.name == name)
        .map(|n| &mut n.op)
}

/// Prune the pipeline's tree-ensemble model with a feature box: every branch
/// the box decides goes (paper §4.1–§4.2). Shared by predicate-based pruning
/// and both data-induced passes. Returns whether the model shrank.
pub(crate) fn prune_model(pipeline: &mut Pipeline, features: &BTreeMap<usize, Interval>) -> bool {
    if features.is_empty() {
        return false;
    }
    let Some(Operator::TreeEnsemble(ensemble)) = model_op(pipeline) else {
        return false;
    };
    let pruned = ensemble.prune_with_domains(features);
    let shrank = pruned.total_nodes() < ensemble.total_nodes();
    if shrank {
        *ensemble = pruned;
    }
    shrank
}

/// Apply predicate-based model pruning to the plan's pipeline, using the
/// query's input-side predicates (on data columns) and output-side predicates
/// (on the prediction). Returns whether anything changed.
pub fn predicate_based_model_pruning(plan: &mut UnifiedPlan) -> Result<bool> {
    let Ok(layout) = FeatureLayout::analyze(&plan.pipeline) else {
        return Ok(false);
    };
    let features = layout.feature_box(&ColumnBox::from_conjuncts(plan.input_predicates()));
    let threshold = output_score_threshold(plan);
    let mut changed = prune_model(&mut plan.pipeline, &features);
    match model_op(&mut plan.pipeline) {
        // Output-side predicate pruning for single trees: keep only paths to
        // leaves that can satisfy the predicate; other rows are filtered out
        // by the query's post-filter anyway.
        Some(Operator::TreeEnsemble(ensemble))
            if ensemble.trees.len() == 1 && ensemble.kind.is_classifier() =>
        {
            if let Some(threshold) = threshold {
                let tree = &ensemble.trees[0];
                let pruned = tree
                    .prune_by_output(&|v| v >= threshold, f64::NEG_INFINITY)
                    .compact();
                if pruned.node_count() < tree.node_count() {
                    ensemble.trees[0] = pruned;
                    changed = true;
                }
            }
        }
        // A feature pinned to one value folds into the intercept.
        Some(Operator::LogisticRegression(model)) => {
            for (feature, value) in pinned(&features, model.n_features()) {
                *model = model.fold_constant(feature, value)?;
                changed = true;
            }
        }
        Some(Operator::LinearRegression(model)) => {
            for (feature, value) in pinned(&features, model.n_features()) {
                *model = model.fold_constant(feature, value)?;
                changed = true;
            }
        }
        _ => {}
    }
    Ok(changed)
}

/// The features of a `width`-wide model a box pins to one number.
fn pinned(
    features: &BTreeMap<usize, Interval>,
    width: usize,
) -> impl Iterator<Item = (usize, f64)> + '_ {
    features
        .iter()
        .filter(move |(&f, d)| d.lo == d.hi && !d.may_be_nan && f < width)
        .map(|(&f, d)| (f, d.lo))
}

/// The lower bound the output-side predicates put on the prediction
/// (`score >= c`, `score > c` or `score = c`), when there is one.
fn output_score_threshold(plan: &UnifiedPlan) -> Option<f64> {
    let outputs = ColumnBox::from_conjuncts(plan.output_predicates());
    let lo = outputs.get(&plan.prediction_column)?.interval.lo;
    (lo > f64::NEG_INFINITY).then_some(lo)
}

// ---------------------------------------------------------------------------
// Model-projection pushdown
// ---------------------------------------------------------------------------

/// Apply model-projection pushdown: densify the model to its used features,
/// push the implied FeatureExtractor through Concat / Scaler / OneHotEncoder
/// producers, and drop pipeline inputs (data columns) that are no longer
/// consumed. Returns the names of removed inputs.
pub fn model_projection_pushdown(plan: &mut UnifiedPlan) -> Result<Vec<String>> {
    let layout = match FeatureLayout::analyze(&plan.pipeline) {
        Ok(l) => l,
        Err(_) => return Ok(vec![]),
    };
    let Some(model_node) = plan.pipeline.model_node() else {
        return Ok(vec![]);
    };
    let model_name = model_node.name.clone();

    // 1. determine used feature indices
    let used: Vec<usize> = match &model_node.op {
        Operator::TreeEnsemble(e) => e.used_features().into_iter().collect(),
        Operator::LogisticRegression(m) => m.used_features(),
        Operator::LinearRegression(m) => m.used_features(),
        Operator::LinearSvm(m) => m.used_features(),
        _ => return Ok(vec![]),
    };
    let used_set: BTreeSet<usize> = used.iter().copied().collect();
    if used_set.len() >= layout.width {
        return Ok(vec![]); // nothing unused
    }

    // 2. decide which inputs can be dropped from the pipeline entirely: all of
    //    their features are unused by the model. (The data side still provides
    //    columns the query needs elsewhere — `data_side_plan` projects the
    //    union of pipeline inputs and externally required columns — so this is
    //    always safe.)
    let mut removable: Vec<String> = Vec::new();
    for (input, mapping) in &layout.inputs {
        let features = mapping.feature_indices();
        let all_unused = features.iter().all(|f| !used_set.contains(f));
        if all_unused {
            removable.push(input.clone());
        }
    }

    // 3. the features we keep are the used ones plus every feature fed by an
    //    input we cannot remove (its encoder still produces the whole block).
    let mut kept: BTreeSet<usize> = used_set.clone();
    for (input, mapping) in &layout.inputs {
        if !removable.contains(input) {
            kept.extend(mapping.feature_indices());
        }
    }
    // features not owned by any input (e.g. constants) stay
    let owned: BTreeSet<usize> = layout
        .inputs
        .values()
        .flat_map(|m| m.feature_indices())
        .collect();
    for f in 0..layout.width {
        if !owned.contains(&f) {
            kept.insert(f);
        }
    }
    let mut kept: Vec<usize> = kept.into_iter().collect();
    if kept.is_empty() {
        // The model ignores every feature (e.g. fully pruned to a constant).
        // Keep a single feature column so the pipeline remains executable.
        kept.push(0);
    }
    if kept.len() >= layout.width {
        return Ok(vec![]);
    }
    let kept_set: BTreeSet<usize> = kept.iter().copied().collect();
    // An input whose block now intersects the kept set (e.g. the force-kept
    // feature 0) must not be dropped after all.
    removable.retain(|input| {
        layout
            .input(input)
            .map(|m| m.feature_indices().iter().all(|f| !kept_set.contains(f)))
            .unwrap_or(false)
    });

    // 4. densify the model to the kept features (in ascending order). If the
    //    model consumes raw columns directly (no Concat), drop the removable
    //    ones from its own input list so the runtime feature vector matches
    //    the densified indices.
    let removable_set: BTreeSet<&String> = removable.iter().collect();
    let mut nodes = plan.pipeline.nodes.clone();
    for node in nodes.iter_mut().filter(|n| n.name == model_name) {
        match &mut node.op {
            Operator::TreeEnsemble(e) => *e = e.select(&kept)?,
            Operator::LogisticRegression(m) => *m = m.select(&kept)?,
            Operator::LinearRegression(m) => *m = m.select(&kept)?,
            Operator::LinearSvm(m) => *m = m.select(&kept)?,
            _ => {}
        }
        if node.inputs.len() > 1 {
            node.inputs.retain(|i| !removable_set.contains(i));
        }
    }
    plan.pipeline.nodes = nodes;

    // 5. rewrite featurizers so they no longer produce the dropped blocks:
    //    - scaler: select the surviving columns, drop removed inputs
    //    - one-hot encoders of removed inputs: the whole node goes away
    //    (dead-node pruning removes them once the concat edge is gone)
    let mut nodes = plan.pipeline.nodes.clone();
    for node in nodes.iter_mut() {
        match &mut node.op {
            Operator::Scaler(scaler) => {
                // node.inputs are raw columns, one feature each, in order
                let keep_cols: Vec<usize> = node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|(_, name)| !removable_set.contains(name))
                    .map(|(i, _)| i)
                    .collect();
                if keep_cols.len() < node.inputs.len() && !keep_cols.is_empty() {
                    *scaler = scaler.select(&keep_cols)?;
                    node.inputs = keep_cols.iter().map(|&i| node.inputs[i].clone()).collect();
                }
            }
            Operator::Concat => {
                // Drop concat inputs whose producers only served removed inputs.
                // (Handled below via dead-node pruning: a producer is dead when
                // its own inputs were removed, so we drop the edge if its
                // producer consumes only removable inputs.)
            }
            _ => {}
        }
    }
    plan.pipeline.nodes = nodes;

    // drop concat edges that reference values produced solely from removed inputs
    let dead_values: Vec<String> = plan
        .pipeline
        .nodes
        .iter()
        .filter(|n| {
            !n.inputs.is_empty()
                && n.inputs
                    .iter()
                    .all(|i| removable_set.contains(&i.to_string()))
        })
        .map(|n| n.output.clone())
        .collect();
    let mut nodes = plan.pipeline.nodes.clone();
    for node in nodes.iter_mut() {
        if matches!(node.op, Operator::Concat) {
            node.inputs
                .retain(|i| !dead_values.contains(i) && !removable_set.contains(i));
        }
    }
    plan.pipeline.nodes = nodes;

    // scaler nodes that lost all inputs (every numeric column removed) are dead
    let mut nodes = plan.pipeline.nodes.clone();
    let empty_outputs: Vec<String> = nodes
        .iter()
        .filter(|n| n.inputs.is_empty() && !matches!(n.op, Operator::Constant(_)))
        .filter(|n| n.output != plan.pipeline.output)
        .map(|n| n.output.clone())
        .collect();
    for node in nodes.iter_mut() {
        if matches!(node.op, Operator::Concat) {
            node.inputs.retain(|i| !empty_outputs.contains(i));
        }
    }
    nodes.retain(|n| !empty_outputs.contains(&n.output));
    plan.pipeline.nodes = nodes;

    // 6. finally, prune inputs/nodes no longer reachable from the output.
    let mut removed = plan.pipeline.prune_dead_nodes();
    removed.sort();
    Ok(removed)
}

/// Run both cross-optimizations in the paper's order (pruning first, then
/// projection pushdown) and produce a report.
pub fn apply_cross_optimizations(plan: &mut UnifiedPlan) -> Result<CrossOptReport> {
    let mut report = CrossOptReport {
        model_nodes_before: model_size(plan),
        features_before: plan.pipeline.feature_width(),
        ..Default::default()
    };
    report.predicate_pruning_applied = predicate_based_model_pruning(plan)?;
    let removed = model_projection_pushdown(plan)?;
    report.projection_pushdown_applied = !removed.is_empty();
    report.removed_inputs = removed;
    report.model_nodes_after = model_size(plan);
    report.features_after = plan.pipeline.feature_width();
    Ok(report)
}

fn model_size(plan: &UnifiedPlan) -> usize {
    plan.pipeline
        .model_node()
        .map(|n| match &n.op {
            Operator::TreeEnsemble(e) => e.total_nodes(),
            Operator::LogisticRegression(m) => m.used_features().len() + 1,
            Operator::LinearRegression(m) => m.used_features().len() + 1,
            Operator::LinearSvm(m) => m.used_features().len() + 1,
            _ => 1,
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_columnar::TableBuilder;
    use raven_ml::{
        bind_batch, InputKind, LogisticRegressionModel, MlRuntime, OneHotEncoder, Operator,
        Pipeline, PipelineInput, PipelineNode, Scaler, Tree, TreeEnsemble, TreeNode,
    };
    use raven_relational::{col, lit, Catalog, Expr, LogicalPlan};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("patients")
                .add_i64("id", vec![1, 2, 3, 4])
                .add_f64("age", vec![30.0, 70.0, 55.0, 62.0])
                .add_f64("bpm", vec![60.0, 95.0, 70.0, 80.0])
                .add_i64("asthma", vec![1, 0, 1, 1])
                .build()
                .unwrap(),
        );
        c
    }

    /// Pipeline shaped like Fig. 3: Scaler(age, bpm) + OHE(asthma) → Concat →
    /// TreeClassifier whose right sub-tree only fires for asthma=0 and whose
    /// bpm feature is never used.
    fn pipeline() -> Pipeline {
        let tree = Tree {
            nodes: vec![
                /*0*/
                TreeNode::Branch {
                    feature: 3,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                /*1*/
                TreeNode::Branch {
                    feature: 2,
                    threshold: 0.5,
                    left: 3,
                    right: 4,
                },
                /*2*/
                TreeNode::Branch {
                    feature: 0,
                    threshold: 1.0,
                    left: 5,
                    right: 6,
                },
                /*3*/ TreeNode::Leaf { value: 0.1 },
                /*4*/ TreeNode::Leaf { value: 0.2 },
                /*5*/ TreeNode::Leaf { value: 0.3 },
                /*6*/ TreeNode::Leaf { value: 0.9 },
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
                    name: "bpm".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "asthma".into(),
                    kind: InputKind::Categorical,
                },
            ],
            vec![
                PipelineNode {
                    name: "scaler".into(),
                    op: Operator::Scaler(Scaler {
                        offsets: vec![50.0, 70.0],
                        scales: vec![0.1, 0.05],
                    }),
                    inputs: vec!["age".into(), "bpm".into()],
                    output: "scaled".into(),
                },
                PipelineNode {
                    name: "ohe".into(),
                    op: Operator::OneHotEncoder(OneHotEncoder {
                        categories: vec!["0".into(), "1".into()],
                    }),
                    inputs: vec!["asthma".into()],
                    output: "enc".into(),
                },
                PipelineNode {
                    name: "concat".into(),
                    op: Operator::Concat,
                    inputs: vec!["scaled".into(), "enc".into()],
                    output: "features".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree, 4)),
                    inputs: vec!["features".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap()
    }

    fn plan_with_predicate(pred: Expr) -> UnifiedPlan {
        let c = catalog();
        let mut p =
            UnifiedPlan::new(LogicalPlan::scan("patients"), pipeline(), "risk", &c).unwrap();
        p.predicates = vec![pred];
        p.projection = vec![col("id"), col("risk")];
        p
    }

    #[test]
    fn domains_propagate_through_featurizers() {
        let layout = FeatureLayout::analyze(&pipeline()).unwrap();
        let p1 = col("asthma").eq(lit(1i64));
        let p2 = col("age").lt(lit(30.0));
        let domains = layout.feature_box(&ColumnBox::from_conjuncts([&p1, &p2]));
        let point = |v| Interval {
            lo: v,
            hi: v,
            may_be_nan: false,
        };
        // asthma=1 → one-hot features 2,3 become constants [0,1]
        assert_eq!(domains.get(&2), Some(&point(0.0)));
        assert_eq!(domains.get(&3), Some(&point(1.0)));
        // age<30 → scaled (30-50)*0.1 = -2.0 upper bound; no row satisfying
        // the predicate is NaN
        let age = domains[&0];
        assert_eq!(age.lo, f64::NEG_INFINITY);
        assert!((age.hi - (-2.0)).abs() < 1e-12);
        assert!(!age.may_be_nan);
        // bpm is unconstrained
        assert!(!domains.contains_key(&1));
    }

    #[test]
    fn predicate_pruning_shrinks_tree_and_preserves_predictions() {
        let mut plan = plan_with_predicate(col("asthma").eq(lit(1i64)));
        let before_nodes = model_size(&plan);
        let before_pipeline = plan.pipeline.clone();
        let changed = predicate_based_model_pruning(&mut plan).unwrap();
        assert!(changed);
        assert!(model_size(&plan) < before_nodes);

        // Predictions must agree on rows satisfying the predicate.
        let batch = TableBuilder::new("t")
            .add_f64("age", vec![30.0, 70.0])
            .add_f64("bpm", vec![60.0, 95.0])
            .add_i64("asthma", vec![1, 1])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let orig = rt.run_batch(&before_pipeline, &batch).unwrap();
        let pruned = rt.run_batch(&plan.pipeline, &batch).unwrap();
        assert_eq!(orig, pruned);
    }

    #[test]
    fn projection_pushdown_removes_unused_bpm() {
        // Without predicates the tree uses features 0 (age), 2, 3 (asthma) but
        // never feature 1 (bpm) → bpm should be removed end-to-end.
        let c = catalog();
        let mut plan =
            UnifiedPlan::new(LogicalPlan::scan("patients"), pipeline(), "risk", &c).unwrap();
        plan.projection = vec![col("id"), col("risk")];
        let before_pipeline = plan.pipeline.clone();
        let removed = model_projection_pushdown(&mut plan).unwrap();
        assert_eq!(removed, vec!["bpm".to_string()]);
        assert!(plan.pipeline.input("bpm").is_none());
        assert_eq!(plan.pipeline.feature_width(), 3);
        assert!(plan.validate(&c).is_ok());

        // Predictions unchanged for arbitrary rows.
        let batch = TableBuilder::new("t")
            .add_f64("age", vec![30.0, 70.0, 62.0])
            .add_f64("bpm", vec![60.0, 95.0, 70.0])
            .add_i64("asthma", vec![1, 0, 1])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let orig = rt.run_batch(&before_pipeline, &batch).unwrap();
        let new_inputs = bind_batch(&plan.pipeline, &batch).unwrap();
        let new = rt.run(&plan.pipeline, &new_inputs).unwrap();
        assert_eq!(orig, new.as_numeric().unwrap().column(0));
    }

    #[test]
    fn pushdown_keeps_externally_required_columns_in_query() {
        let c = catalog();
        let mut plan =
            UnifiedPlan::new(LogicalPlan::scan("patients"), pipeline(), "risk", &c).unwrap();
        // the query itself selects bpm: the column leaves the *pipeline* (the
        // model never uses it) but remains externally required, so the data
        // side must still produce it.
        plan.projection = vec![col("bpm"), col("risk")];
        let removed = model_projection_pushdown(&mut plan).unwrap();
        assert_eq!(removed, vec!["bpm".to_string()]);
        assert!(plan.externally_required_columns().contains("bpm"));
        assert!(plan.pipeline.input("bpm").is_none());
    }

    #[test]
    fn combined_rules_compose() {
        // asthma=1 prunes the left sub-tree (features 2,3 decided); with the
        // output threshold, projection pushdown can then also drop columns.
        let mut plan = plan_with_predicate(col("asthma").eq(lit(1i64)));
        let report = apply_cross_optimizations(&mut plan).unwrap();
        assert!(report.predicate_pruning_applied);
        assert!(report.projection_pushdown_applied);
        assert!(report.features_after < report.features_before);
        assert!(report.model_nodes_after <= report.model_nodes_before);
        // bpm unused by the model AND asthma becomes constant → both removable
        assert!(report.removed_inputs.contains(&"bpm".to_string()));
        assert!(report.removed_inputs.contains(&"asthma".to_string()));
    }

    #[test]
    fn output_predicate_prunes_single_tree() {
        let mut plan = plan_with_predicate(col("risk").gt_eq(lit(0.5)));
        let before = plan.pipeline.clone();
        let changed = predicate_based_model_pruning(&mut plan).unwrap();
        assert!(changed);
        // rows that originally scored >= 0.5 keep their score; rows below the
        // threshold may map to the sentinel but still fail the post-filter.
        let batch = TableBuilder::new("t")
            .add_f64("age", vec![70.0, 30.0, 40.0])
            .add_f64("bpm", vec![60.0, 60.0, 70.0])
            .add_i64("asthma", vec![1, 1, 0])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let orig = rt.run_batch(&before, &batch).unwrap();
        let pruned = rt.run_batch(&plan.pipeline, &batch).unwrap();
        for (o, p) in orig.iter().zip(pruned.iter()) {
            if *o >= 0.5 {
                assert_eq!(o, p);
            } else {
                assert!(*p < 0.5);
            }
        }
        // the example row age=70, asthma=1 satisfies the threshold
        assert!(orig[0] >= 0.5);
        assert!(orig[1] < 0.5);
    }

    #[test]
    fn linear_model_constant_folding() {
        let c = catalog();
        let lr = Pipeline::new(
            "lr",
            vec![
                PipelineInput {
                    name: "age".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "bpm".into(),
                    kind: InputKind::Numeric,
                },
            ],
            vec![PipelineNode {
                name: "model".into(),
                op: Operator::LogisticRegression(LogisticRegressionModel {
                    weights: vec![0.1, 0.0],
                    intercept: -3.0,
                }),
                inputs: vec!["age".into(), "bpm".into()],
                output: "score".into(),
            }],
            "score",
        )
        .unwrap();
        let mut plan = UnifiedPlan::new(LogicalPlan::scan("patients"), lr, "risk", &c).unwrap();
        plan.predicates = vec![col("age").eq(lit(40.0))];
        plan.projection = vec![col("id"), col("risk")];
        let report = apply_cross_optimizations(&mut plan).unwrap();
        assert!(report.predicate_pruning_applied);
        // bpm (zero weight) is dropped; age is folded into the intercept and
        // only survives as the single column kept for executability.
        assert_eq!(plan.pipeline.inputs.len(), 1);
        assert!(report.removed_inputs.contains(&"bpm".to_string()));
        assert!(report.features_after < report.features_before);
    }

    #[test]
    fn no_change_when_all_features_used_and_no_predicates() {
        let c = catalog();
        // model that uses every feature
        let tree = Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 0,
                    threshold: 0.0,
                    left: 1,
                    right: 2,
                },
                TreeNode::Branch {
                    feature: 1,
                    threshold: 0.0,
                    left: 3,
                    right: 4,
                },
                TreeNode::Branch {
                    feature: 2,
                    threshold: 0.5,
                    left: 5,
                    right: 6,
                },
                TreeNode::Branch {
                    feature: 3,
                    threshold: 0.5,
                    left: 7,
                    right: 8,
                },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 0.5 },
            ],
            root: 0,
        };
        let mut p = pipeline();
        for node in p.nodes.iter_mut() {
            if node.name == "model" {
                node.op = Operator::TreeEnsemble(TreeEnsemble::single_tree(tree.clone(), 4));
            }
        }
        let mut plan = UnifiedPlan::new(LogicalPlan::scan("patients"), p, "risk", &c).unwrap();
        plan.projection = vec![col("id"), col("risk")];
        let report = apply_cross_optimizations(&mut plan).unwrap();
        assert!(!report.predicate_pruning_applied);
        assert!(!report.projection_pushdown_applied);
        assert!(report.removed_inputs.is_empty());
    }
}
