//! Decision trees and tree ensembles (decision tree, random forest, gradient
//! boosting) — the model family that dominates enterprise pipelines (§2.1)
//! and the main target of Raven's model pruning optimizations.

use crate::error::{MlError, Result};
use crate::frame::Matrix;
use crate::ops::linear::sigmoid;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One node of a binary decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// Internal split: rows with `feature <= threshold` go to `left`,
    /// the rest to `right` (scikit-learn convention).
    Branch {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf with an output value (class-1 probability for classifiers, raw
    /// value for regressors / boosting stages).
    Leaf { value: f64 },
}

/// A binary decision tree stored as a node arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    /// Node storage; `root` indexes into it.
    pub nodes: Vec<TreeNode>,
    /// Index of the root node.
    pub root: usize,
}

impl Tree {
    /// A single-leaf tree.
    pub fn leaf(value: f64) -> Tree {
        Tree {
            nodes: vec![TreeNode::Leaf { value }],
            root: 0,
        }
    }

    /// Evaluate the tree for one feature row.
    ///
    /// A feature index beyond the row falls back to NaN (⇒ the right child,
    /// the missing-value convention). Validated ensembles never hit that
    /// fallback: [`TreeEnsemble::validate_features`] rejects out-of-range
    /// feature indices with a typed error when a model is registered
    /// ([`crate::Pipeline::validate`]) or compiled
    /// ([`crate::ops::FlatEnsemble::compile`]); scoring an unvalidated
    /// ensemble directly keeps the NaN fallback.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Branch {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row.get(*feature).copied().unwrap_or(f64::NAN);
                    idx = if v <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        self.reachable().len()
    }

    /// Number of reachable leaves.
    pub fn leaf_count(&self) -> usize {
        self.reachable()
            .iter()
            .filter(|&&i| matches!(self.nodes[i], TreeNode::Leaf { .. }))
            .count()
    }

    /// Maximum depth (a single leaf has depth 0). Iterative — tree walkers
    /// must not recurse one frame per level, since degenerate chain-shaped
    /// trees (depth ≈ node count) are valid models. Guarded like
    /// `Tree::reachable` so cyclic/dangling graphs (rejected with a typed
    /// error at validation) terminate here too instead of looping or
    /// panicking.
    pub fn depth(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut max = 0;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((idx, d)) = stack.pop() {
            let Some(node) = self.nodes.get(idx) else {
                continue;
            };
            match node {
                TreeNode::Leaf { .. } => max = max.max(d),
                TreeNode::Branch { left, right, .. } => {
                    if std::mem::replace(&mut seen[idx], true) {
                        continue;
                    }
                    stack.push((*left, d + 1));
                    stack.push((*right, d + 1));
                }
            }
        }
        max
    }

    /// Features referenced by reachable branch nodes.
    pub fn used_features(&self) -> BTreeSet<usize> {
        self.reachable()
            .iter()
            .filter_map(|&i| match &self.nodes[i] {
                TreeNode::Branch { feature, .. } => Some(*feature),
                TreeNode::Leaf { .. } => None,
            })
            .collect()
    }

    fn reachable(&self) -> Vec<usize> {
        // Visited set so a cyclic or sharing node graph (rejected with a
        // typed error by `validate_features` and `FlatEnsemble::compile`)
        // terminates in the stats walkers too. Out-of-arena children are
        // skipped: they are not reachable nodes, and validation reports
        // them as dangling.
        let mut seen = vec![false; self.nodes.len()];
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            let Some(node) = self.nodes.get(idx) else {
                continue;
            };
            if std::mem::replace(&mut seen[idx], true) {
                continue;
            }
            out.push(idx);
            if let TreeNode::Branch { left, right, .. } = node {
                stack.push(*left);
                stack.push(*right);
            }
        }
        out
    }

    /// Rebuild the tree keeping only reachable nodes (compacts the arena).
    pub fn compact(&self) -> Tree {
        // pruning with no domains copies the reachable sub-tree verbatim
        self.prune_with_domains(&BTreeMap::new())
    }

    /// Prune branches that are unreachable given per-feature value domains
    /// `[lo, hi]` (inclusive). This implements both predicate-based pruning
    /// (equality → `[c, c]`, range predicates) and data-induced pruning
    /// (min/max statistics) from paper §4.1–§4.2.
    ///
    /// Iterative (explicit enter/combine stack): this runs on the query path
    /// for every registered model, and a chain-shaped tree must not consume
    /// one recursion frame per level. Emission order (left sub-tree, right
    /// sub-tree, parent) matches the recursive formulation it replaced.
    pub fn prune_with_domains(&self, domains: &BTreeMap<usize, (f64, f64)>) -> Tree {
        enum Step {
            Visit(usize),
            Combine { feature: usize, threshold: f64 },
        }
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut results: Vec<usize> = Vec::new();
        let mut work = vec![Step::Visit(self.root)];
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(mut idx) => loop {
                    match &self.nodes[idx] {
                        TreeNode::Leaf { value } => {
                            nodes.push(TreeNode::Leaf { value: *value });
                            results.push(nodes.len() - 1);
                            break;
                        }
                        TreeNode::Branch {
                            feature,
                            threshold,
                            left,
                            right,
                        } => {
                            if let Some(&(lo, hi)) = domains.get(feature) {
                                if hi <= *threshold {
                                    // every in-domain value goes left
                                    idx = *left;
                                    continue;
                                }
                                if lo > *threshold {
                                    idx = *right;
                                    continue;
                                }
                            }
                            work.push(Step::Combine {
                                feature: *feature,
                                threshold: *threshold,
                            });
                            work.push(Step::Visit(*right));
                            work.push(Step::Visit(*left));
                            break;
                        }
                    }
                },
                Step::Combine { feature, threshold } => {
                    let right = results.pop().expect("right subtree emitted");
                    let left = results.pop().expect("left subtree emitted");
                    nodes.push(TreeNode::Branch {
                        feature,
                        threshold,
                        left,
                        right,
                    });
                    results.push(nodes.len() - 1);
                }
            }
        }
        let root = results.pop().expect("root emitted");
        Tree { nodes, root }
    }

    /// Keep only the paths leading to leaves whose value satisfies `keep`;
    /// all other leaves are replaced by `sentinel`. Adjacent sentinel leaves
    /// are merged so entire sub-trees collapse. This implements the paper's
    /// output-predicate pruning (predicates on the prediction, §4.1): the
    /// query's post-filter removes sentinel rows, so results are unchanged.
    pub fn prune_by_output(&self, keep: &dyn Fn(f64) -> bool, sentinel: f64) -> Tree {
        // Iterative enter/combine stack, like `prune_with_domains`: the
        // collapse decision needs both rebuilt children, so the combine step
        // runs after both sub-tree emissions. (Collapsed children stay in
        // the arena as dead nodes, as before; `compact` drops them.)
        enum Step {
            Visit(usize),
            Combine { feature: usize, threshold: f64 },
        }
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut results: Vec<usize> = Vec::new();
        let mut work = vec![Step::Visit(self.root)];
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(idx) => match &self.nodes[idx] {
                    TreeNode::Leaf { value } => {
                        let v = if keep(*value) { *value } else { sentinel };
                        nodes.push(TreeNode::Leaf { value: v });
                        results.push(nodes.len() - 1);
                    }
                    TreeNode::Branch {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        work.push(Step::Combine {
                            feature: *feature,
                            threshold: *threshold,
                        });
                        work.push(Step::Visit(*right));
                        work.push(Step::Visit(*left));
                    }
                },
                Step::Combine { feature, threshold } => {
                    let right = results.pop().expect("right subtree emitted");
                    let left = results.pop().expect("left subtree emitted");
                    // collapse when both children became the sentinel leaf
                    if let (TreeNode::Leaf { value: lv }, TreeNode::Leaf { value: rv }) =
                        (&nodes[left], &nodes[right])
                    {
                        if *lv == sentinel && *rv == sentinel {
                            nodes.push(TreeNode::Leaf { value: sentinel });
                            results.push(nodes.len() - 1);
                            continue;
                        }
                    }
                    nodes.push(TreeNode::Branch {
                        feature,
                        threshold,
                        left,
                        right,
                    });
                    results.push(nodes.len() - 1);
                }
            }
        }
        let root = results.pop().expect("root emitted");
        Tree { nodes, root }
    }

    /// Rewrite feature indices according to `mapping` (old → new). Features
    /// absent from the mapping must not be used by the tree.
    pub fn remap_features(&self, mapping: &BTreeMap<usize, usize>) -> Result<Tree> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            nodes.push(match n {
                TreeNode::Leaf { value } => TreeNode::Leaf { value: *value },
                TreeNode::Branch {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let new = mapping.get(feature).ok_or_else(|| {
                        MlError::ShapeMismatch(format!(
                            "feature {feature} not present in remapping"
                        ))
                    })?;
                    TreeNode::Branch {
                        feature: *new,
                        threshold: *threshold,
                        left: *left,
                        right: *right,
                    }
                }
            });
        }
        Ok(Tree {
            nodes,
            root: self.root,
        })
    }
}

/// Which ensemble semantics to apply when combining tree outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnsembleKind {
    /// Single classification tree; leaf values are class-1 probabilities.
    DecisionTreeClassifier,
    /// Single regression tree; leaf values are predictions.
    DecisionTreeRegressor,
    /// Bagged classification trees; the score is the mean leaf probability.
    RandomForestClassifier,
    /// Boosted trees with a logistic link; the score is
    /// `sigmoid(base + lr * Σ tree)`.
    GradientBoostingClassifier,
    /// Boosted regression trees; the prediction is `base + lr * Σ tree`.
    GradientBoostingRegressor,
}

impl EnsembleKind {
    /// Whether the ensemble is a classifier (score in `[0, 1]`).
    pub fn is_classifier(&self) -> bool {
        !matches!(
            self,
            EnsembleKind::DecisionTreeRegressor | EnsembleKind::GradientBoostingRegressor
        )
    }
}

/// A trained tree ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeEnsemble {
    /// Combination semantics.
    pub kind: EnsembleKind,
    /// The member trees.
    pub trees: Vec<Tree>,
    /// Width of the feature vector the trees index into.
    pub n_features: usize,
    /// Learning rate (gradient boosting only; 1.0 otherwise).
    pub learning_rate: f64,
    /// Initial score / bias (gradient boosting only; 0.0 otherwise).
    pub base_score: f64,
}

impl TreeEnsemble {
    /// Build a single-tree classifier.
    pub fn single_tree(tree: Tree, n_features: usize) -> TreeEnsemble {
        TreeEnsemble {
            kind: EnsembleKind::DecisionTreeClassifier,
            trees: vec![tree],
            n_features,
            learning_rate: 1.0,
            base_score: 0.0,
        }
    }

    /// Check that every reachable branch node splits on a feature inside the
    /// ensemble's declared width, that every child index points into the
    /// node arena, and that the node graph is a proper tree (acyclic, no
    /// shared sub-trees). An out-of-range feature used to score silently as
    /// NaN (`row.get(..).unwrap_or(NAN)` in the walker), and a cyclic or
    /// dangling graph would hang or panic the query-path walkers; model
    /// registration ([`crate::Pipeline::validate`], run whenever a pipeline
    /// is built, registered, or evaluated) and flat compilation
    /// ([`crate::ops::FlatEnsemble::compile`]) reject all of them with this
    /// typed error instead. Not called per [`TreeEnsemble::predict`] — the
    /// check is O(nodes) and belongs at registration, not in the scoring
    /// loop.
    pub fn validate_features(&self) -> Result<()> {
        for (t, tree) in self.trees.iter().enumerate() {
            let mut seen = vec![false; tree.nodes.len()];
            let mut stack = vec![tree.root];
            while let Some(idx) = stack.pop() {
                let Some(node) = tree.nodes.get(idx) else {
                    return Err(MlError::InvalidModel(format!(
                        "tree {t} references node {idx}, arena has {}",
                        tree.nodes.len()
                    )));
                };
                if std::mem::replace(&mut seen[idx], true) {
                    return Err(MlError::InvalidModel(format!(
                        "tree {t} node graph is cyclic or shares node {idx}"
                    )));
                }
                if let TreeNode::Branch {
                    feature,
                    left,
                    right,
                    ..
                } = node
                {
                    if *feature >= self.n_features {
                        return Err(MlError::InvalidModel(format!(
                            "tree {t} splits on feature {feature}, \
                             ensemble has {} features",
                            self.n_features
                        )));
                    }
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        Ok(())
    }

    /// Predict the score for every row of `x` (probability for classifiers,
    /// value for regressors).
    pub fn predict(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() < self.n_features {
            return Err(MlError::ShapeMismatch(format!(
                "ensemble expects {} features, input has {}",
                self.n_features,
                x.cols()
            )));
        }
        let mut out = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            out.push(self.predict_row(x.row(r)));
        }
        Ok(Matrix::from_column(&out))
    }

    /// Predict the score for a single feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        match self.kind {
            EnsembleKind::DecisionTreeClassifier | EnsembleKind::DecisionTreeRegressor => self
                .trees
                .first()
                .map(|t| t.predict_row(row))
                .unwrap_or(0.0),
            EnsembleKind::RandomForestClassifier => {
                if self.trees.is_empty() {
                    return 0.0;
                }
                let sum: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
                sum / self.trees.len() as f64
            }
            EnsembleKind::GradientBoostingClassifier => {
                let raw: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
                sigmoid(self.base_score + self.learning_rate * raw)
            }
            EnsembleKind::GradientBoostingRegressor => {
                let raw: f64 = self.trees.iter().map(|t| t.predict_row(row)).sum();
                self.base_score + self.learning_rate * raw
            }
        }
    }

    /// Features used by any member tree.
    pub fn used_features(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for t in &self.trees {
            out.extend(t.used_features());
        }
        out
    }

    /// Prune every member tree with per-feature domains and compact them.
    pub fn prune_with_domains(&self, domains: &BTreeMap<usize, (f64, f64)>) -> TreeEnsemble {
        TreeEnsemble {
            trees: self
                .trees
                .iter()
                .map(|t| t.prune_with_domains(domains).compact())
                .collect(),
            ..self.clone()
        }
    }

    /// Densify the ensemble to the listed features (old index order becomes
    /// the new 0..n indexing); returns the densified ensemble.
    pub fn select(&self, indices: &[usize]) -> Result<TreeEnsemble> {
        let mapping: BTreeMap<usize, usize> = indices
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        let trees = self
            .trees
            .iter()
            .map(|t| t.remap_features(&mapping))
            .collect::<Result<Vec<_>>>()?;
        Ok(TreeEnsemble {
            trees,
            n_features: indices.len(),
            ..self.clone()
        })
    }

    /// Total number of reachable nodes across trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean tree depth.
    pub fn mean_depth(&self) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.depth() as f64).sum::<f64>() / self.trees.len() as f64
    }

    /// Maximum tree depth.
    pub fn max_depth(&self) -> usize {
        self.trees.iter().map(|t| t.depth()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running-example tree of Fig. 3: root on F[3] (asthma one-hot),
    /// left sub-tree on F[0] (scaled age) / F[1], right sub-tree on F[2]/F[3].
    fn example_tree() -> Tree {
        // nodes: indices chosen to exercise non-sequential layout
        Tree {
            nodes: vec![
                /* 0 */
                TreeNode::Branch {
                    feature: 3,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                /* 1 */
                TreeNode::Branch {
                    feature: 0,
                    threshold: 60.0,
                    left: 3,
                    right: 4,
                },
                /* 2 */
                TreeNode::Branch {
                    feature: 2,
                    threshold: 0.5,
                    left: 5,
                    right: 6,
                },
                /* 3 */ TreeNode::Leaf { value: 0.0 },
                /* 4 */
                TreeNode::Branch {
                    feature: 1,
                    threshold: 1.0,
                    left: 7,
                    right: 8,
                },
                /* 5 */ TreeNode::Leaf { value: 1.0 },
                /* 6 */ TreeNode::Leaf { value: 0.0 },
                /* 7 */ TreeNode::Leaf { value: 1.0 },
                /* 8 */ TreeNode::Leaf { value: 0.0 },
            ],
            root: 0,
        }
    }

    #[test]
    fn predict_and_structure() {
        let t = example_tree();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.leaf_count(), 5);
        assert_eq!(
            t.used_features().into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // row: F = [age, x, f2, asthma_onehot]
        assert_eq!(t.predict_row(&[70.0, 0.5, 0.0, 0.0]), 1.0);
        assert_eq!(t.predict_row(&[50.0, 0.0, 0.0, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[0.0, 0.0, 0.0, 1.0]), 1.0);
    }

    #[test]
    fn prune_with_equality_domain() {
        let t = example_tree();
        // asthma = 1 (one-hot feature 3 = 1): root goes right always.
        let mut domains = BTreeMap::new();
        domains.insert(3usize, (1.0, 1.0));
        let pruned = t.prune_with_domains(&domains).compact();
        assert!(pruned.node_count() < t.node_count());
        assert!(!pruned.used_features().contains(&3));
        assert!(!pruned.used_features().contains(&0));
        // predictions agree on rows satisfying the predicate
        for f2 in [0.0, 1.0] {
            let row = [30.0, 0.0, f2, 1.0];
            assert_eq!(t.predict_row(&row), pruned.predict_row(&row));
        }
    }

    #[test]
    fn prune_with_range_domain() {
        let t = example_tree();
        // age < 30 (and asthma unconstrained): left branch under node 1 always taken.
        let mut domains = BTreeMap::new();
        domains.insert(0usize, (0.0, 29.0));
        let pruned = t.prune_with_domains(&domains).compact();
        assert!(pruned.node_count() < t.node_count());
        for asthma in [0.0, 1.0] {
            let row = [25.0, 2.0, 1.0, asthma];
            assert_eq!(t.predict_row(&row), pruned.predict_row(&row));
        }
    }

    #[test]
    fn prune_by_output_keeps_positive_paths() {
        let t = example_tree();
        let pruned = t.prune_by_output(&|v| v >= 0.5, -1.0);
        // All rows that originally predicted 1.0 still do.
        for row in [
            [70.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [61.0, 0.0, 0.0, 0.0],
        ] {
            if t.predict_row(&row) >= 0.5 {
                assert_eq!(pruned.predict_row(&row), t.predict_row(&row));
            } else {
                assert_eq!(pruned.predict_row(&row), -1.0);
            }
        }
    }

    #[test]
    fn validate_rejects_cyclic_and_dangling_graphs() {
        let cyclic = Tree {
            nodes: vec![TreeNode::Branch {
                feature: 0,
                threshold: 0.0,
                left: 0,
                right: 0,
            }],
            root: 0,
        };
        let err = TreeEnsemble::single_tree(cyclic, 1)
            .validate_features()
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidModel(_)), "{err}");
        let dangling = Tree {
            nodes: vec![TreeNode::Branch {
                feature: 0,
                threshold: 0.0,
                left: 5,
                right: 5,
            }],
            root: 0,
        };
        let err = TreeEnsemble::single_tree(dangling, 1)
            .validate_features()
            .unwrap_err();
        assert!(matches!(err, MlError::InvalidModel(_)), "{err}");
        assert!(TreeEnsemble::single_tree(example_tree(), 4)
            .validate_features()
            .is_ok());
    }

    #[test]
    fn degenerate_chain_walkers_stay_iterative() {
        // A chain deeper than any thread stack could absorb one recursion
        // frame per level for: every walker on the validation, pruning, and
        // stats paths must stay iterative (compile-side coverage lives in
        // the flat-scorer tests).
        let levels = 200_000usize;
        let mut nodes = Vec::with_capacity(2 * levels + 1);
        for i in 0..levels {
            nodes.push(TreeNode::Branch {
                feature: 0,
                threshold: (levels - i) as f64,
                left: i + 1,
                right: levels + 1 + i,
            });
        }
        nodes.push(TreeNode::Leaf { value: -1.0 });
        for i in 0..levels {
            nodes.push(TreeNode::Leaf { value: i as f64 });
        }
        let t = Tree { nodes, root: 0 };
        assert_eq!(t.depth(), levels);
        assert_eq!(t.node_count(), 2 * levels + 1);
        let copy = t.compact();
        for row in [[0.0], [levels as f64 - 2.5], [f64::NAN]] {
            assert_eq!(
                t.predict_row(&row).to_bits(),
                copy.predict_row(&row).to_bits()
            );
        }
        // the domain forces every split left: the chain collapses to a leaf
        let mut domains = BTreeMap::new();
        domains.insert(0usize, (0.0, 0.0));
        let pruned = t.prune_with_domains(&domains);
        assert_eq!(pruned.node_count(), 1);
        assert_eq!(pruned.predict_row(&[0.0]), -1.0);
        // rejecting every leaf collapses the whole chain into the sentinel
        let sentinel = t.prune_by_output(&|_| false, -9.0).compact();
        assert_eq!(sentinel.node_count(), 1);
        assert_eq!(sentinel.predict_row(&[0.0]), -9.0);
    }

    #[test]
    fn remap_features() {
        let t = example_tree();
        let mut mapping = BTreeMap::new();
        for (new, old) in [0usize, 1, 2, 3].iter().enumerate() {
            mapping.insert(*old, new);
        }
        let same = t.remap_features(&mapping).unwrap();
        assert_eq!(same.used_features(), t.used_features());
        let empty = BTreeMap::new();
        assert!(t.remap_features(&empty).is_err());
    }

    #[test]
    fn ensemble_kinds_predict() {
        let t1 = Tree::leaf(1.0);
        let t2 = Tree::leaf(0.0);
        let rf = TreeEnsemble {
            kind: EnsembleKind::RandomForestClassifier,
            trees: vec![t1.clone(), t2.clone()],
            n_features: 1,
            learning_rate: 1.0,
            base_score: 0.0,
        };
        assert_eq!(rf.predict_row(&[0.0]), 0.5);

        let gb = TreeEnsemble {
            kind: EnsembleKind::GradientBoostingClassifier,
            trees: vec![Tree::leaf(0.0), Tree::leaf(0.0)],
            n_features: 1,
            learning_rate: 0.1,
            base_score: 0.0,
        };
        assert!((gb.predict_row(&[0.0]) - 0.5).abs() < 1e-12);

        let gbr = TreeEnsemble {
            kind: EnsembleKind::GradientBoostingRegressor,
            trees: vec![Tree::leaf(2.0)],
            n_features: 1,
            learning_rate: 0.5,
            base_score: 1.0,
        };
        assert_eq!(gbr.predict_row(&[0.0]), 2.0);

        assert!(EnsembleKind::RandomForestClassifier.is_classifier());
        assert!(!EnsembleKind::GradientBoostingRegressor.is_classifier());
    }

    #[test]
    fn ensemble_matrix_predict_and_shape_check() {
        let ens = TreeEnsemble::single_tree(example_tree(), 4);
        let x = Matrix::from_columns(&[
            vec![70.0, 50.0],
            vec![0.5, 0.0],
            vec![0.0, 0.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let y = ens.predict(&x).unwrap();
        assert_eq!(y.column(0), vec![1.0, 1.0]);
        assert!(ens.predict(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn ensemble_select_densifies() {
        let ens = TreeEnsemble::single_tree(example_tree(), 6);
        let used: Vec<usize> = ens.used_features().into_iter().collect();
        let dense = ens.select(&used).unwrap();
        assert_eq!(dense.n_features, 4);
        // same predictions when features are re-ordered accordingly
        let row_orig = [70.0, 0.5, 0.0, 0.0, 9.0, 9.0];
        let row_dense: Vec<f64> = used.iter().map(|&i| row_orig[i]).collect();
        assert_eq!(ens.predict_row(&row_orig), dense.predict_row(&row_dense));
    }

    #[test]
    fn ensemble_stats() {
        let ens = TreeEnsemble {
            kind: EnsembleKind::RandomForestClassifier,
            trees: vec![example_tree(), Tree::leaf(0.3)],
            n_features: 4,
            learning_rate: 1.0,
            base_score: 0.0,
        };
        assert_eq!(ens.n_trees(), 2);
        assert_eq!(ens.total_nodes(), 10);
        assert_eq!(ens.max_depth(), 3);
        assert!((ens.mean_depth() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ensemble_prune_with_domains() {
        let ens = TreeEnsemble::single_tree(example_tree(), 4);
        let mut domains = BTreeMap::new();
        domains.insert(3usize, (1.0, 1.0));
        let pruned = ens.prune_with_domains(&domains);
        assert!(pruned.total_nodes() < ens.total_nodes());
    }
}
