//! Hummingbird-style compilation of traditional ML models into tensor
//! programs (the MLtoDNN transformation's back end, paper §5.1).
//!
//! Two strategies are implemented, mirroring Hummingbird:
//!
//! * **GEMM** — the tree is flattened into dense matrices so that evaluating
//!   it becomes three matrix multiplications plus comparisons. Highest
//!   arithmetic intensity; the strategy of choice for GPUs and wide batches.
//! * **TreeTraversal** — the tree's node arrays become tensors and evaluation
//!   iterates `depth` gather/compare steps over all rows at once. Less
//!   redundant compute than GEMM for deep trees.
//!
//! Linear and logistic models compile to a single GEMM plus (optionally) a
//! sigmoid.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use raven_ml::{
    EnsembleKind, LinearRegressionModel, LogisticRegressionModel, Matrix, Operator, Tree,
    TreeEnsemble, TreeNode,
};
use serde::{Deserialize, Serialize};

/// Compilation strategy for tree ensembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Flatten trees into dense GEMM operations.
    Gemm,
    /// Iterative tensorized tree traversal.
    TreeTraversal,
}

/// A single tree compiled for the GEMM strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmTree {
    /// features × internal-nodes indicator matrix (A).
    pub a: Tensor,
    /// 1 × internal-nodes thresholds (B).
    pub b: Tensor,
    /// internal-nodes × leaves path matrix (C): +1 left-path, -1 right-path.
    pub c: Tensor,
    /// 1 × leaves expected true-count per leaf (D).
    pub d: Tensor,
    /// leaves × 1 leaf output values (E).
    pub e: Tensor,
}

/// A single tree compiled for the TreeTraversal strategy (structure-of-arrays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraversalTree {
    /// Per node: feature index (leaves hold 0).
    pub features: Vec<usize>,
    /// Per node: threshold (leaves hold +inf so comparison always goes "left").
    pub thresholds: Vec<f64>,
    /// Per node: left child index (leaves point to themselves).
    pub lefts: Vec<usize>,
    /// Per node: right child index (leaves point to themselves).
    pub rights: Vec<usize>,
    /// Per node: output value (internal nodes hold 0).
    pub values: Vec<f64>,
    /// Root node index.
    pub root: usize,
    /// Iterations needed to reach any leaf.
    pub depth: usize,
}

/// A model compiled into a tensor program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompiledModel {
    /// Tree ensemble compiled with the GEMM strategy.
    GemmEnsemble {
        trees: Vec<GemmTree>,
        kind: EnsembleKind,
        learning_rate: f64,
        base_score: f64,
        n_features: usize,
    },
    /// Tree ensemble compiled with the TreeTraversal strategy.
    TraversalEnsemble {
        trees: Vec<TraversalTree>,
        kind: EnsembleKind,
        learning_rate: f64,
        base_score: f64,
        n_features: usize,
    },
    /// Linear model compiled to a single GEMM (+ sigmoid when logistic).
    Linear {
        /// features × 1 weight tensor.
        weights: Tensor,
        intercept: f64,
        logistic: bool,
    },
}

impl CompiledModel {
    /// Evaluate the compiled model over a feature matrix, producing one score
    /// per row.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        let xt = Tensor::new(x.rows(), x.cols(), x.data().to_vec())?;
        match self {
            CompiledModel::Linear {
                weights,
                intercept,
                logistic,
            } => {
                let scores = xt.matmul(weights)?;
                let out = scores.map(|v| {
                    let z = v + intercept;
                    if *logistic {
                        raven_ml::sigmoid(z)
                    } else {
                        z
                    }
                });
                Ok(out.data().to_vec())
            }
            CompiledModel::GemmEnsemble {
                trees,
                kind,
                learning_rate,
                base_score,
                n_features,
            } => {
                check_width(x.cols(), *n_features)?;
                let mut acc = vec![0.0; x.rows()];
                for tree in trees {
                    let scores = eval_gemm_tree(&xt, tree)?;
                    for (a, s) in acc.iter_mut().zip(scores.iter()) {
                        *a += s;
                    }
                }
                Ok(combine(
                    &acc,
                    trees.len(),
                    *kind,
                    *learning_rate,
                    *base_score,
                ))
            }
            CompiledModel::TraversalEnsemble {
                trees,
                kind,
                learning_rate,
                base_score,
                n_features,
            } => {
                check_width(x.cols(), *n_features)?;
                let mut acc = vec![0.0; x.rows()];
                for tree in trees {
                    let scores = eval_traversal_tree(&xt, tree);
                    for (a, s) in acc.iter_mut().zip(scores.iter()) {
                        *a += s;
                    }
                }
                Ok(combine(
                    &acc,
                    trees.len(),
                    *kind,
                    *learning_rate,
                    *base_score,
                ))
            }
        }
    }

    /// Approximate floating-point operations needed to score `rows` rows —
    /// the input of the simulated-GPU cost model.
    pub fn flops(&self, rows: u64) -> u64 {
        match self {
            CompiledModel::Linear { weights, .. } => rows * weights.rows() as u64 * 2,
            CompiledModel::GemmEnsemble { trees, .. } => trees
                .iter()
                .map(|t| {
                    let internals = t.b.cols() as u64;
                    let leaves = t.e.rows() as u64;
                    let features = t.a.rows() as u64;
                    // X*A, S*C, Z*E plus comparisons
                    rows * (features * internals * 2 + internals * leaves * 2 + leaves * 2)
                })
                .sum(),
            CompiledModel::TraversalEnsemble { trees, .. } => {
                trees.iter().map(|t| rows * (t.depth as u64 + 1) * 6).sum()
            }
        }
    }

    /// Approximate parameter bytes that must be resident on the device
    /// (transferred once per invocation in the cost model).
    pub fn parameter_bytes(&self) -> usize {
        match self {
            CompiledModel::Linear { weights, .. } => weights.len() * 8,
            CompiledModel::GemmEnsemble { trees, .. } => trees
                .iter()
                .map(|t| (t.a.len() + t.b.len() + t.c.len() + t.d.len() + t.e.len()) * 8)
                .sum(),
            CompiledModel::TraversalEnsemble { trees, .. } => {
                trees.iter().map(|t| t.features.len() * 5 * 8).sum()
            }
        }
    }

    /// The strategy used (None for linear models).
    pub fn strategy(&self) -> Option<Strategy> {
        match self {
            CompiledModel::GemmEnsemble { .. } => Some(Strategy::Gemm),
            CompiledModel::TraversalEnsemble { .. } => Some(Strategy::TreeTraversal),
            CompiledModel::Linear { .. } => None,
        }
    }
}

fn check_width(got: usize, expected: usize) -> Result<()> {
    if got < expected {
        return Err(TensorError::Shape(format!(
            "input has {got} features, model expects {expected}"
        )));
    }
    Ok(())
}

fn combine(
    acc: &[f64],
    n_trees: usize,
    kind: EnsembleKind,
    learning_rate: f64,
    base_score: f64,
) -> Vec<f64> {
    acc.iter()
        .map(|&raw| match kind {
            EnsembleKind::DecisionTreeClassifier | EnsembleKind::DecisionTreeRegressor => raw,
            EnsembleKind::RandomForestClassifier => raw / n_trees.max(1) as f64,
            EnsembleKind::GradientBoostingClassifier => {
                raven_ml::sigmoid(base_score + learning_rate * raw)
            }
            EnsembleKind::GradientBoostingRegressor => base_score + learning_rate * raw,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compile a tree ensemble with the requested strategy.
pub fn compile_ensemble(ensemble: &TreeEnsemble, strategy: Strategy) -> Result<CompiledModel> {
    match strategy {
        Strategy::Gemm => {
            let trees = ensemble
                .trees
                .iter()
                .map(|t| compile_gemm_tree(t, ensemble.n_features))
                .collect::<Result<Vec<_>>>()?;
            Ok(CompiledModel::GemmEnsemble {
                trees,
                kind: ensemble.kind,
                learning_rate: ensemble.learning_rate,
                base_score: ensemble.base_score,
                n_features: ensemble.n_features,
            })
        }
        Strategy::TreeTraversal => {
            let trees = ensemble.trees.iter().map(compile_traversal_tree).collect();
            Ok(CompiledModel::TraversalEnsemble {
                trees,
                kind: ensemble.kind,
                learning_rate: ensemble.learning_rate,
                base_score: ensemble.base_score,
                n_features: ensemble.n_features,
            })
        }
    }
}

/// Compile the model operator of a pipeline (tree ensembles and linear
/// models); featurizers stay on the ML runtime, as in Raven's integration.
pub fn compile_operator(op: &Operator, strategy: Strategy) -> Result<CompiledModel> {
    match op {
        Operator::TreeEnsemble(e) => compile_ensemble(e, strategy),
        Operator::LinearRegression(m) => Ok(compile_linear(m)),
        Operator::LogisticRegression(m) => Ok(compile_logistic(m)),
        other => Err(TensorError::Unsupported(format!(
            "operator {} cannot be compiled to tensors",
            other.name()
        ))),
    }
}

/// Compile a linear regression model.
pub fn compile_linear(m: &LinearRegressionModel) -> CompiledModel {
    CompiledModel::Linear {
        weights: Tensor::new(m.weights.len(), 1, m.weights.clone()).expect("weights are a vector"),
        intercept: m.intercept,
        logistic: false,
    }
}

/// Compile a logistic regression model.
pub fn compile_logistic(m: &LogisticRegressionModel) -> CompiledModel {
    CompiledModel::Linear {
        weights: Tensor::new(m.weights.len(), 1, m.weights.clone()).expect("weights are a vector"),
        intercept: m.intercept,
        logistic: true,
    }
}

fn compile_gemm_tree(tree: &Tree, n_features: usize) -> Result<GemmTree> {
    // collect reachable internal nodes and leaves in a stable order
    let mut internals = Vec::new();
    let mut leaves = Vec::new();
    collect_nodes(tree, tree.root, &mut internals, &mut leaves);
    let n_int = internals.len().max(1);
    let n_leaves = leaves.len();

    let mut a = Tensor::zeros(n_features, n_int);
    let mut b = Tensor::zeros(1, n_int);
    let mut c = Tensor::zeros(n_int, n_leaves);
    let mut d = Tensor::zeros(1, n_leaves);
    let mut e = Tensor::zeros(n_leaves, 1);

    for (j, &node_idx) in internals.iter().enumerate() {
        if let TreeNode::Branch {
            feature, threshold, ..
        } = &tree.nodes[node_idx]
        {
            if *feature >= n_features {
                return Err(TensorError::Shape(format!(
                    "tree references feature {feature} but model width is {n_features}"
                )));
            }
            a.set(*feature, j, 1.0);
            b.set(0, j, *threshold);
        }
    }

    // path matrix: walk from root to each leaf
    for (l, &leaf_idx) in leaves.iter().enumerate() {
        if let TreeNode::Leaf { value } = &tree.nodes[leaf_idx] {
            e.set(l, 0, *value);
        }
        let path = path_to(tree, tree.root, leaf_idx)
            .ok_or_else(|| TensorError::Shape("leaf unreachable from root".into()))?;
        let mut expected = 0.0;
        for window in path.windows(2) {
            let (parent, child) = (window[0], window[1]);
            let j = internals
                .iter()
                .position(|&n| n == parent)
                .ok_or_else(|| TensorError::Shape("path through non-internal node".into()))?;
            if let TreeNode::Branch { left, .. } = &tree.nodes[parent] {
                if *left == child {
                    c.set(j, l, 1.0);
                    expected += 1.0;
                } else {
                    c.set(j, l, -1.0);
                }
            }
        }
        d.set(0, l, expected);
    }
    Ok(GemmTree { a, b, c, d, e })
}

fn collect_nodes(tree: &Tree, idx: usize, internals: &mut Vec<usize>, leaves: &mut Vec<usize>) {
    match &tree.nodes[idx] {
        TreeNode::Leaf { .. } => leaves.push(idx),
        TreeNode::Branch { left, right, .. } => {
            internals.push(idx);
            collect_nodes(tree, *left, internals, leaves);
            collect_nodes(tree, *right, internals, leaves);
        }
    }
}

fn path_to(tree: &Tree, from: usize, target: usize) -> Option<Vec<usize>> {
    if from == target {
        return Some(vec![from]);
    }
    match &tree.nodes[from] {
        TreeNode::Leaf { .. } => None,
        TreeNode::Branch { left, right, .. } => {
            for child in [*left, *right] {
                if let Some(mut p) = path_to(tree, child, target) {
                    let mut path = vec![from];
                    path.append(&mut p);
                    return Some(path);
                }
            }
            None
        }
    }
}

fn compile_traversal_tree(tree: &Tree) -> TraversalTree {
    let n = tree.nodes.len();
    let mut features = vec![0usize; n];
    let mut thresholds = vec![f64::INFINITY; n];
    let mut lefts = vec![0usize; n];
    let mut rights = vec![0usize; n];
    let mut values = vec![0.0f64; n];
    for (i, node) in tree.nodes.iter().enumerate() {
        match node {
            TreeNode::Leaf { value } => {
                lefts[i] = i;
                rights[i] = i;
                values[i] = *value;
            }
            TreeNode::Branch {
                feature,
                threshold,
                left,
                right,
            } => {
                features[i] = *feature;
                thresholds[i] = *threshold;
                lefts[i] = *left;
                rights[i] = *right;
            }
        }
    }
    TraversalTree {
        features,
        thresholds,
        lefts,
        rights,
        values,
        root: tree.root,
        depth: tree.depth(),
    }
}

// ---------------------------------------------------------------------------
// Evaluation kernels
// ---------------------------------------------------------------------------

fn eval_gemm_tree(x: &Tensor, tree: &GemmTree) -> Result<Vec<f64>> {
    // S = (X · A) <= B  (per internal node decision)
    let xa = node_inputs(x, &tree.a)?;
    let s = xa.zip_broadcast(&tree.b, |v, t| if v <= t { 1.0 } else { 0.0 })?;
    // E = S · C ; leaf selected where E == D
    let e = s.matmul(&tree.c)?;
    let z = e.zip_broadcast(&tree.d, |v, d| if (v - d).abs() < 1e-9 { 1.0 } else { 0.0 })?;
    // output = Z · leaf_values
    let out = z.matmul(&tree.e)?;
    Ok(out.data().to_vec())
}

/// `X · A` summed over `A`'s nonzeros only. `A` holds one 1 per internal
/// node's column, at the node's split feature, so every node reads exactly
/// its own feature. The dense product would also add `NaN·0` and `inf·0`
/// (both NaN) from every other feature: one non-finite cell would make every
/// node's input in its row NaN and send the whole row right.
fn node_inputs(x: &Tensor, a: &Tensor) -> Result<Tensor> {
    if x.cols() != a.rows() {
        return Err(TensorError::Shape(format!(
            "node inputs {}x{} * {}x{}",
            x.rows(),
            x.cols(),
            a.rows(),
            a.cols()
        )));
    }
    let nonzeros: Vec<Vec<(usize, f64)>> = (0..a.cols())
        .map(|j| {
            (0..a.rows())
                .map(|k| (k, a.get(k, j)))
                .filter(|&(_, w)| w != 0.0)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(x.rows() * a.cols());
    for r in 0..x.rows() {
        let row = &x.data()[r * x.cols()..(r + 1) * x.cols()];
        data.extend(
            nonzeros
                .iter()
                .map(|column| column.iter().fold(0.0, |acc, &(k, w)| acc + row[k] * w)),
        );
    }
    Tensor::new(x.rows(), a.cols(), data)
}

fn eval_traversal_tree(x: &Tensor, tree: &TraversalTree) -> Vec<f64> {
    let rows = x.rows();
    let mut idx = vec![tree.root; rows];
    for _ in 0..=tree.depth {
        #[allow(clippy::needless_range_loop)] // r indexes both idx and x rows
        for r in 0..rows {
            let i = idx[r];
            let f = tree.features[i];
            let v = x.get(r, f.min(x.cols().saturating_sub(1)));
            idx[r] = if v <= tree.thresholds[i] {
                tree.lefts[i]
            } else {
                tree.rights[i]
            };
        }
    }
    idx.iter().map(|&i| tree.values[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raven_ml::{train_gradient_boosting, train_random_forest, BoostingConfig, ForestConfig};

    fn dataset(n: usize, d: usize) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(9);
        let cols: Vec<Vec<f64>> = (0..d)
            .map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                if cols[0][i] + 0.5 * cols[1][i] > 0.2 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        (Matrix::from_columns(&cols).unwrap(), y)
    }

    fn example_ensemble() -> TreeEnsemble {
        TreeEnsemble::single_tree(
            Tree {
                nodes: vec![
                    TreeNode::Branch {
                        feature: 0,
                        threshold: 0.5,
                        left: 1,
                        right: 2,
                    },
                    TreeNode::Leaf { value: 0.1 },
                    TreeNode::Branch {
                        feature: 1,
                        threshold: -1.0,
                        left: 3,
                        right: 4,
                    },
                    TreeNode::Leaf { value: 0.7 },
                    TreeNode::Leaf { value: 0.9 },
                ],
                root: 0,
            },
            2,
        )
    }

    #[test]
    fn gemm_matches_native_single_tree() {
        let ens = example_ensemble();
        let compiled = compile_ensemble(&ens, Strategy::Gemm).unwrap();
        let x = Matrix::from_columns(&[vec![0.0, 1.0, 2.0], vec![0.0, -2.0, 1.0]]).unwrap();
        let native = ens.predict(&x).unwrap();
        let tensorized = compiled.predict(&x).unwrap();
        assert_eq!(native.column(0), tensorized);
    }

    #[test]
    fn traversal_matches_native_single_tree() {
        let ens = example_ensemble();
        let compiled = compile_ensemble(&ens, Strategy::TreeTraversal).unwrap();
        let x = Matrix::from_columns(&[vec![0.0, 1.0, 2.0], vec![0.0, -2.0, 1.0]]).unwrap();
        assert_eq!(
            ens.predict(&x).unwrap().column(0),
            compiled.predict(&x).unwrap()
        );
    }

    #[test]
    fn gemm_matches_native_trained_forest() {
        let (x, y) = dataset(200, 4);
        let rf = train_random_forest(&x, &y, &ForestConfig::default()).unwrap();
        let compiled = compile_ensemble(&rf, Strategy::Gemm).unwrap();
        let native = rf.predict(&x).unwrap();
        let tens = compiled.predict(&x).unwrap();
        for (a, b) in native.column(0).iter().zip(tens.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn traversal_matches_native_trained_gbm() {
        let (x, y) = dataset(200, 4);
        let gb = train_gradient_boosting(&x, &y, &BoostingConfig::default()).unwrap();
        let compiled = compile_ensemble(&gb, Strategy::TreeTraversal).unwrap();
        let native = gb.predict(&x).unwrap();
        let tens = compiled.predict(&x).unwrap();
        for (a, b) in native.column(0).iter().zip(tens.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn linear_compilation_matches() {
        let m = LogisticRegressionModel {
            weights: vec![0.5, -1.0],
            intercept: 0.2,
        };
        let compiled = compile_logistic(&m);
        let x = Matrix::from_columns(&[vec![1.0, -1.0], vec![0.0, 2.0]]).unwrap();
        let native = m.predict_proba(&x).unwrap();
        let tens = compiled.predict(&x).unwrap();
        for (a, b) in native.column(0).iter().zip(tens.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(compiled.strategy(), None);
    }

    #[test]
    fn compile_operator_dispatch() {
        let op = Operator::TreeEnsemble(example_ensemble());
        assert!(compile_operator(&op, Strategy::Gemm).is_ok());
        let op = Operator::LinearRegression(LinearRegressionModel {
            weights: vec![1.0],
            intercept: 0.0,
        });
        assert!(compile_operator(&op, Strategy::Gemm).is_ok());
        let op = Operator::Concat;
        assert!(compile_operator(&op, Strategy::Gemm).is_err());
    }

    #[test]
    fn flops_and_bytes_scale_with_model_size() {
        let (x, y) = dataset(100, 4);
        let small = train_gradient_boosting(
            &x,
            &y,
            &BoostingConfig {
                n_estimators: 5,
                max_depth: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let big = train_gradient_boosting(
            &x,
            &y,
            &BoostingConfig {
                n_estimators: 50,
                max_depth: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let cs = compile_ensemble(&small, Strategy::Gemm).unwrap();
        let cb = compile_ensemble(&big, Strategy::Gemm).unwrap();
        assert!(cb.flops(1000) > cs.flops(1000));
        assert!(cb.parameter_bytes() > cs.parameter_bytes());
    }

    #[test]
    fn width_check_rejects_narrow_input() {
        let ens = example_ensemble();
        let compiled = compile_ensemble(&ens, Strategy::Gemm).unwrap();
        let narrow = Matrix::from_columns(&[vec![1.0]]).unwrap();
        assert!(compiled.predict(&narrow).is_err());
    }

    #[test]
    fn feature_out_of_range_rejected_at_compile_time() {
        let mut ens = example_ensemble();
        ens.n_features = 1; // tree uses feature 1 → invalid
        assert!(compile_ensemble(&ens, Strategy::Gemm).is_err());
    }
}
