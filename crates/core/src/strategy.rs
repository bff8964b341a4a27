//! Data-driven optimization strategies (paper §5.2).
//!
//! The optimizer must pick, per trained pipeline, one of three evaluations:
//! leave the pipeline on the ML runtime (`None`), translate it to SQL
//! (`MLtoSQL`), or translate it to a tensor program for the DNN runtime /
//! GPU (`MLtoDNN`). The choice is learned from a benchmark corpus of
//! pipelines: an ML-informed rule-based strategy, a classification-based
//! strategy (random forest over the 22 statistics), and a regression-based
//! strategy that predicts the runtime of each option and picks the minimum.

use crate::error::{RavenError, Result};
use crate::stats::PipelineStats;
use raven_ml::{
    train_decision_tree, train_random_forest, EnsembleKind, ForestConfig, Matrix, Tree, TreeConfig,
    TreeEnsemble, TreeTask,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The logical-to-physical transformation applied to a trained pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransformChoice {
    /// Keep the pipeline on the ML runtime (cross-optimizations only).
    None,
    /// Translate the pipeline to SQL and run it on the data engine.
    MlToSql,
    /// Translate the pipeline to a tensor program (DNN runtime, possibly GPU).
    MlToDnn,
}

impl TransformChoice {
    /// All selectable choices, in a stable order.
    pub fn all() -> [TransformChoice; 3] {
        [
            TransformChoice::None,
            TransformChoice::MlToSql,
            TransformChoice::MlToDnn,
        ]
    }

    /// Stable class index used by the learned strategies.
    pub fn class_index(&self) -> usize {
        match self {
            TransformChoice::None => 0,
            TransformChoice::MlToSql => 1,
            TransformChoice::MlToDnn => 2,
        }
    }

    /// Inverse of [`TransformChoice::class_index`].
    pub fn from_class_index(i: usize) -> TransformChoice {
        match i {
            1 => TransformChoice::MlToSql,
            2 => TransformChoice::MlToDnn,
            _ => TransformChoice::None,
        }
    }

    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TransformChoice::None => "none",
            TransformChoice::MlToSql => "MLtoSQL",
            TransformChoice::MlToDnn => "MLtoDNN",
        }
    }
}

/// One benchmark observation: a pipeline's statistics plus the measured
/// runtime (seconds) of each transformation option.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyObservation {
    /// The pipeline's 22 statistics.
    pub stats: PipelineStats,
    /// Measured runtime per transformation choice.
    pub runtimes: BTreeMap<TransformChoice, f64>,
}

impl StrategyObservation {
    /// The optimal (minimum-runtime) choice of this observation.
    pub fn best_choice(&self) -> TransformChoice {
        self.runtimes
            .iter()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| *c)
            .unwrap_or(TransformChoice::None)
    }

    /// Runtime of a given choice (infinity when missing).
    pub fn runtime(&self, choice: TransformChoice) -> f64 {
        self.runtimes.get(&choice).copied().unwrap_or(f64::INFINITY)
    }
}

/// A corpus of observations used to train / evaluate strategies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StrategyCorpus {
    /// The observations.
    pub observations: Vec<StrategyObservation>,
}

impl StrategyCorpus {
    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Count of observations whose optimum is each choice (the class balance
    /// reported in §5.2).
    pub fn class_balance(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for o in &self.observations {
            *out.entry(o.best_choice().name()).or_insert(0) += 1;
        }
        out
    }

    fn feature_matrix(&self, indices: &[usize]) -> Matrix {
        let cols: Vec<Vec<f64>> = {
            let vectors: Vec<Vec<f64>> = indices
                .iter()
                .map(|&obs_idx| self.observations[obs_idx].stats.to_vector())
                .collect();
            let width = vectors.first().map(|v| v.len()).unwrap_or(0);
            (0..width)
                .map(|j| vectors.iter().map(|v| v[j]).collect())
                .collect()
        };
        Matrix::from_columns(&cols).expect("aligned feature columns")
    }
}

/// The strategy interface: given a pipeline's statistics, pick a transform.
pub trait OptimizationStrategy: std::fmt::Debug {
    /// Choose a transformation for a pipeline with these statistics.
    fn choose(&self, stats: &PipelineStats) -> TransformChoice;
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// ML-informed rule-based strategy
// ---------------------------------------------------------------------------

/// The ML-informed rule-based strategy: a deep decision tree is trained on the
/// corpus, its `k` most frequently split-on statistics are selected, and a
/// shallow tree over only those statistics becomes the rule (so no model needs
/// to be evaluated at optimization time beyond a couple of comparisons).
#[derive(Debug, Clone)]
pub struct RuleBasedStrategy {
    /// Indices (into the 22-feature vector) of the selected statistics.
    pub selected_features: Vec<usize>,
    shallow_tree: Tree,
}

impl RuleBasedStrategy {
    /// Train the rule from a corpus. `k` is the number of statistics kept
    /// (the paper uses k = 3).
    pub fn train(corpus: &StrategyCorpus, k: usize) -> Result<Self> {
        if corpus.is_empty() {
            return Err(RavenError::Config("empty strategy corpus".into()));
        }
        let all: Vec<usize> = (0..corpus.len()).collect();
        let x = corpus.feature_matrix(&all);
        // multi-class handled as best-class index regression targets for the
        // deep "feature discovery" tree and one-vs-rest shallow trees.
        let labels: Vec<f64> = corpus
            .observations
            .iter()
            .map(|o| o.best_choice().class_index() as f64)
            .collect();
        let deep = train_decision_tree(
            &x,
            &labels,
            &TreeConfig {
                max_depth: 8,
                task: TreeTask::Regression,
                ..Default::default()
            },
        )
        .map_err(|e| RavenError::Ml(e.to_string()))?;
        // feature importance = split frequency
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for f in deep_split_features(&deep) {
            *counts.entry(f).or_insert(0) += 1;
        }
        let mut ranked: Vec<(usize, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let selected: Vec<usize> = ranked.into_iter().take(k.max(1)).map(|(f, _)| f).collect();
        let selected = if selected.is_empty() {
            vec![0]
        } else {
            selected
        };

        let x_sel = select_columns(&x, &selected);
        let shallow = train_decision_tree(
            &x_sel,
            &labels,
            &TreeConfig {
                max_depth: 3,
                task: TreeTask::Regression,
                ..Default::default()
            },
        )
        .map_err(|e| RavenError::Ml(e.to_string()))?;
        Ok(RuleBasedStrategy {
            selected_features: selected,
            shallow_tree: shallow,
        })
    }

    /// Render the learned rule as human-readable text (the "if #features >
    /// 100 apply MLtoDNN ..." form of §5.2).
    pub fn describe(&self) -> String {
        let names = PipelineStats::feature_names();
        let selected: Vec<&str> = self
            .selected_features
            .iter()
            .map(|&i| names.get(i).copied().unwrap_or("?"))
            .collect();
        format!(
            "rule over statistics [{}], {} decision nodes",
            selected.join(", "),
            self.shallow_tree.node_count()
        )
    }
}

impl OptimizationStrategy for RuleBasedStrategy {
    fn choose(&self, stats: &PipelineStats) -> TransformChoice {
        let v = stats.to_vector();
        let row: Vec<f64> = self
            .selected_features
            .iter()
            .map(|&i| v.get(i).copied().unwrap_or(0.0))
            .collect();
        let class = self.shallow_tree.predict_row(&row).round().max(0.0) as usize;
        TransformChoice::from_class_index(class.min(2))
    }
    fn name(&self) -> &'static str {
        "ml-informed-rule-based"
    }
}

fn deep_split_features(tree: &Tree) -> Vec<usize> {
    tree.used_features().into_iter().collect()
}

fn select_columns(x: &Matrix, indices: &[usize]) -> Matrix {
    x.select_columns(indices).expect("valid selected features")
}

// ---------------------------------------------------------------------------
// Classification-based strategy
// ---------------------------------------------------------------------------

/// The classification-based strategy: a random-forest classifier over the 22
/// statistics predicting the best transformation directly (one-vs-rest).
#[derive(Debug, Clone)]
pub struct ClassificationStrategy {
    forests: Vec<(TransformChoice, TreeEnsemble)>,
}

impl ClassificationStrategy {
    /// Train from a corpus.
    pub fn train(corpus: &StrategyCorpus) -> Result<Self> {
        if corpus.is_empty() {
            return Err(RavenError::Config("empty strategy corpus".into()));
        }
        let all: Vec<usize> = (0..corpus.len()).collect();
        let x = corpus.feature_matrix(&all);
        let mut forests = Vec::new();
        for choice in TransformChoice::all() {
            let y: Vec<f64> = corpus
                .observations
                .iter()
                .map(|o| if o.best_choice() == choice { 1.0 } else { 0.0 })
                .collect();
            let forest = train_random_forest(
                &x,
                &y,
                &ForestConfig {
                    n_trees: 10,
                    tree: TreeConfig {
                        max_depth: 5,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .map_err(|e| RavenError::Ml(e.to_string()))?;
            forests.push((choice, forest));
        }
        Ok(ClassificationStrategy { forests })
    }
}

impl OptimizationStrategy for ClassificationStrategy {
    fn choose(&self, stats: &PipelineStats) -> TransformChoice {
        let row = stats.to_vector();
        self.forests
            .iter()
            .map(|(choice, forest)| (*choice, forest.predict_row(&row)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .unwrap_or(TransformChoice::None)
    }
    fn name(&self) -> &'static str {
        "classification-based"
    }
}

// ---------------------------------------------------------------------------
// Regression-based strategy
// ---------------------------------------------------------------------------

/// The regression-based strategy: a decision-tree regressor predicting
/// `log(runtime)` with the transformation one-hot encoded as extra features
/// (3× the training data, §5.2); at optimization time the predicted runtime
/// of each option is compared and the minimum wins.
#[derive(Debug, Clone)]
pub struct RegressionStrategy {
    tree: TreeEnsemble,
}

impl RegressionStrategy {
    /// Train from a corpus.
    pub fn train(corpus: &StrategyCorpus) -> Result<Self> {
        if corpus.is_empty() {
            return Err(RavenError::Config("empty strategy corpus".into()));
        }
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut y: Vec<f64> = Vec::new();
        for obs in &corpus.observations {
            for choice in TransformChoice::all() {
                let runtime = obs.runtime(choice);
                if !runtime.is_finite() {
                    continue;
                }
                let mut row = obs.stats.to_vector();
                for c in TransformChoice::all() {
                    row.push(if c == choice { 1.0 } else { 0.0 });
                }
                rows.push(row);
                y.push((runtime.max(1e-9)).ln());
            }
        }
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let cols: Vec<Vec<f64>> = (0..width)
            .map(|j| rows.iter().map(|r| r[j]).collect())
            .collect();
        let x = Matrix::from_columns(&cols).map_err(|e| RavenError::Ml(e.to_string()))?;
        let tree = train_decision_tree(
            &x,
            &y,
            &TreeConfig {
                max_depth: 8,
                task: TreeTask::Regression,
                ..Default::default()
            },
        )
        .map_err(|e| RavenError::Ml(e.to_string()))?;
        Ok(RegressionStrategy {
            tree: TreeEnsemble {
                kind: EnsembleKind::DecisionTreeRegressor,
                trees: vec![tree],
                n_features: width,
                learning_rate: 1.0,
                base_score: 0.0,
            },
        })
    }

    /// Predicted runtime (seconds) of a choice for a pipeline.
    pub fn predict_runtime(&self, stats: &PipelineStats, choice: TransformChoice) -> f64 {
        let mut row = stats.to_vector();
        for c in TransformChoice::all() {
            row.push(if c == choice { 1.0 } else { 0.0 });
        }
        self.tree.predict_row(&row).exp()
    }
}

impl OptimizationStrategy for RegressionStrategy {
    fn choose(&self, stats: &PipelineStats) -> TransformChoice {
        TransformChoice::all()
            .into_iter()
            .map(|c| (c, self.predict_runtime(stats, c)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .unwrap_or(TransformChoice::None)
    }
    fn name(&self) -> &'static str {
        "regression-based"
    }
}

// ---------------------------------------------------------------------------
// Evaluation helpers (Fig. 4)
// ---------------------------------------------------------------------------

/// Evaluate a strategy on a test split: classification accuracy against the
/// oracle choice, and "speedup optimality" — the total oracle runtime divided
/// by the total runtime of the strategy's picks (1.0 = optimal), the metric of
/// the paper's Fig. 4.
pub fn evaluate_strategy(
    strategy: &dyn OptimizationStrategy,
    test: &[&StrategyObservation],
) -> (f64, f64) {
    if test.is_empty() {
        return (0.0, 0.0);
    }
    let mut correct = 0usize;
    let mut chosen_total = 0.0;
    let mut optimal_total = 0.0;
    for obs in test {
        let choice = strategy.choose(&obs.stats);
        if choice == obs.best_choice() {
            correct += 1;
        }
        chosen_total += obs.runtime(choice).min(1e9);
        optimal_total += obs.runtime(obs.best_choice());
    }
    let accuracy = correct as f64 / test.len() as f64;
    let optimality = if chosen_total > 0.0 {
        optimal_total / chosen_total
    } else {
        0.0
    };
    (accuracy, optimality)
}

/// Stratified k-fold indices over the corpus (stratified by oracle class), as
/// used by the paper's 200-run evaluation.
pub fn stratified_folds(corpus: &StrategyCorpus, k: usize, seed: u64) -> Vec<Vec<usize>> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut by_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, o) in corpus.observations.iter().enumerate() {
        by_class
            .entry(o.best_choice().class_index())
            .or_default()
            .push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k.max(1)];
    for indices in by_class.values_mut() {
        indices.shuffle(&mut rng);
        for (pos, idx) in indices.iter().enumerate() {
            folds[pos % k.max(1)].push(*idx);
        }
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic corpus with a learnable structure: big ensembles are fastest
    /// on the DNN runtime, small/shallow trees with few features are fastest
    /// as SQL, everything else stays on the ML runtime.
    fn corpus(n: usize) -> StrategyCorpus {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut observations = Vec::new();
        for _ in 0..n {
            let n_trees: f64 = [1.0, 5.0, 20.0, 100.0, 500.0][rng.gen_range(0..5)];
            let depth: f64 = rng.gen_range(2.0..12.0);
            let n_features: f64 = rng.gen_range(5.0..500.0);
            let nodes = n_trees * (2.0f64.powf(depth.min(10.0)));
            let stats = PipelineStats {
                n_inputs: (n_features / 3.0).max(2.0),
                n_features,
                n_trees,
                mean_tree_depth: depth,
                max_tree_depth: depth,
                n_tree_nodes: nodes,
                is_tree_model: 1.0,
                n_operators: 4.0,
                ..Default::default()
            };
            // synthetic runtime model with noise
            let ml = 1.0 + 0.002 * nodes + rng.gen_range(0.0..0.1);
            let sql = 0.3 + 0.01 * nodes + rng.gen_range(0.0..0.1);
            let dnn = 2.5 + 0.0002 * nodes + rng.gen_range(0.0..0.1);
            let mut runtimes = BTreeMap::new();
            runtimes.insert(TransformChoice::None, ml);
            runtimes.insert(TransformChoice::MlToSql, sql);
            runtimes.insert(TransformChoice::MlToDnn, dnn);
            observations.push(StrategyObservation { stats, runtimes });
        }
        StrategyCorpus { observations }
    }

    #[test]
    fn choices_round_trip() {
        for c in TransformChoice::all() {
            assert_eq!(TransformChoice::from_class_index(c.class_index()), c);
        }
        assert_eq!(TransformChoice::MlToSql.name(), "MLtoSQL");
    }

    #[test]
    fn observation_best_choice() {
        let c = corpus(10);
        for o in &c.observations {
            let best = o.best_choice();
            for choice in TransformChoice::all() {
                assert!(o.runtime(best) <= o.runtime(choice) + 1e-12);
            }
        }
        assert!(!c.class_balance().is_empty());
    }

    #[test]
    fn strategies_beat_random_on_synthetic_corpus() {
        let c = corpus(150);
        let test_refs: Vec<&StrategyObservation> = c.observations.iter().collect();

        let rule = RuleBasedStrategy::train(&c, 3).unwrap();
        let (acc_rule, opt_rule) = evaluate_strategy(&rule, &test_refs);
        assert!(acc_rule > 0.6, "rule accuracy {acc_rule}");
        assert!(opt_rule > 0.7, "rule optimality {opt_rule}");
        assert!(!rule.describe().is_empty());
        assert!(rule.selected_features.len() <= 3);

        let cls = ClassificationStrategy::train(&c).unwrap();
        let (acc_cls, opt_cls) = evaluate_strategy(&cls, &test_refs);
        assert!(acc_cls > 0.7, "classification accuracy {acc_cls}");
        assert!(opt_cls > 0.8, "classification optimality {opt_cls}");

        let reg = RegressionStrategy::train(&c).unwrap();
        let (acc_reg, opt_reg) = evaluate_strategy(&reg, &test_refs);
        assert!(acc_reg > 0.6, "regression accuracy {acc_reg}");
        assert!(opt_reg > 0.7, "regression optimality {opt_reg}");
        // predicted runtimes are positive
        assert!(reg.predict_runtime(&c.observations[0].stats, TransformChoice::MlToSql) > 0.0);
    }

    #[test]
    fn stratified_folds_cover_all_observations() {
        let c = corpus(50);
        let folds = stratified_folds(&c, 5, 1);
        assert_eq!(folds.len(), 5);
        let total: usize = folds.iter().map(|f| f.len()).sum();
        assert_eq!(total, 50);
        let mut all: Vec<usize> = folds.into_iter().flatten().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn empty_corpus_rejected() {
        let empty = StrategyCorpus::default();
        assert!(RuleBasedStrategy::train(&empty, 3).is_err());
        assert!(ClassificationStrategy::train(&empty).is_err());
        assert!(RegressionStrategy::train(&empty).is_err());
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn evaluate_on_empty_test_set() {
        let c = corpus(20);
        let rule = RuleBasedStrategy::train(&c, 2).unwrap();
        assert_eq!(evaluate_strategy(&rule, &[]), (0.0, 0.0));
    }
}
