//! MLtoSQL (paper §5.1): translate a trained pipeline into an equivalent SQL
//! scalar expression so the whole prediction query can run on the data engine
//! and never cross into the ML runtime. Linear models and scalers become
//! arithmetic, tree models and encoders become (nested) `CASE WHEN`
//! expressions, and logistic links use `EXP`. The conversion is all-or-nothing
//! like the paper's implementation: any unsupported operator fails the rule
//! and the pipeline stays on the ML runtime.

use crate::error::{RavenError, Result};
use raven_ml::{Operator, Pipeline, Tree, TreeEnsemble, TreeNode};
use raven_relational::{case, col, lit, Expr};
use std::collections::HashMap;

/// Translate a full pipeline into one SQL expression per output (the score).
/// Pipeline inputs are referenced as columns with their input names.
pub fn pipeline_to_sql(pipeline: &Pipeline) -> Result<Expr> {
    // value name → one expression per feature column of that value
    let mut values: HashMap<&str, Vec<Expr>> = HashMap::new();
    for input in &pipeline.inputs {
        values.insert(input.name.as_str(), vec![col(&input.name)]);
    }
    for node in &pipeline.nodes {
        let mut input_exprs: Vec<Expr> = Vec::new();
        for name in &node.inputs {
            let exprs = values.get(name.as_str()).ok_or_else(|| {
                RavenError::RuleNotApplicable(format!("value {name} not available"))
            })?;
            input_exprs.extend(exprs.iter().cloned());
        }
        let outputs = operator_to_sql(&node.op, &input_exprs, node)?;
        values.insert(node.output.as_str(), outputs);
    }
    let out = values
        .get(pipeline.output.as_str())
        .ok_or_else(|| RavenError::RuleNotApplicable("pipeline output missing".into()))?;
    if out.len() != 1 {
        return Err(RavenError::RuleNotApplicable(format!(
            "pipeline output has {} columns, expected 1",
            out.len()
        )));
    }
    Ok(out[0].clone())
}

fn operator_to_sql(
    op: &Operator,
    inputs: &[Expr],
    node: &raven_ml::PipelineNode,
) -> Result<Vec<Expr>> {
    match op {
        Operator::Concat => Ok(inputs.to_vec()),
        Operator::FeatureExtractor(fe) => fe
            .indices
            .iter()
            .map(|&i| {
                inputs.get(i).cloned().ok_or_else(|| {
                    RavenError::RuleNotApplicable("feature extractor index out of range".into())
                })
            })
            .collect(),
        Operator::Constant(c) => Ok(c.values.iter().map(|&v| lit(v)).collect()),
        Operator::Scaler(s) => {
            if inputs.len() != s.width() {
                return Err(RavenError::RuleNotApplicable(format!(
                    "scaler width {} but {} inputs",
                    s.width(),
                    inputs.len()
                )));
            }
            Ok(inputs
                .iter()
                .enumerate()
                .map(|(i, e)| e.clone().sub(lit(s.offsets[i])).mul(lit(s.scales[i])))
                .collect())
        }
        Operator::Imputer(imp) => Ok(inputs
            .iter()
            .enumerate()
            .map(|(i, e)| {
                case(
                    vec![(
                        e.clone().is_null(),
                        lit(imp.fill.get(i).copied().unwrap_or(0.0)),
                    )],
                    e.clone(),
                )
            })
            .collect()),
        Operator::Binarizer(b) => Ok(inputs
            .iter()
            .map(|e| case(vec![(e.clone().gt(lit(b.threshold)), lit(1.0))], lit(0.0)))
            .collect()),
        Operator::OneHotEncoder(enc) => {
            let input = inputs.first().ok_or_else(|| {
                RavenError::RuleNotApplicable("one-hot encoder without input".into())
            })?;
            // The raw data column may be an integer or a string; compare with
            // the matching literal type so the generated SQL type-checks.
            Ok(enc
                .categories
                .iter()
                .map(|cat| {
                    let literal = match cat.parse::<i64>() {
                        Ok(i) => lit(i),
                        Err(_) => lit(cat.as_str()),
                    };
                    case(vec![(input.clone().eq(literal), lit(1.0))], lit(0.0))
                })
                .collect())
        }
        Operator::LabelEncoder(enc) => {
            let input = inputs.first().ok_or_else(|| {
                RavenError::RuleNotApplicable("label encoder without input".into())
            })?;
            let when_then = enc
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| (input.clone().eq(lit(c.as_str())), lit(i as f64)))
                .collect();
            Ok(vec![case(when_then, lit(-1.0))])
        }
        Operator::LinearRegression(m) => Ok(vec![linear_to_sql(&m.weights, m.intercept, inputs)?]),
        Operator::LogisticRegression(m) => {
            let z = linear_to_sql(&m.weights, m.intercept, inputs)?;
            Ok(vec![sigmoid_sql(z)])
        }
        Operator::LinearSvm(m) => Ok(vec![linear_to_sql(&m.weights, m.intercept, inputs)?]),
        Operator::TreeEnsemble(e) => Ok(vec![ensemble_to_sql(e, inputs)?]),
        Operator::Normalizer(_) => Err(RavenError::RuleNotApplicable(format!(
            "operator {} is not supported by MLtoSQL",
            node.op.name()
        ))),
    }
}

fn linear_to_sql(weights: &[f64], intercept: f64, inputs: &[Expr]) -> Result<Expr> {
    if inputs.len() != weights.len() {
        return Err(RavenError::RuleNotApplicable(format!(
            "linear model has {} weights but {} inputs",
            weights.len(),
            inputs.len()
        )));
    }
    let mut expr = lit(intercept);
    for (w, e) in weights.iter().zip(inputs.iter()) {
        if *w == 0.0 {
            continue; // regularization-induced sparsity: skip the column entirely
        }
        expr = expr.add(e.clone().mul(lit(*w)));
    }
    Ok(expr)
}

fn sigmoid_sql(z: Expr) -> Expr {
    // 1 / (1 + EXP(-z))
    lit(1.0).div(lit(1.0).add(lit(0.0).sub(z).exp()))
}

/// Convert a tree ensemble to SQL (nested CASE per tree, combined per the
/// ensemble semantics), as in the paper's §5.1 example.
pub fn ensemble_to_sql(ensemble: &TreeEnsemble, features: &[Expr]) -> Result<Expr> {
    if features.len() < ensemble.n_features {
        return Err(RavenError::RuleNotApplicable(format!(
            "ensemble expects {} features, got {}",
            ensemble.n_features,
            features.len()
        )));
    }
    let tree_exprs: Vec<Expr> = ensemble
        .trees
        .iter()
        .map(|t| tree_to_sql(t, features))
        .collect::<Result<Vec<_>>>()?;
    let sum = tree_exprs
        .into_iter()
        .reduce(|a, b| a.add(b))
        .unwrap_or_else(|| lit(0.0));
    use raven_ml::EnsembleKind::*;
    Ok(match ensemble.kind {
        DecisionTreeClassifier | DecisionTreeRegressor => sum,
        RandomForestClassifier => sum.div(lit(ensemble.trees.len().max(1) as f64)),
        GradientBoostingClassifier => {
            sigmoid_sql(lit(ensemble.base_score).add(sum.mul(lit(ensemble.learning_rate))))
        }
        GradientBoostingRegressor => {
            lit(ensemble.base_score).add(sum.mul(lit(ensemble.learning_rate)))
        }
    })
}

/// Convert one decision tree into a nested CASE expression via depth-first
/// traversal (paper §5.1).
pub fn tree_to_sql(tree: &Tree, features: &[Expr]) -> Result<Expr> {
    fn walk(tree: &Tree, idx: usize, features: &[Expr]) -> Result<Expr> {
        match &tree.nodes[idx] {
            TreeNode::Leaf { value } => Ok(lit(*value)),
            TreeNode::Branch {
                feature,
                threshold,
                left,
                right,
            } => {
                let f = features.get(*feature).cloned().ok_or_else(|| {
                    RavenError::RuleNotApplicable(format!(
                        "tree references feature {feature} outside the feature expressions"
                    ))
                })?;
                let left_expr = walk(tree, *left, features)?;
                let right_expr = walk(tree, *right, features)?;
                Ok(case(
                    vec![(f.lt_eq(lit(*threshold)), left_expr)],
                    right_expr,
                ))
            }
        }
    }
    walk(tree, tree.root, features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raven_columnar::TableBuilder;
    use raven_ml::{
        train_pipeline, InputKind, MlRuntime, ModelType, Norm, Normalizer, PipelineInput,
        PipelineNode, PipelineSpec,
    };
    use raven_relational::evaluate;

    fn training_batch(n: usize) -> raven_columnar::Batch {
        noisy_training_batch(n, 0.0)
    }

    /// [`training_batch`] with each label flipped with probability `flip`,
    /// so trees keep splitting down to their depth limit.
    fn noisy_training_batch(n: usize, flip: f64) -> raven_columnar::Batch {
        let mut rng = StdRng::seed_from_u64(21);
        let age: Vec<f64> = (0..n).map(|_| rng.gen_range(20.0..90.0)).collect();
        let income: Vec<f64> = (0..n).map(|_| rng.gen_range(10.0..200.0)).collect();
        let city: Vec<String> = (0..n)
            .map(|_| ["sea", "nyc", "sfo"][rng.gen_range(0..3)].to_string())
            .collect();
        let label: Vec<f64> = (0..n)
            .map(|i| {
                let v = 0.05 * (age[i] - 50.0)
                    + 0.01 * income[i]
                    + if city[i] == "sea" { 1.0 } else { 0.0 };
                let flipped = flip > 0.0 && rng.gen_bool(flip);
                if (v > 0.8) != flipped {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        TableBuilder::new("t")
            .add_f64("age", age)
            .add_f64("income", income)
            .add_utf8("city", city)
            .add_f64("label", label)
            .build_batch()
            .unwrap()
    }

    fn spec(model: ModelType) -> PipelineSpec {
        PipelineSpec {
            name: "sqltest".into(),
            numeric_inputs: vec!["age".into(), "income".into()],
            categorical_inputs: vec!["city".into()],
            label: "label".into(),
            model,
            seed: 5,
        }
    }

    fn assert_sql_matches_runtime(model: ModelType, tol: f64, batch: raven_columnar::Batch) {
        let pipeline = train_pipeline(&batch, &spec(model)).unwrap();
        let expr = pipeline_to_sql(&pipeline).unwrap();
        let sql_scores = evaluate(&expr, &batch).unwrap().to_f64_vec().unwrap();
        let rt_scores = MlRuntime::new().run_batch(&pipeline, &batch).unwrap();
        assert_eq!(sql_scores.len(), rt_scores.len());
        let mut max_err: f64 = 0.0;
        for (a, b) in sql_scores.iter().zip(rt_scores.iter()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(
            max_err <= tol,
            "max error {max_err} exceeds tolerance {tol}"
        );
    }

    #[test]
    fn logistic_regression_to_sql_matches() {
        assert_sql_matches_runtime(
            ModelType::LogisticRegression { l1_alpha: 0.01 },
            1e-9,
            training_batch(250),
        );
    }

    #[test]
    fn decision_tree_to_sql_matches() {
        assert_sql_matches_runtime(
            ModelType::DecisionTree { max_depth: 6 },
            1e-9,
            training_batch(250),
        );
    }

    #[test]
    fn random_forest_to_sql_matches() {
        assert_sql_matches_runtime(
            ModelType::RandomForest {
                n_trees: 5,
                max_depth: 4,
            },
            1e-9,
            training_batch(250),
        );
    }

    #[test]
    fn gradient_boosting_to_sql_matches() {
        assert_sql_matches_runtime(
            ModelType::GradientBoosting {
                n_estimators: 10,
                max_depth: 3,
                learning_rate: 0.2,
            },
            1e-9,
            training_batch(250),
        );
    }

    /// A depth-12 tree grown on noisy labels (over a thousand nodes) and
    /// scored on a few thousand rows: cheap when CASE arms run only on the
    /// rows that reach them, thousands of full-batch passes when every node
    /// is evaluated over every row, so a regression shows as a slow test.
    #[test]
    fn deep_decision_tree_to_sql_matches() {
        let batch = noisy_training_batch(4000, 0.3);
        assert_sql_matches_runtime(ModelType::DecisionTree { max_depth: 12 }, 1e-9, batch);
    }

    #[test]
    fn generated_sql_mentions_case_for_trees() {
        let batch = training_batch(150);
        let pipeline =
            train_pipeline(&batch, &spec(ModelType::DecisionTree { max_depth: 4 })).unwrap();
        let expr = pipeline_to_sql(&pipeline).unwrap();
        let sql = expr.to_string();
        assert!(sql.contains("CASE WHEN"));
        assert!(sql.contains("age"));
    }

    #[test]
    fn unsupported_operator_fails_whole_conversion() {
        let batch = training_batch(100);
        let mut pipeline =
            train_pipeline(&batch, &spec(ModelType::DecisionTree { max_depth: 3 })).unwrap();
        // splice a Normalizer between concat and model
        pipeline.nodes.insert(
            pipeline.nodes.len() - 1,
            PipelineNode {
                name: "norm".into(),
                op: raven_ml::Operator::Normalizer(Normalizer { norm: Norm::L2 }),
                inputs: vec!["features".into()],
                output: "normed".into(),
            },
        );
        let last = pipeline.nodes.len() - 1;
        pipeline.nodes[last].inputs = vec!["normed".into()];
        pipeline.validate().unwrap();
        assert!(matches!(
            pipeline_to_sql(&pipeline),
            Err(RavenError::RuleNotApplicable(_))
        ));
    }

    #[test]
    fn tree_sql_for_paper_example_shape() {
        // the paper's §5.1 example tree: F[0] > 60 / F[1] = 0 / F[2] = 1
        let tree = Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 0,
                    threshold: 60.0,
                    left: 2,
                    right: 1,
                },
                TreeNode::Branch {
                    feature: 1,
                    threshold: 0.5,
                    left: 3,
                    right: 4,
                },
                TreeNode::Branch {
                    feature: 2,
                    threshold: 0.5,
                    left: 6,
                    right: 5,
                },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 0.0 },
            ],
            root: 0,
        };
        let features = vec![col("f0"), col("f1"), col("f2")];
        let sql = tree_to_sql(&tree, &features).unwrap().to_string();
        assert_eq!(sql.matches("CASE WHEN").count(), 3);

        let missing = tree_to_sql(&tree, &[col("f0")]);
        assert!(missing.is_err());
    }

    #[test]
    fn input_kinds_remain_consistent() {
        // one-hot over integer-typed categorical column compares with integers
        let batch = TableBuilder::new("t")
            .add_f64("x", vec![1.0, 2.0, 3.0, 4.0])
            .add_i64("flag", vec![0, 1, 0, 1])
            .add_f64("label", vec![0.0, 1.0, 0.0, 1.0])
            .build_batch()
            .unwrap();
        let pipeline = train_pipeline(
            &batch,
            &PipelineSpec {
                name: "int_cat".into(),
                numeric_inputs: vec!["x".into()],
                categorical_inputs: vec!["flag".into()],
                label: "label".into(),
                model: ModelType::DecisionTree { max_depth: 3 },
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(
            pipeline
                .inputs
                .iter()
                .find(|i| i.name == "flag")
                .unwrap()
                .kind,
            InputKind::Categorical
        );
        let expr = pipeline_to_sql(&pipeline).unwrap();
        let sql_scores = evaluate(&expr, &batch).unwrap().to_f64_vec().unwrap();
        let rt_scores = MlRuntime::new().run_batch(&pipeline, &batch).unwrap();
        assert_eq!(sql_scores, rt_scores);
    }

    #[test]
    fn pipeline_input_expr_requires_defined_values() {
        let p = raven_ml::Pipeline::new(
            "broken",
            vec![PipelineInput {
                name: "x".into(),
                kind: InputKind::Numeric,
            }],
            vec![],
            "x",
        )
        .unwrap();
        // output is a raw input: fine, single expression
        assert!(pipeline_to_sql(&p).is_ok());
    }
}
