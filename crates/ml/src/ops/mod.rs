//! The ML operator set of Raven's unified IR (paper §3): featurizers, linear
//! models, and tree ensembles, with a single [`Operator`] enum for dispatch.

pub mod featurizer;
pub mod flat;
pub mod linear;
pub mod tree;

pub use featurizer::{
    concat, format_numeric_category, Binarizer, CategoryTable, ConstantNode, FeatureExtractor,
    Imputer, LabelEncoder, Norm, Normalizer, OneHotEncoder, Scaler,
};
pub use flat::{FlatEnsemble, BLOCK};
pub use linear::{sigmoid, LinearRegressionModel, LinearSvmModel, LogisticRegressionModel};
pub use tree::{EnsembleKind, Tree, TreeEnsemble, TreeNode};

use crate::error::{MlError, Result};
use crate::frame::FrameValue;
use serde::{Deserialize, Serialize};

/// Every ML operator supported by the pipeline graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operator {
    /// Affine scaler `(x - offset) * scale`.
    Scaler(Scaler),
    /// One-hot encoder over a single categorical input.
    OneHotEncoder(OneHotEncoder),
    /// Label encoder over a single categorical input.
    LabelEncoder(LabelEncoder),
    /// Missing-value imputer.
    Imputer(Imputer),
    /// Thresholding binarizer.
    Binarizer(Binarizer),
    /// Row-wise normalizer.
    Normalizer(Normalizer),
    /// Horizontal concatenation of numeric inputs.
    Concat,
    /// Column selection over a numeric input.
    FeatureExtractor(FeatureExtractor),
    /// Constant feature column(s).
    Constant(ConstantNode),
    /// Linear regression.
    LinearRegression(LinearRegressionModel),
    /// Binary logistic regression (outputs the positive-class probability).
    LogisticRegression(LogisticRegressionModel),
    /// Linear SVM (outputs the decision value).
    LinearSvm(LinearSvmModel),
    /// Decision tree / random forest / gradient boosting.
    TreeEnsemble(TreeEnsemble),
}

/// Broad operator families, used by the optimizer strategies and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OperatorCategory {
    /// Data featurizers (scalers, encoders, imputers, ...).
    Featurizer,
    /// Structural operators (concat, feature extractor, constant).
    Structural,
    /// Linear models.
    LinearModel,
    /// Tree-based models.
    TreeModel,
}

impl Operator {
    /// A short, stable operator name (used in stats and display).
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Scaler(_) => "Scaler",
            Operator::OneHotEncoder(_) => "OneHotEncoder",
            Operator::LabelEncoder(_) => "LabelEncoder",
            Operator::Imputer(_) => "Imputer",
            Operator::Binarizer(_) => "Binarizer",
            Operator::Normalizer(_) => "Normalizer",
            Operator::Concat => "Concat",
            Operator::FeatureExtractor(_) => "FeatureExtractor",
            Operator::Constant(_) => "Constant",
            Operator::LinearRegression(_) => "LinearRegression",
            Operator::LogisticRegression(_) => "LogisticRegression",
            Operator::LinearSvm(_) => "LinearSVM",
            Operator::TreeEnsemble(e) => match e.kind {
                EnsembleKind::DecisionTreeClassifier => "DecisionTreeClassifier",
                EnsembleKind::DecisionTreeRegressor => "DecisionTreeRegressor",
                EnsembleKind::RandomForestClassifier => "RandomForestClassifier",
                EnsembleKind::GradientBoostingClassifier => "GradientBoostingClassifier",
                EnsembleKind::GradientBoostingRegressor => "GradientBoostingRegressor",
            },
        }
    }

    /// The operator's category.
    pub fn category(&self) -> OperatorCategory {
        match self {
            Operator::Scaler(_)
            | Operator::OneHotEncoder(_)
            | Operator::LabelEncoder(_)
            | Operator::Imputer(_)
            | Operator::Binarizer(_)
            | Operator::Normalizer(_) => OperatorCategory::Featurizer,
            Operator::Concat | Operator::FeatureExtractor(_) | Operator::Constant(_) => {
                OperatorCategory::Structural
            }
            Operator::LinearRegression(_)
            | Operator::LogisticRegression(_)
            | Operator::LinearSvm(_) => OperatorCategory::LinearModel,
            Operator::TreeEnsemble(_) => OperatorCategory::TreeModel,
        }
    }

    /// Whether this operator is a model (produces the prediction) rather than
    /// a featurizer / structural node.
    pub fn is_model(&self) -> bool {
        matches!(
            self.category(),
            OperatorCategory::LinearModel | OperatorCategory::TreeModel
        )
    }

    /// Validate the operator's trained parameters. Currently checks tree
    /// ensembles for out-of-range feature indices (which the row walker
    /// would otherwise silently score as NaN); called by
    /// [`crate::Pipeline::validate`], so malformed models are rejected when
    /// a pipeline is built or registered, not at scoring time.
    pub fn validate(&self) -> Result<()> {
        match self {
            Operator::TreeEnsemble(e) => e.validate_features(),
            _ => Ok(()),
        }
    }

    /// Apply the operator to its inputs. `rows` is the batch row count (needed
    /// by source-like operators such as [`Operator::Constant`]).
    pub fn apply(&self, inputs: &[&FrameValue], rows: usize) -> Result<FrameValue> {
        let single_numeric = |idx: usize| -> Result<&crate::frame::Matrix> {
            inputs
                .get(idx)
                .ok_or_else(|| MlError::MissingInput(format!("{} input {idx}", self.name())))?
                .as_numeric()
        };
        match self {
            Operator::Scaler(op) => Ok(FrameValue::Numeric(op.transform(single_numeric(0)?)?)),
            Operator::OneHotEncoder(op) => {
                let input = inputs
                    .first()
                    .ok_or_else(|| MlError::MissingInput("OneHotEncoder input".into()))?;
                Ok(FrameValue::Numeric(op.transform(input)?))
            }
            Operator::LabelEncoder(op) => {
                let input = inputs
                    .first()
                    .ok_or_else(|| MlError::MissingInput("LabelEncoder input".into()))?;
                Ok(FrameValue::Numeric(op.transform(input)?))
            }
            Operator::Imputer(op) => Ok(FrameValue::Numeric(op.transform(single_numeric(0)?)?)),
            Operator::Binarizer(op) => Ok(FrameValue::Numeric(op.transform(single_numeric(0)?))),
            Operator::Normalizer(op) => Ok(FrameValue::Numeric(op.transform(single_numeric(0)?))),
            Operator::Concat => Ok(FrameValue::Numeric(concat(inputs)?)),
            Operator::FeatureExtractor(op) => {
                Ok(FrameValue::Numeric(op.transform(single_numeric(0)?)?))
            }
            Operator::Constant(op) => Ok(FrameValue::Numeric(op.materialize(rows))),
            Operator::LinearRegression(m) => {
                Ok(FrameValue::Numeric(m.predict(single_numeric(0)?)?))
            }
            Operator::LogisticRegression(m) => {
                Ok(FrameValue::Numeric(m.predict_proba(single_numeric(0)?)?))
            }
            Operator::LinearSvm(m) => Ok(FrameValue::Numeric(
                m.decision_function(single_numeric(0)?)?,
            )),
            Operator::TreeEnsemble(m) => Ok(FrameValue::Numeric(m.predict(single_numeric(0)?)?)),
        }
    }

    /// Number of output feature columns, given the widths of the inputs.
    pub fn output_width(&self, input_widths: &[usize]) -> usize {
        match self {
            Operator::Scaler(op) => op.width(),
            Operator::Imputer(op) => op.fill.len(),
            Operator::Binarizer(_) | Operator::Normalizer(_) => input_widths.iter().sum(),
            Operator::OneHotEncoder(op) => op.width(),
            Operator::LabelEncoder(_) => 1,
            Operator::Concat => input_widths.iter().sum(),
            Operator::FeatureExtractor(op) => op.indices.len(),
            Operator::Constant(op) => op.values.len(),
            Operator::LinearRegression(_)
            | Operator::LogisticRegression(_)
            | Operator::LinearSvm(_)
            | Operator::TreeEnsemble(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Matrix, StringMatrix};

    #[test]
    fn names_and_categories() {
        assert_eq!(Operator::Concat.name(), "Concat");
        assert_eq!(Operator::Concat.category(), OperatorCategory::Structural);
        let lr = Operator::LogisticRegression(LogisticRegressionModel {
            weights: vec![1.0],
            intercept: 0.0,
        });
        assert_eq!(lr.category(), OperatorCategory::LinearModel);
        assert!(lr.is_model());
        let sc = Operator::Scaler(Scaler::identity(2));
        assert!(!sc.is_model());
        assert_eq!(sc.category(), OperatorCategory::Featurizer);
        let dt = Operator::TreeEnsemble(TreeEnsemble::single_tree(Tree::leaf(1.0), 1));
        assert_eq!(dt.name(), "DecisionTreeClassifier");
    }

    #[test]
    fn apply_dispatch() {
        let rows = 2;
        let numeric = FrameValue::Numeric(Matrix::from_column(&[1.0, 2.0]));
        let strings = FrameValue::Strings(StringMatrix::from_column(&["a".into(), "b".into()]));

        let scaler = Operator::Scaler(Scaler {
            offsets: vec![1.0],
            scales: vec![2.0],
        });
        let out = scaler.apply(&[&numeric], rows).unwrap();
        assert_eq!(out.as_numeric().unwrap().column(0), vec![0.0, 2.0]);

        let ohe = Operator::OneHotEncoder(OneHotEncoder {
            categories: vec!["a".into(), "b".into()],
        });
        let out = ohe.apply(&[&strings], rows).unwrap();
        assert_eq!(out.cols(), 2);

        let cat = Operator::Concat;
        let out = cat.apply(&[&numeric, &numeric], rows).unwrap();
        assert_eq!(out.cols(), 2);

        let c = Operator::Constant(ConstantNode { values: vec![5.0] });
        let out = c.apply(&[], rows).unwrap();
        assert_eq!(out.rows(), 2);

        // missing inputs produce errors rather than panics
        assert!(scaler.apply(&[], rows).is_err());
        assert!(ohe.apply(&[], rows).is_err());
    }

    #[test]
    fn output_width_computation() {
        assert_eq!(Operator::Concat.output_width(&[2, 3]), 5);
        assert_eq!(
            Operator::OneHotEncoder(OneHotEncoder {
                categories: vec!["a".into(), "b".into(), "c".into()]
            })
            .output_width(&[1]),
            3
        );
        assert_eq!(
            Operator::FeatureExtractor(FeatureExtractor {
                indices: vec![0, 2]
            })
            .output_width(&[5]),
            2
        );
        assert_eq!(Operator::Scaler(Scaler::identity(4)).output_width(&[4]), 4);
        assert_eq!(
            Operator::TreeEnsemble(TreeEnsemble::single_tree(Tree::leaf(0.0), 3))
                .output_width(&[3]),
            1
        );
    }
}
