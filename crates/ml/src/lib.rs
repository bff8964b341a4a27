//! # raven-ml
//!
//! The traditional-ML substrate of the Raven reproduction: the operator set of
//! the unified IR's ML side (featurizers, linear models, tree ensembles — the
//! operators §2.1 of the paper shows dominate enterprise pipelines), trained
//! pipelines as ONNX-like operator DAGs, model training (so pipelines are fit
//! on data exactly like the scikit-learn pipelines of §7), and a batch
//! inference runtime standing in for ONNX Runtime behind the data engine's
//! UDF boundary.
//!
//! Scoring runs compiled kernels by default: [`CompiledPipeline`] pairs a
//! validated pipeline with flattened tree arenas ([`FlatEnsemble`]) and —
//! whenever the shape allows — the fully fused featurize→score pass
//! ([`FusedPipeline`], see [`kernels`]). The interpreted operator graph
//! survives as the parity oracle ([`MlRuntime::run_batch`] over the bare
//! [`Pipeline`]) and the per-operator compiled path as the fusion baseline
//! ([`CompiledPipeline::per_operator`]).

pub mod builder;
pub mod compiled;
pub mod error;
pub mod frame;
pub mod kernels;
pub mod ops;
pub mod pipeline;
pub mod runtime;
pub mod train;

pub use builder::{train_pipeline, ModelType, PipelineSpec};
pub use compiled::CompiledPipeline;
pub use error::{MlError, Result};
pub use frame::{FrameValue, Matrix, StringMatrix};
pub use kernels::FusedPipeline;
pub use ops::{
    format_numeric_category, sigmoid, Binarizer, CategoryTable, ConstantNode, EnsembleKind,
    FeatureExtractor, FlatEnsemble, Imputer, LabelEncoder, LinearRegressionModel, LinearSvmModel,
    LogisticRegressionModel, Norm, Normalizer, OneHotEncoder, Operator, OperatorCategory, Scaler,
    Tree, TreeEnsemble, TreeNode,
};
pub use pipeline::{InputKind, Pipeline, PipelineInput, PipelineNode};
pub use runtime::{
    bind_batch, bind_batch_gather, column_to_frame, column_to_frame_gather, MlRuntime,
    RuntimeConfig,
};
pub use train::{
    accuracy, fit_one_hot, fit_standard_scaler, train_decision_tree,
    train_decision_tree_classifier, train_gradient_boosting, train_linear_regression,
    train_logistic_regression, train_random_forest, BoostingConfig, ForestConfig, LinearConfig,
    TreeConfig, TreeTask,
};
