//! # raven-core
//!
//! The Raven optimizer — the paper's primary contribution. It consumes the
//! unified IR of a prediction query (`raven-ir`) and applies:
//!
//! * **logical cross-optimizations** (§4.1): predicate-based model pruning and
//!   model-projection pushdown,
//! * **data-induced optimizations** (§4.2): statistics- and partition-driven
//!   model pruning,
//! * **logical-to-physical runtime selection** (§5): MLtoSQL, MLtoDNN, and the
//!   data-driven strategies (rule-based, classification-based,
//!   regression-based) that pick between them,
//!
//! and executes the optimized query end to end via [`session::RavenSession`]
//! on the relational engine, the ML runtime, and the tensor/DNN runtime.

pub mod cross_opt;
pub mod data_induced;
pub mod error;
pub mod layout;
pub mod mltodnn;
pub mod mltosql;
pub mod session;
pub mod stats;
pub mod strategy;

pub use cross_opt::{
    apply_cross_optimizations, model_projection_pushdown, predicate_based_model_pruning,
    CrossOptReport,
};
pub use data_induced::{apply_global_data_induced, compile_partition_models, DataInducedReport};
pub use error::{RavenError, Result};
pub use layout::{FeatureLayout, InputMapping};
pub use mltodnn::{apply_ml_to_dnn, DnnPlan};
pub use mltosql::{ensemble_to_sql, pipeline_to_sql, tree_to_sql};
pub use session::{
    BaselineMode, ExecutionReport, PredictionOutput, PreparedStatement, RavenConfig, RavenSession,
    RecoveryInfo, RuntimePolicy,
};
pub use stats::PipelineStats;
pub use strategy::{
    evaluate_strategy, stratified_folds, ClassificationStrategy, OptimizationStrategy,
    RegressionStrategy, RuleBasedStrategy, StrategyCorpus, StrategyObservation, TransformChoice,
};
