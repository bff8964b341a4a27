//! # raven-relational
//!
//! A small vectorized relational engine: the "data engine" substrate that
//! plays the role Apache Spark and SQL Server play in the Raven paper. It
//! provides:
//!
//! * a scalar expression language ([`expr::Expr`]) including the `CASE WHEN`
//!   expressions that the MLtoSQL transformation targets,
//! * logical plans ([`logical::LogicalPlan`]) for scans, filters, projections,
//!   equi-joins, aggregates, and limits,
//! * a classical relational optimizer ([`optimizer::Optimizer`]) with
//!   predicate pushdown, projection pushdown, PK-FK join elimination,
//!   constant folding, and cost-based join reordering
//!   ([`join_reorder`], driven by the statistics-based [`cost::CostModel`]) —
//!   the host-engine optimizations Raven's cross-optimizations set up (paper
//!   §2.2, §4.1),
//! * a partition-parallel physical executor ([`physical::Executor`]) with a
//!   configurable degree of parallelism (the DOP knob of §7.1.2),
//!   cost-based hash-join build-side selection, and execution metrics
//!   (rows/bytes scanned, join build/probe work) used by the experiment
//!   harnesses,
//! * one interval domain for comparison predicates ([`domain`]): statistics
//!   partition pruning, the per-column box model pruning maps to feature
//!   space, and range selectivity.

pub mod catalog;
pub mod cost;
pub mod domain;
pub mod error;
pub mod eval;
pub mod expr;
pub mod join_reorder;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod prune;
pub mod verify;

pub use catalog::Catalog;
pub use cost::{explain_with_estimates, CostModel};
pub use domain::{may_satisfy, may_satisfy_all, ColumnBox, ColumnDomain};
pub use error::{RelationalError, Result};
pub use eval::{evaluate, evaluate_predicate, evaluate_selected, expr_data_type};
pub use expr::{binary, case, col, lit, AggregateFunction, BinaryOp, Expr, ScalarFunc};
pub use join_reorder::reorder_joins;
pub use logical::{AggregateExpr, LogicalPlan};
pub use optimizer::{fold_expr, Optimizer, OptimizerOptions};
pub use physical::{aggregate_items, ExecutionContext, ExecutionMetrics, Executor};
pub use verify::{
    baseline, check_plan, check_rewrite, conjunct_count, force_verify, verify_enabled, Baseline,
    VerifyError,
};
