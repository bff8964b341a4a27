//! Relational scalar expressions.
//!
//! This is the expression language the MLtoSQL transformation targets: tree
//! models become nested `CASE WHEN` expressions, linear models and scalers
//! become arithmetic, and one-hot encoders become `CASE` over equality tests
//! (paper §5.1).

use raven_columnar::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOp {
    Add,
    Subtract,
    Multiply,
    Divide,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// Whether the operator produces a boolean result.
    pub fn is_predicate(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::And
                | BinaryOp::Or
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Subtract => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateFunction {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggregateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// A scalar expression evaluated row-wise over a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Boolean negation.
    Not(Box<Expr>),
    /// True when the argument is missing (NaN / empty string).
    IsNull(Box<Expr>),
    /// Searched CASE expression: the first WHEN whose condition holds wins.
    Case {
        when_then: Vec<(Expr, Expr)>,
        else_expr: Box<Expr>,
    },
    /// Cast to a target type (numeric widening / truncation, to-string).
    Cast { expr: Box<Expr>, to: DataType },
    /// Rename the output column of an expression.
    Alias { expr: Box<Expr>, name: String },
    /// A scalar math function (used by MLtoSQL for logistic links).
    ScalarFunction { func: ScalarFunc, arg: Box<Expr> },
}

/// Scalar math functions available in generated SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalarFunc {
    /// `EXP(x)`
    Exp,
    /// `LN(x)` (natural log; non-positive inputs yield NaN)
    Ln,
    /// `ABS(x)`
    Abs,
    /// `SQRT(x)`
    Sqrt,
}

impl fmt::Display for ScalarFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarFunc::Exp => "EXP",
            ScalarFunc::Ln => "LN",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Sqrt => "SQRT",
        };
        write!(f, "{s}")
    }
}

impl Expr {
    /// The output name of this expression when used in a projection.
    pub fn output_name(&self) -> String {
        match self {
            Expr::Column(name) => name.clone(),
            Expr::Alias { name, .. } => name.clone(),
            other => other.to_string(),
        }
    }

    /// The set of column names this expression reads.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Case {
                when_then,
                else_expr,
            } => {
                for (w, t) in when_then {
                    w.collect_columns(out);
                    t.collect_columns(out);
                }
                else_expr.collect_columns(out);
            }
            Expr::Cast { expr, .. } => expr.collect_columns(out),
            Expr::Alias { expr, .. } => expr.collect_columns(out),
            Expr::ScalarFunction { arg, .. } => arg.collect_columns(out),
        }
    }

    /// Number of nodes in the expression tree (a proxy for generated-SQL
    /// complexity; the optimizer strategies use it).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Column(_) | Expr::Literal(_) => 1,
            Expr::Binary { left, right, .. } => 1 + left.node_count() + right.node_count(),
            Expr::Not(e) | Expr::IsNull(e) => 1 + e.node_count(),
            Expr::Case {
                when_then,
                else_expr,
            } => {
                1 + when_then
                    .iter()
                    .map(|(w, t)| w.node_count() + t.node_count())
                    .sum::<usize>()
                    + else_expr.node_count()
            }
            Expr::Cast { expr, .. } => 1 + expr.node_count(),
            Expr::Alias { expr, .. } => 1 + expr.node_count(),
            Expr::ScalarFunction { arg, .. } => 1 + arg.node_count(),
        }
    }

    /// Split a conjunctive predicate into its AND-ed components.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.split_conjunction();
                out.extend(right.split_conjunction());
                out
            }
            other => vec![other],
        }
    }

    /// AND together a list of predicates (returns `true` literal when empty).
    pub fn conjunction(predicates: Vec<Expr>) -> Expr {
        predicates
            .into_iter()
            .reduce(|acc, p| acc.and(p))
            .unwrap_or(Expr::Literal(Value::Boolean(true)))
    }

    // ---- builder helpers -------------------------------------------------

    pub fn and(self, other: Expr) -> Expr {
        binary(self, BinaryOp::And, other)
    }
    pub fn or(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Or, other)
    }
    pub fn eq(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Eq, other)
    }
    pub fn not_eq(self, other: Expr) -> Expr {
        binary(self, BinaryOp::NotEq, other)
    }
    pub fn lt(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Lt, other)
    }
    pub fn lt_eq(self, other: Expr) -> Expr {
        binary(self, BinaryOp::LtEq, other)
    }
    pub fn gt(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Gt, other)
    }
    pub fn gt_eq(self, other: Expr) -> Expr {
        binary(self, BinaryOp::GtEq, other)
    }
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on Expr values
    pub fn add(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Add, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Subtract, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Multiply, other)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        binary(self, BinaryOp::Divide, other)
    }
    pub fn alias(self, name: impl Into<String>) -> Expr {
        Expr::Alias {
            expr: Box::new(self),
            name: name.into(),
        }
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast {
            expr: Box::new(self),
            to,
        }
    }
    /// `EXP(self)`.
    pub fn exp(self) -> Expr {
        Expr::ScalarFunction {
            func: ScalarFunc::Exp,
            arg: Box::new(self),
        }
    }
}

/// Construct a column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Construct a literal.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

/// Construct a binary expression.
pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// Construct a searched CASE expression.
pub fn case(when_then: Vec<(Expr, Expr)>, else_expr: Expr) -> Expr {
    Expr::Case {
        when_then,
        else_expr: Box::new(else_expr),
    }
}

impl fmt::Display for Expr {
    /// Renders the expression as a SQL-like string (used in EXPLAIN output and
    /// as the default output name of unaliased projection expressions).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "({e}) IS NULL"),
            Expr::Case {
                when_then,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (w, t) in when_then {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                write!(f, " ELSE {else_expr} END")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Alias { expr, name } => write!(f, "{expr} AS {name}"),
            Expr::ScalarFunction { func, arg } => write!(f, "{func}({arg})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        let e = col("age").gt(lit(60.0)).and(col("asthma").eq(lit(1i64)));
        assert_eq!(e.to_string(), "((age > 60) AND (asthma = 1))");
    }

    #[test]
    fn referenced_columns() {
        let e = case(
            vec![(col("a").gt(lit(1.0)), col("b"))],
            col("c").add(lit(2.0)),
        );
        let cols = e.referenced_columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn output_names() {
        assert_eq!(col("x").output_name(), "x");
        assert_eq!(col("x").add(lit(1.0)).alias("y").output_name(), "y");
        assert_eq!(lit(1i64).output_name(), "1");
    }

    #[test]
    fn split_and_rebuild_conjunction() {
        let e = col("a")
            .eq(lit(1i64))
            .and(col("b").gt(lit(2.0)))
            .and(col("c").lt(lit(3.0)));
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        let rebuilt = Expr::conjunction(parts.into_iter().cloned().collect());
        assert_eq!(rebuilt.split_conjunction().len(), 3);
        assert_eq!(
            Expr::conjunction(vec![]),
            Expr::Literal(Value::Boolean(true))
        );
    }

    #[test]
    fn column_literal_comparison_orientation() {
        let e = col("age").gt_eq(lit(30.0));
        let (c, op, v) = e.as_column_literal_comparison().unwrap();
        assert_eq!(c, "age");
        assert_eq!(op, BinaryOp::GtEq);
        assert_eq!(v, &Value::Float64(30.0));

        let flipped = lit(30.0).lt(col("age"));
        let (c, op, _) = flipped.as_column_literal_comparison().unwrap();
        assert_eq!(c, "age");
        assert_eq!(op, BinaryOp::Gt);

        assert!(col("a")
            .add(lit(1.0))
            .as_column_literal_comparison()
            .is_none());
        assert!(col("a")
            .and(col("b"))
            .as_column_literal_comparison()
            .is_none());
    }

    #[test]
    fn node_count_counts_all_nodes() {
        assert_eq!(col("a").node_count(), 1);
        assert_eq!(col("a").add(lit(1.0)).node_count(), 3);
        let c = case(vec![(col("a").gt(lit(0.0)), lit(1i64))], lit(0i64));
        assert_eq!(c.node_count(), 1 + 3 + 1 + 1);
    }

    #[test]
    fn predicate_classification() {
        assert!(BinaryOp::Eq.is_predicate());
        assert!(BinaryOp::And.is_predicate());
        assert!(!BinaryOp::Add.is_predicate());
    }
}
