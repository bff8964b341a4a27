//! Statistics-driven cost model for join planning.
//!
//! Selinger-style cardinality estimation (Selinger et al. 1979) over the
//! column statistics the catalog already maintains: scan estimates come from
//! table row counts, filter selectivities from min/max ranges and distinct
//! counts under the classical uniformity assumption, and equi-join output
//! cardinalities from NDV-based containment —
//! `|A ⋈ B| ≈ |A|·|B| / max(ndv_A(key), ndv_B(key))`. The estimates drive
//! [`crate::join_reorder`] (join-order search) and the physical hash join's
//! build-side selection and table pre-sizing.

use crate::catalog::Catalog;
use crate::domain::half_line;
use crate::expr::{BinaryOp, Expr};
use crate::logical::LogicalPlan;
use raven_columnar::ColumnStatistics;

/// Default selectivity for an equality predicate with no usable statistics.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity for an inequality/range predicate with no statistics.
const DEFAULT_RANGE_SELECTIVITY: f64 = 0.33;
/// Default selectivity for a predicate the model cannot decompose.
const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Assumed row count for tables missing from the catalog.
const DEFAULT_TABLE_ROWS: f64 = 1_000.0;

/// Cardinality estimator over catalog statistics.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
}

impl<'a> CostModel<'a> {
    /// Cost model reading statistics from `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        CostModel { catalog }
    }

    /// Estimated output row count of a plan.
    pub fn estimate_rows(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan { table, filters, .. } => {
                let rows = self
                    .catalog
                    .statistics(table)
                    .map(|s| s.row_count as f64)
                    .unwrap_or(DEFAULT_TABLE_ROWS);
                let sel: f64 = filters
                    .iter()
                    .map(|f| self.selectivity_in(f, plan))
                    .product();
                rows * sel
            }
            LogicalPlan::Filter { predicate, input } => {
                self.estimate_rows(input) * self.selectivity_in(predicate, input)
            }
            LogicalPlan::Projection { input, .. } => self.estimate_rows(input),
            LogicalPlan::Limit { n, input } => self.estimate_rows(input).min(*n as f64),
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                let l = self.estimate_rows(left);
                let r = self.estimate_rows(right);
                // NDV-based containment: each side's distinct key count is
                // capped at its estimated row count (a filter cannot leave
                // more distinct keys than rows) and floored at 1.
                let l_ndv = self.key_ndv(left, left_key).unwrap_or(l).min(l).max(1.0);
                let r_ndv = self.key_ndv(right, right_key).unwrap_or(r).min(r).max(1.0);
                (l * r / l_ndv.max(r_ndv)).max(0.0)
            }
            LogicalPlan::Aggregate {
                group_by, input, ..
            } => {
                let rows = self.estimate_rows(input);
                if group_by.is_empty() {
                    return 1.0;
                }
                let groups: f64 = group_by
                    .iter()
                    .map(|g| self.key_ndv(input, g).unwrap_or(rows).max(1.0))
                    .product();
                groups.min(rows)
            }
        }
    }

    /// The number of distinct values of `key` in the base table feeding
    /// `plan`'s `key` column, when statistics can resolve it. Renames through
    /// projections are followed; joins try both sides (a merged name that
    /// still resolves came through unrenamed).
    pub fn key_ndv(&self, plan: &LogicalPlan, key: &str) -> Option<f64> {
        match plan {
            LogicalPlan::Scan { table, .. } => self
                .catalog
                .statistics(table)
                .and_then(|s| s.column(key).map(|c| c.distinct_count as f64)),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                self.key_ndv(input, key)
            }
            LogicalPlan::Projection { exprs, input } => {
                let source = exprs.iter().find_map(|e| match e {
                    Expr::Column(c) if c == key => Some(c.as_str()),
                    Expr::Alias { expr, name } if name == key => match expr.as_ref() {
                        Expr::Column(c) => Some(c.as_str()),
                        _ => None,
                    },
                    _ => None,
                })?;
                self.key_ndv(input, source)
            }
            LogicalPlan::Join { left, right, .. } => {
                self.key_ndv(left, key).or_else(|| self.key_ndv(right, key))
            }
            LogicalPlan::Aggregate { .. } => None,
        }
    }

    /// Column statistics backing `column` of `plan`, when resolvable to a base
    /// table.
    fn column_stats(&self, plan: &LogicalPlan, column: &str) -> Option<ColumnStatistics> {
        match plan {
            LogicalPlan::Scan { table, .. } => self
                .catalog
                .statistics(table)
                .and_then(|s| s.column(column).cloned()),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
                self.column_stats(input, column)
            }
            LogicalPlan::Projection { exprs, input } => {
                let source = exprs.iter().find_map(|e| match e {
                    Expr::Column(c) if c == column => Some(c.clone()),
                    Expr::Alias { expr, name } if name == column => match expr.as_ref() {
                        Expr::Column(c) => Some(c.clone()),
                        _ => None,
                    },
                    _ => None,
                })?;
                self.column_stats(input, &source)
            }
            LogicalPlan::Join { left, right, .. } => self
                .column_stats(left, column)
                .or_else(|| self.column_stats(right, column)),
            LogicalPlan::Aggregate { .. } => None,
        }
    }

    /// Selectivity of `predicate` evaluated against the output of `input`.
    fn selectivity_in(&self, predicate: &Expr, input: &LogicalPlan) -> f64 {
        match predicate {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => self.selectivity_in(left, input) * self.selectivity_in(right, input),
            Expr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => {
                let a = self.selectivity_in(left, input);
                let b = self.selectivity_in(right, input);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            Expr::Not(e) => (1.0 - self.selectivity_in(e, input)).clamp(0.0, 1.0),
            _ => match predicate.as_column_literal_comparison() {
                Some((column, op, value)) => {
                    let stats = self.column_stats(input, column);
                    let eq = stats
                        .as_ref()
                        .and_then(|s| s.equality_selectivity())
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY);
                    match op {
                        BinaryOp::Eq => eq,
                        BinaryOp::NotEq => (1.0 - eq).clamp(0.0, 1.0),
                        _ => value
                            .as_f64()
                            .and_then(|v| {
                                let range = half_line(op, v)?;
                                Some(stats.as_ref()?.interval()?.fraction(range))
                            })
                            .unwrap_or(DEFAULT_RANGE_SELECTIVITY),
                    }
                }
                None => DEFAULT_SELECTIVITY,
            },
        }
    }
}

/// Render a plan as an indented `EXPLAIN`-style string with the cost model's
/// estimated cardinality appended to every node — the observable trace of the
/// optimizer's chosen join order.
pub fn explain_with_estimates(plan: &LogicalPlan, catalog: &Catalog) -> String {
    fn fmt_node(plan: &LogicalPlan, cost: &CostModel, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let rows = cost.estimate_rows(plan);
        let label = match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
            } => {
                let mut s = format!("Scan: {table}");
                if let Some(p) = projection {
                    s.push_str(&format!(" projection=[{}]", p.join(", ")));
                }
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|f| f.to_string()).collect();
                    s.push_str(&format!(" filters=[{}]", fs.join(" AND ")));
                }
                s
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            LogicalPlan::Projection { exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(|e| e.output_name()).collect();
                format!("Projection: [{}]", es.join(", "))
            }
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => format!("Join: {left_key} = {right_key}"),
            LogicalPlan::Aggregate { group_by, .. } => {
                format!("Aggregate: group_by=[{}]", group_by.join(", "))
            }
            LogicalPlan::Limit { n, .. } => format!("Limit: {n}"),
        };
        out.push_str(&format!("{pad}{label} rows≈{rows:.0}\n"));
        for input in plan.inputs() {
            fmt_node(input, cost, indent + 1, out);
        }
    }
    let mut out = String::new();
    fmt_node(plan, &CostModel::new(catalog), 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use raven_columnar::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("fact")
                .add_i64("id", (0..1000).collect())
                .add_i64("dim_id", (0..1000).map(|i| i % 10).collect())
                .add_f64("x", (0..1000).map(|i| i as f64).collect())
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("dim")
                .add_i64("dim_id", (0..10).collect())
                .add_f64("w", (0..10).map(|i| i as f64).collect())
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn scan_and_filter_estimates() {
        let c = catalog();
        let cm = CostModel::new(&c);
        assert_eq!(cm.estimate_rows(&LogicalPlan::scan("fact")), 1000.0);

        // x uniform over [0, 999]: x < 100 covers ~10% of the range
        let filtered = LogicalPlan::scan("fact").filter(col("x").lt(lit(100.0)));
        let est = cm.estimate_rows(&filtered);
        assert!((est - 100.0).abs() < 5.0, "estimate {est}");

        // equality on a 10-NDV column selects ~1/10th
        let eq = LogicalPlan::scan("fact").filter(col("dim_id").eq(lit(3i64)));
        assert!((cm.estimate_rows(&eq) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_uses_ndv_containment() {
        let c = catalog();
        let cm = CostModel::new(&c);
        // FK join: 1000 × 10 / max(10, 10) = 1000
        let join = LogicalPlan::scan("fact").join(LogicalPlan::scan("dim"), "dim_id", "dim_id");
        assert!((cm.estimate_rows(&join) - 1000.0).abs() < 1e-9);
        assert_eq!(cm.key_ndv(&LogicalPlan::scan("dim"), "dim_id"), Some(10.0));
    }

    #[test]
    fn filtered_join_estimate_shrinks() {
        let c = catalog();
        let cm = CostModel::new(&c);
        let join = LogicalPlan::scan("fact").join(
            LogicalPlan::scan("dim").filter(col("w").lt(lit(1.0))),
            "dim_id",
            "dim_id",
        );
        // dim shrinks to ~1.1 rows; its NDV caps at that, so the join output
        // tracks the selective dim side instead of the full fact table.
        let est = cm.estimate_rows(&join);
        assert!(est < 250.0, "filtered-dim join should shrink, got {est}");
    }

    #[test]
    fn explain_renders_estimates() {
        let c = catalog();
        let plan = LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("dim"), "dim_id", "dim_id")
            .project(vec![col("x"), col("w")]);
        let s = explain_with_estimates(&plan, &c);
        assert!(s.contains("Join: dim_id = dim_id rows≈1000"), "{s}");
        assert!(s.contains("Scan: dim rows≈10"), "{s}");
    }
}
