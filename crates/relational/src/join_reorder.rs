//! Cost-based join reordering.
//!
//! Collects the equi-join graph of each contiguous join region in a logical
//! plan, picks a smallest-intermediate-first order from the
//! [`CostModel`]'s cardinality estimates (exhaustive Selinger-style DP when
//! the region joins ≤ 6 relations onto the probe root, greedy beyond that),
//! and rebuilds the region left-deep in that order.
//!
//! Two invariants make the rewrite a drop-in replacement for the as-written
//! plan (`OptimizerOptions::join_reordering = false` keeps the baseline):
//!
//! * **Row order.** The as-written leftmost leaf stays the probe root, so the
//!   output row order follows the same driving relation; with unique build
//!   keys (the PK-FK star schemas this targets) the output is bit-identical.
//!   Regions under a `Limit` are never reordered at all.
//! * **Schema.** `Schema::merge` renames collide-able right columns with
//!   `"r."` prefixes, so a different join order produces different merged
//!   names. The rewrite tracks each leaf column's merged name in both trees
//!   and restores the original names (and column set) with one zero-copy
//!   projection above the region.

use crate::catalog::Catalog;
use crate::cost::CostModel;
use crate::error::Result;
use crate::expr::col;
use crate::logical::LogicalPlan;
use std::collections::{BTreeSet, HashSet};

/// Reorder every join region of `plan` cost-based. Plans whose join keys
/// cannot be resolved against the leaf schemas are left as written.
pub fn reorder_joins(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    reorder_impl(plan, None, catalog)
}

fn reorder_impl(
    plan: LogicalPlan,
    required: Option<BTreeSet<String>>,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Projection { exprs, input } => {
            let mut req = BTreeSet::new();
            for e in &exprs {
                req.extend(e.referenced_columns());
            }
            let input = reorder_impl(*input, Some(req), catalog)?;
            Ok(LogicalPlan::Projection {
                exprs,
                input: Box::new(input),
            })
        }
        LogicalPlan::Filter { predicate, input } => {
            let req = required.map(|mut r| {
                r.extend(predicate.referenced_columns());
                r
            });
            let input = reorder_impl(*input, req, catalog)?;
            Ok(LogicalPlan::Filter {
                predicate,
                input: Box::new(input),
            })
        }
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => {
            let mut req = BTreeSet::new();
            req.extend(group_by.iter().cloned());
            for a in &aggregates {
                req.extend(a.arg.referenced_columns());
            }
            let input = reorder_impl(*input, Some(req), catalog)?;
            Ok(LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input: Box::new(input),
            })
        }
        // "first n rows" depends on the input row order; keep everything
        // below a limit as written
        LogicalPlan::Limit { .. } => Ok(plan),
        LogicalPlan::Join { .. } => reorder_region(plan, required, catalog),
        other => Ok(other),
    }
}

/// One leaf column with the name it carries in a join tree's merged output
/// ([`raven_columnar::Schema::merge`] renames collisions with `"r."`
/// prefixes, so the merged name depends on the join order).
#[derive(Debug, Clone)]
struct MappedCol {
    leaf: usize,
    column: String,
    merged: String,
}

/// One equi-join edge of the region, resolved to leaf endpoints.
#[derive(Debug, Clone)]
struct JoinEdge {
    a: usize,
    a_col: String,
    b: usize,
    b_col: String,
}

impl JoinEdge {
    /// The (in-set leaf, in-set column, new-leaf column) triple when this
    /// edge connects leaf `x` to a set tested by `in_set`.
    fn connects<'a>(
        &'a self,
        x: usize,
        in_set: &dyn Fn(usize) -> bool,
    ) -> Option<(usize, &'a str, &'a str)> {
        if self.a == x && in_set(self.b) {
            Some((self.b, &self.b_col, &self.a_col))
        } else if self.b == x && in_set(self.a) {
            Some((self.a, &self.a_col, &self.b_col))
        } else {
            None
        }
    }
}

/// Simulate `Schema::merge(left, right, "r")` on column mappings.
fn merge_maps(left: Vec<MappedCol>, right: Vec<MappedCol>) -> Vec<MappedCol> {
    let mut taken: HashSet<String> = left.iter().map(|m| m.merged.clone()).collect();
    let mut out = left;
    for mut m in right {
        let mut name = m.merged;
        while taken.contains(&name) {
            name = format!("r.{name}");
        }
        taken.insert(name.clone());
        m.merged = name;
        out.push(m);
    }
    out
}

/// Collect the contiguous join region rooted at `plan`: leaves (any non-join
/// node, recursively reordered on its own), edges resolved to leaf columns,
/// and the mapping from leaf columns to the region's merged output names.
/// `None` when a join key cannot be resolved (leave the plan as written).
fn collect_region(
    plan: &LogicalPlan,
    leaves: &mut Vec<LogicalPlan>,
    edges: &mut Vec<JoinEdge>,
    catalog: &Catalog,
) -> Result<Option<Vec<MappedCol>>> {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let Some(lmap) = collect_region(left, leaves, edges, catalog)? else {
                return Ok(None);
            };
            let Some(rmap) = collect_region(right, leaves, edges, catalog)? else {
                return Ok(None);
            };
            // first match mirrors the executor's column_by_name resolution
            let Some(l) = lmap.iter().find(|m| m.merged == *left_key) else {
                return Ok(None);
            };
            let Some(r) = rmap.iter().find(|m| m.merged == *right_key) else {
                return Ok(None);
            };
            edges.push(JoinEdge {
                a: l.leaf,
                a_col: l.column.clone(),
                b: r.leaf,
                b_col: r.column.clone(),
            });
            Ok(Some(merge_maps(lmap, rmap)))
        }
        other => {
            let idx = leaves.len();
            // a leaf may hold further join regions below a projection,
            // filter, or aggregate — reorder those independently (with no
            // outer requirement: the leaf's schema must survive intact)
            let leaf = reorder_impl(other.clone(), None, catalog)?;
            let schema = leaf.schema(catalog)?;
            leaves.push(leaf);
            Ok(Some(
                schema
                    .fields()
                    .iter()
                    .map(|f| MappedCol {
                        leaf: idx,
                        column: f.name().to_string(),
                        merged: f.name().to_string(),
                    })
                    .collect(),
            ))
        }
    }
}

fn reorder_region(
    plan: LogicalPlan,
    required: Option<BTreeSet<String>>,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    let mut leaves = Vec::new();
    let mut edges = Vec::new();
    let Some(orig_map) = collect_region(&plan, &mut leaves, &mut edges, catalog)? else {
        return Ok(plan);
    };
    let n = leaves.len();

    let cost = CostModel::new(catalog);
    let est: Vec<f64> = leaves.iter().map(|l| cost.estimate_rows(l)).collect();
    // per-edge endpoint NDVs (base-table distinct counts; estimated rows as
    // the fallback), capped by the endpoint's estimated rows in join_rows
    let ndv: Vec<(f64, f64)> = edges
        .iter()
        .map(|e| {
            (
                cost.key_ndv(&leaves[e.a], &e.a_col).unwrap_or(est[e.a]),
                cost.key_ndv(&leaves[e.b], &e.b_col).unwrap_or(est[e.b]),
            )
        })
        .collect();

    // estimated output rows of joining the current `rows`-sized set with leaf
    // `x` via edge `e` (NDV containment; see CostModel::estimate_rows)
    let join_rows = |rows: f64, x: usize, e: usize| -> f64 {
        let (a_ndv, b_ndv) = ndv[e];
        let (set_ndv, x_ndv) = if edges[e].a == x {
            (b_ndv, a_ndv)
        } else {
            (a_ndv, b_ndv)
        };
        let denom = set_ndv.min(rows).max(1.0).max(x_ndv.min(est[x]).max(1.0));
        (rows * est[x] / denom).max(0.0)
    };

    let Some(order) = choose_order(n, &est, &edges, &join_rows) else {
        return Ok(plan);
    };

    // rebuild left-deep in the chosen order, tracking merged names
    let leaf_map = |x: usize| -> Vec<MappedCol> {
        orig_map
            .iter()
            .filter(|m| m.leaf == x)
            .map(|m| MappedCol {
                leaf: x,
                column: m.column.clone(),
                merged: m.column.clone(),
            })
            .collect()
    };
    let root = order[0];
    let mut tree = leaves[root].clone();
    let mut new_map = leaf_map(root);
    let mut in_set = vec![false; n];
    in_set[root] = true;
    for &x in &order[1..] {
        let test = |y: usize| in_set[y];
        let Some((s_leaf, s_col, x_col)) = edges.iter().find_map(|e| e.connects(x, &test)) else {
            return Ok(plan);
        };
        let Some(left_key) = new_map
            .iter()
            .find(|m| m.leaf == s_leaf && m.column == s_col)
            .map(|m| m.merged.clone())
        else {
            return Ok(plan);
        };
        tree = tree.join(leaves[x].clone(), &left_key, x_col);
        new_map = merge_maps(new_map, leaf_map(x));
        in_set[x] = true;
    }

    if tree == plan {
        // as-written order chosen (and no leaf changed internally)
        return Ok(plan);
    }

    // restore the original merged names — and, when the consumer above told
    // us what it needs, only those columns, so projection pushdown still
    // narrows the scans below
    let restore: Vec<&MappedCol> = match &required {
        Some(req) => {
            let subset: Vec<&MappedCol> = orig_map
                .iter()
                .filter(|m| req.contains(&m.merged))
                .collect();
            if subset.is_empty() {
                orig_map.iter().collect()
            } else {
                subset
            }
        }
        None => orig_map.iter().collect(),
    };
    let mut exprs = Vec::with_capacity(restore.len());
    for m in restore {
        let Some(new_name) = new_map
            .iter()
            .find(|n| n.leaf == m.leaf && n.column == m.column)
            .map(|n| n.merged.clone())
        else {
            return Ok(plan);
        };
        exprs.push(if new_name == m.merged {
            col(new_name)
        } else {
            col(new_name).alias(m.merged.clone())
        });
    }
    Ok(tree.project(exprs))
}

/// Choose a join order: leaf indices starting with the pinned probe root 0
/// (the as-written driving relation — keeps output row order comparable and
/// the fact scan streaming), then smallest-estimated-intermediate-first.
/// Exhaustive DP when ≤ 6 relations join onto the root, greedy otherwise.
/// `None` when the join graph is disconnected (cross joins are never
/// introduced).
fn choose_order(
    n: usize,
    est: &[f64],
    edges: &[JoinEdge],
    join_rows: &dyn Fn(f64, usize, usize) -> f64,
) -> Option<Vec<usize>> {
    if n <= 7 {
        // Selinger-style DP over subsets of the non-root leaves: state =
        // (total intermediate-rows cost, current rows, order)
        let full: u32 = (1u32 << (n - 1)) - 1;
        let mut dp: Vec<Option<(f64, f64, Vec<usize>)>> = vec![None; (full as usize) + 1];
        dp[0] = Some((0.0, est[0], vec![0]));
        for mask in 0..=full {
            let Some((cost, rows, order)) = dp[mask as usize].clone() else {
                continue;
            };
            for x in 1..n {
                let bit = 1u32 << (x - 1);
                if mask & bit != 0 {
                    continue;
                }
                let in_set = |y: usize| y == 0 || mask & (1u32 << (y - 1)) != 0;
                let Some(e) = edges.iter().position(|e| e.connects(x, &in_set).is_some()) else {
                    continue;
                };
                let out = join_rows(rows, x, e);
                let new_cost = cost + out;
                let next = (mask | bit) as usize;
                if dp[next].as_ref().is_none_or(|(c, _, _)| new_cost < *c) {
                    let mut o = order.clone();
                    o.push(x);
                    dp[next] = Some((new_cost, out, o));
                }
            }
        }
        return dp[full as usize].take().map(|(_, _, o)| o);
    }

    let mut order = vec![0usize];
    let mut in_set = vec![false; n];
    in_set[0] = true;
    let mut rows = est[0];
    while order.len() < n {
        let mut best: Option<(f64, usize)> = None;
        for x in 0..n {
            if in_set[x] {
                continue;
            }
            let test = |y: usize| in_set[y];
            let Some(e) = edges.iter().position(|e| e.connects(x, &test).is_some()) else {
                continue;
            };
            let out = join_rows(rows, x, e);
            if best.is_none_or(|(b, _)| out < b) {
                best = Some((out, x));
            }
        }
        let (out, x) = best?;
        in_set[x] = true;
        order.push(x);
        rows = out;
    }
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::lit;
    use crate::physical::{ExecutionContext, Executor};
    use raven_columnar::TableBuilder;

    /// fact(100) ⋈ wide_dim(50) ⋈ tiny_dim(5, filtered): the selective tiny
    /// dim should join before the wide dim.
    fn star_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("fact")
                .add_i64("id", (0..100).collect())
                .add_i64("wd_id", (0..100).map(|i| i % 50).collect())
                .add_i64("td_id", (0..100).map(|i| i % 5).collect())
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("wide_dim")
                .add_i64("wd_id", (0..50).collect())
                .add_f64("w0", (0..50).map(|i| i as f64).collect())
                .add_f64("w1", (0..50).map(|i| i as f64 * 2.0).collect())
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("tiny_dim")
                .add_i64("td_id", (0..5).collect())
                .add_f64("t0", (0..5).map(|i| i as f64).collect())
                .build()
                .unwrap(),
        );
        c
    }

    fn star_plan() -> LogicalPlan {
        LogicalPlan::scan("fact")
            .join(LogicalPlan::scan("wide_dim"), "wd_id", "wd_id")
            .join(
                LogicalPlan::scan("tiny_dim").filter(col("t0").lt(lit(1.0))),
                "td_id",
                "td_id",
            )
    }

    #[test]
    fn selective_dim_joins_first() {
        let c = star_catalog();
        let reordered = reorder_joins(star_plan(), &c).unwrap();
        let s = reordered.display_indent();
        // the filtered tiny dim must join below (before) the wide dim
        let tiny = s.find("tiny_dim").unwrap();
        let wide = s.find("wide_dim").unwrap();
        assert!(
            tiny < wide,
            "selective dim should appear above the wide dim in the left-deep chain:\n{s}"
        );
    }

    #[test]
    fn reordering_preserves_schema_and_rows() {
        let c = star_catalog();
        let plan = star_plan();
        let reordered = reorder_joins(plan.clone(), &c).unwrap();
        assert_eq!(
            plan.schema(&c).unwrap().names(),
            reordered.schema(&c).unwrap().names()
        );
        // pin the as-written physical build side: this test isolates the
        // logical rewrite, whose pinned probe root preserves row order
        let ctx = ExecutionContext {
            cost_based_build_side: false,
            ..ExecutionContext::default()
        };
        let a = Executor::new().execute(&plan, &c, &ctx).unwrap();
        let b = Executor::new().execute(&reordered, &c, &ctx).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        // unique dim keys + pinned probe root ⇒ bit-identical row order
        for (ca, cb) in a.columns().iter().zip(b.columns().iter()) {
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn two_way_join_left_as_written() {
        let c = star_catalog();
        let plan = LogicalPlan::scan("fact").join(LogicalPlan::scan("wide_dim"), "wd_id", "wd_id");
        let reordered = reorder_joins(plan.clone(), &c).unwrap();
        assert_eq!(plan, reordered);
    }

    #[test]
    fn limit_pins_as_written_order() {
        let c = star_catalog();
        let plan = star_plan().limit(10);
        let reordered = reorder_joins(plan.clone(), &c).unwrap();
        assert_eq!(plan, reordered);
    }

    #[test]
    fn unresolvable_keys_leave_plan_as_written() {
        let mut c = star_catalog();
        // aggregate leaf: its output column names resolve, so reordering
        // still works; but a key missing from every leaf map bails
        c.register(
            TableBuilder::new("other")
                .add_i64("k", vec![1, 2])
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::scan("fact")),
            right: Box::new(LogicalPlan::scan("other")),
            left_key: "missing".into(),
            right_key: "k".into(),
        };
        let reordered = reorder_joins(plan.clone(), &c).unwrap();
        assert_eq!(plan, reordered);
    }

    #[test]
    fn required_columns_trim_restoring_projection() {
        let c = star_catalog();
        let plan = star_plan().project(vec![col("id"), col("t0")]);
        let reordered = reorder_joins(plan.clone(), &c).unwrap();
        assert_eq!(
            plan.schema(&c).unwrap().names(),
            reordered.schema(&c).unwrap().names()
        );
        let ctx = ExecutionContext {
            cost_based_build_side: false,
            ..ExecutionContext::default()
        };
        let a = Executor::new().execute(&plan, &c, &ctx).unwrap();
        let b = Executor::new().execute(&reordered, &c, &ctx).unwrap();
        for (ca, cb) in a.columns().iter().zip(b.columns().iter()) {
            assert_eq!(ca, cb);
        }
    }
}
