//! Classical relational optimizations.
//!
//! The paper relies on the host engine (Spark / SQL Server) applying
//! projection pushdown, predicate pushdown, and join elimination *after*
//! Raven's cross-optimizations have pruned columns and predicates — e.g.
//! model-projection pushdown only pays off because the engine then pushes the
//! narrower projection below joins and all the way to the scans (§4.1, §7.1).
//! This module provides those host-engine optimizations.

use crate::catalog::Catalog;
use crate::error::Result;
use crate::expr::{BinaryOp, Expr};
use crate::logical::LogicalPlan;
use raven_columnar::Value;
use std::collections::BTreeSet;

/// Options controlling which rewrite rules run.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    /// Push projections down to scans (prune unused columns).
    pub projection_pushdown: bool,
    /// Push filter predicates below projections/joins and into scans.
    pub predicate_pushdown: bool,
    /// Remove joins whose non-preserved side contributes no columns and joins
    /// on a unique key (PK-FK join elimination).
    pub join_elimination: bool,
    /// Fold constant sub-expressions and simplify trivial boolean algebra.
    pub constant_folding: bool,
    /// Reorder multi-way equi-join regions smallest-intermediate-first using
    /// the statistics-driven [`crate::cost::CostModel`] (exhaustive DP for
    /// ≤ 6 joined relations, greedy beyond). Defaults to on; off keeps the
    /// as-written order, the parity baseline. Runs after join elimination so model-projection pruning can
    /// drop whole dimension joins before the order search sees them.
    pub join_reordering: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            projection_pushdown: true,
            predicate_pushdown: true,
            join_elimination: true,
            constant_folding: true,
            join_reordering: true,
        }
    }
}

/// The relational optimizer.
#[derive(Debug, Default)]
pub struct Optimizer {
    options: OptimizerOptions,
}

impl Optimizer {
    /// Optimizer with default (all rules enabled) options.
    pub fn new() -> Self {
        Optimizer::default()
    }

    /// Optimizer with explicit options.
    pub fn with_options(options: OptimizerOptions) -> Self {
        Optimizer { options }
    }

    /// Optimize a plan against a catalog.
    ///
    /// In debug builds (and under `RAVEN_VERIFY=strict` in release), every
    /// rule's output is checked by the static verifier ([`crate::verify`]):
    /// well-formed references, root schema preserved, no new relations, and
    /// conjunct conservation. A violation aborts optimization with a
    /// [`crate::verify::VerifyError`] naming the offending rule.
    pub fn optimize(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
        let mut verifier = crate::verify::Verifier::capture(plan, catalog);
        let mut plan = plan.clone();
        if self.options.constant_folding {
            plan = fold_constants(&plan);
            verifier.check("fold_constants", &plan, catalog)?;
        }
        if self.options.predicate_pushdown {
            plan = push_predicates(plan, catalog)?;
            verifier.check("push_predicates", &plan, catalog)?;
        }
        if self.options.join_elimination {
            plan = eliminate_joins(plan, catalog)?;
            verifier.check("eliminate_joins", &plan, catalog)?;
        }
        if self.options.join_reordering {
            plan = crate::join_reorder::reorder_joins(plan, catalog)?;
            verifier.check("reorder_joins", &plan, catalog)?;
        }
        if self.options.projection_pushdown {
            plan = push_projections(plan, catalog)?;
            verifier.check("push_projections", &plan, catalog)?;
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant sub-expressions in every expression of the plan.
pub fn fold_constants(plan: &LogicalPlan) -> LogicalPlan {
    map_expressions(plan, &fold_expr)
}

/// Fold constants in one expression and simplify trivial boolean identities.
pub fn fold_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Binary { left, op, right } => {
            let l = fold_expr(left);
            let r = fold_expr(right);
            // literal op literal → literal
            if let (Expr::Literal(a), Expr::Literal(b)) = (&l, &r) {
                if let Some(v) = eval_literal_binary(a, *op, b) {
                    return Expr::Literal(v);
                }
            }
            // boolean identities
            match op {
                BinaryOp::And => {
                    if is_true(&l) {
                        return r;
                    }
                    if is_true(&r) {
                        return l;
                    }
                    if is_false(&l) || is_false(&r) {
                        return Expr::Literal(Value::Boolean(false));
                    }
                }
                BinaryOp::Or => {
                    if is_false(&l) {
                        return r;
                    }
                    if is_false(&r) {
                        return l;
                    }
                    if is_true(&l) || is_true(&r) {
                        return Expr::Literal(Value::Boolean(true));
                    }
                }
                _ => {}
            }
            Expr::Binary {
                left: Box::new(l),
                op: *op,
                right: Box::new(r),
            }
        }
        Expr::Not(e) => {
            let inner = fold_expr(e);
            match &inner {
                Expr::Literal(Value::Boolean(b)) => Expr::Literal(Value::Boolean(!b)),
                _ => Expr::Not(Box::new(inner)),
            }
        }
        Expr::IsNull(e) => Expr::IsNull(Box::new(fold_expr(e))),
        Expr::Case {
            when_then,
            else_expr,
        } => {
            let mut new_when = Vec::new();
            for (w, t) in when_then {
                let w = fold_expr(w);
                if is_false(&w) {
                    continue; // branch can never fire
                }
                let t = fold_expr(t);
                let stop = is_true(&w);
                new_when.push((w, t));
                if stop {
                    // Later branches are unreachable: this branch becomes the ELSE.
                    let (_, t) = new_when.pop().expect("just pushed");
                    if new_when.is_empty() {
                        return t;
                    }
                    return Expr::Case {
                        when_then: new_when,
                        else_expr: Box::new(t),
                    };
                }
            }
            let else_expr = fold_expr(else_expr);
            if new_when.is_empty() {
                return else_expr;
            }
            Expr::Case {
                when_then: new_when,
                else_expr: Box::new(else_expr),
            }
        }
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(fold_expr(expr)),
            to: *to,
        },
        Expr::Alias { expr, name } => Expr::Alias {
            expr: Box::new(fold_expr(expr)),
            name: name.clone(),
        },
        Expr::ScalarFunction { func, arg } => Expr::ScalarFunction {
            func: *func,
            arg: Box::new(fold_expr(arg)),
        },
        other => other.clone(),
    }
}

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Boolean(true)))
}
fn is_false(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Value::Boolean(false)))
}

fn eval_literal_binary(a: &Value, op: BinaryOp, b: &Value) -> Option<Value> {
    match op {
        BinaryOp::And => Some(Value::Boolean(a.as_bool()? && b.as_bool()?)),
        BinaryOp::Or => Some(Value::Boolean(a.as_bool()? || b.as_bool()?)),
        BinaryOp::Add | BinaryOp::Subtract | BinaryOp::Multiply | BinaryOp::Divide => {
            // Integer arithmetic folds to an integer (matching both the
            // runtime evaluator and `expr_data_type`, so folding never
            // changes a plan's schema); overflow skips the fold. Division
            // always widens to float, as at runtime.
            if let (Value::Int64(x), Value::Int64(y)) = (a, b) {
                if op != BinaryOp::Divide {
                    let v = match op {
                        BinaryOp::Add => x.checked_add(*y),
                        BinaryOp::Subtract => x.checked_sub(*y),
                        _ => x.checked_mul(*y),
                    };
                    return v.map(Value::Int64);
                }
            }
            let x = a.as_f64()?;
            let y = b.as_f64()?;
            let v = match op {
                BinaryOp::Add => x + y,
                BinaryOp::Subtract => x - y,
                BinaryOp::Multiply => x * y,
                _ => {
                    if y == 0.0 {
                        return None;
                    }
                    x / y
                }
            };
            Some(Value::Float64(v))
        }
        _ => {
            let ord = a.partial_cmp_value(b)?;
            use std::cmp::Ordering::*;
            let v = match op {
                BinaryOp::Eq => ord == Equal,
                BinaryOp::NotEq => ord != Equal,
                BinaryOp::Lt => ord == Less,
                BinaryOp::LtEq => ord != Greater,
                BinaryOp::Gt => ord == Greater,
                BinaryOp::GtEq => ord != Less,
                _ => return None,
            };
            Some(Value::Boolean(v))
        }
    }
}

fn map_expressions(plan: &LogicalPlan, f: &dyn Fn(&Expr) -> Expr) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
        } => LogicalPlan::Scan {
            table: table.clone(),
            projection: projection.clone(),
            filters: filters.iter().map(f).collect(),
        },
        LogicalPlan::Filter { predicate, input } => LogicalPlan::Filter {
            predicate: f(predicate),
            input: Box::new(map_expressions(input, f)),
        },
        LogicalPlan::Projection { exprs, input } => LogicalPlan::Projection {
            exprs: exprs.iter().map(f).collect(),
            input: Box::new(map_expressions(input, f)),
        },
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => LogicalPlan::Join {
            left: Box::new(map_expressions(left, f)),
            right: Box::new(map_expressions(right, f)),
            left_key: left_key.clone(),
            right_key: right_key.clone(),
        },
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => LogicalPlan::Aggregate {
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
            input: Box::new(map_expressions(input, f)),
        },
        LogicalPlan::Limit { n, input } => LogicalPlan::Limit {
            n: *n,
            input: Box::new(map_expressions(input, f)),
        },
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Push filter predicates as close to the scans as possible.
pub fn push_predicates(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    push_predicates_impl(plan, vec![], catalog)
}

fn push_predicates_impl(
    plan: LogicalPlan,
    mut pending: Vec<Expr>,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { predicate, input } => {
            pending.extend(predicate.split_conjunction().into_iter().cloned());
            push_predicates_impl(*input, pending, catalog)
        }
        LogicalPlan::Scan {
            table,
            projection,
            mut filters,
        } => {
            filters.extend(pending);
            Ok(LogicalPlan::Scan {
                table,
                projection,
                filters,
            })
        }
        LogicalPlan::Projection { exprs, input } => {
            // A predicate can cross the projection only if every column it
            // references is a pass-through column (simple `Column` / alias of
            // a column) of the projection.
            let mut passthrough: Vec<(String, String)> = Vec::new();
            for e in &exprs {
                match e {
                    Expr::Column(c) => passthrough.push((c.clone(), c.clone())),
                    Expr::Alias { expr, name } => {
                        if let Expr::Column(c) = expr.as_ref() {
                            passthrough.push((name.clone(), c.clone()));
                        }
                    }
                    _ => {}
                }
            }
            let mut pushed = Vec::new();
            let mut stay = Vec::new();
            for p in pending {
                let cols = p.referenced_columns();
                let all_pass = cols
                    .iter()
                    .all(|c| passthrough.iter().any(|(out, _)| out == c));
                if all_pass {
                    // rewrite output names to input names
                    let rewritten = rewrite_columns(&p, &|name| {
                        passthrough
                            .iter()
                            .find(|(out, _)| out == name)
                            .map(|(_, inp)| inp.clone())
                            .unwrap_or_else(|| name.to_string())
                    });
                    pushed.push(rewritten);
                } else {
                    stay.push(p);
                }
            }
            let input = push_predicates_impl(*input, pushed, catalog)?;
            let mut plan = LogicalPlan::Projection {
                exprs,
                input: Box::new(input),
            };
            if !stay.is_empty() {
                plan = plan.filter(Expr::conjunction(stay));
            }
            Ok(plan)
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let left_schema = left.schema(catalog)?;
            let right_schema = right.schema(catalog)?;
            // The join output renames right columns that collide with left
            // ones ("r." prefixes, see Schema::merge). Replicate the rename so
            // predicates phrased against merged names still push into the
            // right side instead of staying above the join forever.
            let mut renamed: Vec<(String, String)> = Vec::new(); // merged -> right name
            {
                let mut taken: BTreeSet<String> = left_schema
                    .fields()
                    .iter()
                    .map(|f| f.name().to_string())
                    .collect();
                for f in right_schema.fields() {
                    let mut name = f.name().to_string();
                    while taken.contains(&name) {
                        name = format!("r.{name}");
                    }
                    taken.insert(name.clone());
                    if name != f.name() {
                        renamed.push((name, f.name().to_string()));
                    }
                }
            }
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for p in pending {
                let cols = p.referenced_columns();
                if cols.iter().all(|c| left_schema.contains(c)) {
                    to_left.push(p);
                } else if cols.iter().all(|c| right_schema.contains(c)) {
                    to_right.push(p);
                } else if cols.iter().all(|c| {
                    !left_schema.contains(c)
                        && (right_schema.contains(c) || renamed.iter().any(|(m, _)| m == c))
                }) {
                    // right-side-only, some columns via merged names: rewrite
                    // to the right input's own names and push
                    to_right.push(rewrite_columns(&p, &|name| {
                        renamed
                            .iter()
                            .find(|(m, _)| m == name)
                            .map(|(_, r)| r.clone())
                            .unwrap_or_else(|| name.to_string())
                    }));
                } else {
                    // references both sides (or unresolvable names): must
                    // remain a post-join filter — exactly once, never dropped
                    stay.push(p);
                }
            }
            let left = push_predicates_impl(*left, to_left, catalog)?;
            let right = push_predicates_impl(*right, to_right, catalog)?;
            let mut plan = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
            };
            if !stay.is_empty() {
                plan = plan.filter(Expr::conjunction(stay));
            }
            Ok(plan)
        }
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            input,
        } => {
            // Predicates on group-by columns could be pushed, but aggregates
            // in prediction queries sit at the very top; keep them above.
            let input = push_predicates_impl(*input, vec![], catalog)?;
            let mut plan = LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input: Box::new(input),
            };
            if !pending.is_empty() {
                plan = plan.filter(Expr::conjunction(pending));
            }
            Ok(plan)
        }
        LogicalPlan::Limit { n, input } => {
            // Filters must not cross a limit (would change results).
            let input = push_predicates_impl(*input, vec![], catalog)?;
            let mut plan = LogicalPlan::Limit {
                n,
                input: Box::new(input),
            };
            if !pending.is_empty() {
                plan = plan.filter(Expr::conjunction(pending));
            }
            Ok(plan)
        }
    }
}

fn rewrite_columns(expr: &Expr, rename: &dyn Fn(&str) -> String) -> Expr {
    match expr {
        Expr::Column(c) => Expr::Column(rename(c)),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_columns(left, rename)),
            op: *op,
            right: Box::new(rewrite_columns(right, rename)),
        },
        Expr::Not(e) => Expr::Not(Box::new(rewrite_columns(e, rename))),
        Expr::IsNull(e) => Expr::IsNull(Box::new(rewrite_columns(e, rename))),
        Expr::Case {
            when_then,
            else_expr,
        } => Expr::Case {
            when_then: when_then
                .iter()
                .map(|(w, t)| (rewrite_columns(w, rename), rewrite_columns(t, rename)))
                .collect(),
            else_expr: Box::new(rewrite_columns(else_expr, rename)),
        },
        Expr::Cast { expr, to } => Expr::Cast {
            expr: Box::new(rewrite_columns(expr, rename)),
            to: *to,
        },
        Expr::Alias { expr, name } => Expr::Alias {
            expr: Box::new(rewrite_columns(expr, rename)),
            name: name.clone(),
        },
        Expr::ScalarFunction { func, arg } => Expr::ScalarFunction {
            func: *func,
            arg: Box::new(rewrite_columns(arg, rename)),
        },
    }
}

// ---------------------------------------------------------------------------
// Join elimination
// ---------------------------------------------------------------------------

/// Remove inner joins whose right (or left) side is a scan joined on a unique
/// key and contributes no columns that are actually consumed above the join.
/// This is the rewrite that makes Raven's model-projection pushdown save whole
/// joins (paper §4.1, §7.1.1).
pub fn eliminate_joins(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    // We need the columns required above each join; walk top-down carrying them.
    eliminate_joins_impl(plan, None, catalog)
}

fn eliminate_joins_impl(
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
            let input = eliminate_joins_impl(*input, Some(req), catalog)?;
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
            let input = eliminate_joins_impl(*input, req, catalog)?;
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
            let input = eliminate_joins_impl(*input, Some(req), catalog)?;
            Ok(LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input: Box::new(input),
            })
        }
        LogicalPlan::Limit { n, input } => {
            let input = eliminate_joins_impl(*input, required, catalog)?;
            Ok(LogicalPlan::Limit {
                n,
                input: Box::new(input),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            if let Some(req) = &required {
                let right_schema = right.schema(catalog)?;
                let left_schema = left.schema(catalog)?;
                // Which required columns resolve to the right side only?
                let needs_right = req
                    .iter()
                    .any(|c| right_schema.contains(c) && !left_schema.contains(c));
                let right_unique = scan_unique_key(&right, &right_key, catalog);
                if !needs_right && right_unique {
                    // Every left row matches at most one right row and no
                    // right column is consumed: drop the join entirely.
                    // (FK integrity — every left key present on the right — is
                    // assumed, as in the paper's PK-FK star schemas.)
                    return eliminate_joins_impl(*left, required, catalog);
                }
                let needs_left = req
                    .iter()
                    .any(|c| left_schema.contains(c) && !right_schema.contains(c));
                let left_unique = scan_unique_key(&left, &left_key, catalog);
                if !needs_left && left_unique {
                    return eliminate_joins_impl(*right, required, catalog);
                }
            }
            // Keep the join; propagate the requirement set through it so
            // eliminable joins nested below a kept one are still found.
            // Duplicate-named columns resolve to the left side, mirroring the
            // needs_left/needs_right checks above; each side additionally
            // needs its own join key.
            let (left_req, right_req) = match required {
                Some(req) => {
                    let left_schema = left.schema(catalog)?;
                    let right_schema = right.schema(catalog)?;
                    let mut lr: BTreeSet<String> = req
                        .iter()
                        .filter(|c| left_schema.contains(c))
                        .cloned()
                        .collect();
                    lr.insert(left_key.clone());
                    let mut rr: BTreeSet<String> = req
                        .iter()
                        .filter(|c| right_schema.contains(c) && !left_schema.contains(c))
                        .cloned()
                        .collect();
                    rr.insert(right_key.clone());
                    (Some(lr), Some(rr))
                }
                None => (None, None),
            };
            let left = eliminate_joins_impl(*left, left_req, catalog)?;
            let right = eliminate_joins_impl(*right, right_req, catalog)?;
            Ok(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
            })
        }
        other => Ok(other),
    }
}

fn scan_unique_key(plan: &LogicalPlan, key: &str, catalog: &Catalog) -> bool {
    match plan {
        LogicalPlan::Scan { table, filters, .. } if filters.is_empty() => {
            catalog.is_unique_key(table, key)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Projection pushdown
// ---------------------------------------------------------------------------

/// Prune unused columns by installing projections into scans.
pub fn push_projections(plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
    push_projections_impl(plan, None, catalog)
}

fn push_projections_impl(
    plan: LogicalPlan,
    required: Option<BTreeSet<String>>,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filters,
        } => {
            let t = catalog.table(&table)?;
            let schema = t.schema();
            let projection = match (projection, required) {
                (Some(existing), _) => Some(existing), // explicit projection wins
                (None, Some(req)) => {
                    let mut cols: Vec<String> = Vec::new();
                    // keep schema order for determinism
                    for f in schema.fields() {
                        let mut needed = req.contains(f.name());
                        for flt in &filters {
                            if flt.referenced_columns().contains(f.name()) {
                                needed = true;
                            }
                        }
                        if needed {
                            cols.push(f.name().to_string());
                        }
                    }
                    if cols.is_empty() {
                        // Always scan at least one column so row counts survive.
                        cols.push(
                            schema
                                .fields()
                                .first()
                                .map(|f| f.name().to_string())
                                .unwrap_or_default(),
                        );
                    }
                    if cols.len() == schema.len() {
                        None
                    } else {
                        Some(cols)
                    }
                }
                (None, None) => None,
            };
            Ok(LogicalPlan::Scan {
                table,
                projection,
                filters,
            })
        }
        LogicalPlan::Projection { exprs, input } => {
            let mut req = BTreeSet::new();
            for e in &exprs {
                req.extend(e.referenced_columns());
            }
            let input = push_projections_impl(*input, Some(req), catalog)?;
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
            let input = push_projections_impl(*input, req, catalog)?;
            Ok(LogicalPlan::Filter {
                predicate,
                input: Box::new(input),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (lreq, rreq) = match &required {
                None => (None, None),
                Some(req) => {
                    let left_schema = left.schema(catalog)?;
                    let right_schema = right.schema(catalog)?;
                    let mut lr: BTreeSet<String> = req
                        .iter()
                        .filter(|c| left_schema.contains(c))
                        .cloned()
                        .collect();
                    let mut rr: BTreeSet<String> = req
                        .iter()
                        .filter(|c| right_schema.contains(c) && !left_schema.contains(c))
                        .cloned()
                        .collect();
                    lr.insert(left_key.clone());
                    rr.insert(right_key.clone());
                    (Some(lr), Some(rr))
                }
            };
            let left = push_projections_impl(*left, lreq, catalog)?;
            let right = push_projections_impl(*right, rreq, catalog)?;
            Ok(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_key,
                right_key,
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
            let input = push_projections_impl(*input, Some(req), catalog)?;
            Ok(LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input: Box::new(input),
            })
        }
        LogicalPlan::Limit { n, input } => {
            let input = push_projections_impl(*input, required, catalog)?;
            Ok(LogicalPlan::Limit {
                n,
                input: Box::new(input),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use raven_columnar::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("patient_info")
                .add_i64("id", vec![1, 2, 3])
                .add_f64("age", vec![30.0, 70.0, 50.0])
                .add_i64("asthma", vec![1, 0, 1])
                .add_f64("bmi", vec![22.0, 31.0, 27.0])
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("blood_test")
                .add_i64("id", vec![1, 2, 3])
                .add_f64("bpm", vec![60.0, 90.0, 72.0])
                .add_f64("iron", vec![1.0, 2.0, 3.0])
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn constant_folding_simplifies() {
        let e = lit(2.0).add(lit(3.0)).mul(col("x"));
        let folded = fold_expr(&e);
        assert_eq!(folded, lit(5.0).mul(col("x")));

        let e = Expr::Literal(Value::Boolean(true)).and(col("p"));
        assert_eq!(fold_expr(&e), col("p"));

        let e = col("p").and(Expr::Literal(Value::Boolean(false)));
        assert_eq!(fold_expr(&e), Expr::Literal(Value::Boolean(false)));

        let e = lit(3.0).gt(lit(1.0));
        assert_eq!(fold_expr(&e), Expr::Literal(Value::Boolean(true)));
    }

    #[test]
    fn case_folding_prunes_dead_branches() {
        use crate::expr::case;
        let e = case(
            vec![
                (Expr::Literal(Value::Boolean(false)), lit(1.0)),
                (col("a").gt(lit(0.0)), lit(2.0)),
            ],
            lit(3.0),
        );
        let folded = fold_expr(&e);
        assert!(
            matches!(&folded, Expr::Case { when_then, .. } if when_then.len() == 1),
            "expected a CASE with exactly one surviving branch after folding, got:\n{folded:?}"
        );

        let always = case(
            vec![(Expr::Literal(Value::Boolean(true)), lit(9.0))],
            lit(1.0),
        );
        assert_eq!(fold_expr(&always), lit(9.0));
    }

    #[test]
    fn predicate_pushdown_reaches_scan() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .project(vec![col("age"), col("asthma")])
            .filter(col("asthma").eq(lit(1i64)));
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(
            s.contains("Scan: patient_info") && s.contains("filters=[(asthma = 1)]"),
            "predicate should reach the scan:\n{s}"
        );
        assert!(!s.contains("Filter:"), "no residual filter expected:\n{s}");
    }

    #[test]
    fn predicate_pushdown_splits_across_join() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("asthma").eq(lit(1i64)).and(col("bpm").gt(lit(80.0))));
        let optimized = push_predicates(plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(s.contains("Scan: patient_info") && s.contains("(asthma = 1)"));
        assert!(s.contains("Scan: blood_test") && s.contains("(bpm > 80)"));
    }

    /// A predicate phrased against the join output's merged ("r."-prefixed)
    /// name of a right column pushes into the right side under its own name.
    #[test]
    fn merged_name_predicate_pushes_to_right_scan() {
        let c = catalog();
        // "r.id" is the merged name of blood_test.id (patient_info.id wins "id")
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("r.id").gt(lit(1i64)));
        let optimized = push_predicates(plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(
            s.contains("Scan: blood_test filters=[(id > 1)]"),
            "merged-name predicate should push right, rewritten:\n{s}"
        );
        assert!(!s.contains("Filter:"), "no residual filter expected:\n{s}");
    }

    /// A predicate referencing both sides of a join is kept as a post-join
    /// filter — exactly once, never dropped and never duplicated.
    #[test]
    fn cross_side_predicate_stays_post_join_exactly_once() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("age").gt(col("bpm")));
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let s = optimized.display_indent();
        assert_eq!(
            s.matches("Filter:").count(),
            1,
            "cross-side predicate must survive exactly once:\n{s}"
        );
        assert!(!s.contains("filters="), "nothing can push to a scan:\n{s}");
        use crate::physical::{ExecutionContext, Executor};
        let ctx = ExecutionContext::default();
        let a = Executor::new().execute(&plan, &c, &ctx).unwrap();
        let b = Executor::new().execute(&optimized, &c, &ctx).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
    }

    /// Predicates survive (exactly once) when the join region around them is
    /// reordered, and fold_constants never drops conjuncts along the way.
    #[test]
    fn predicates_survive_join_reordering() {
        let mut c = catalog();
        c.register(
            raven_columnar::TableBuilder::new("visits")
                .add_i64("pid", vec![1, 1, 2, 3, 3, 3])
                .add_f64("cost", vec![10.0, 20.0, 30.0, 5.0, 7.0, 9.0])
                .build()
                .unwrap(),
        );
        // cross-side predicate over a 3-table region + a folded-true conjunct
        // + a selective blood_test filter that makes the reorderer join
        // blood_test before patient_info
        let predicate = col("cost")
            .lt(col("bpm"))
            .and(lit(1.0).lt(lit(2.0)))
            .and(col("age").gt(lit(20.0)))
            .and(col("bpm").gt(lit(80.0)));
        let plan = LogicalPlan::scan("visits")
            .join(LogicalPlan::scan("patient_info"), "pid", "id")
            .join(LogicalPlan::scan("blood_test"), "pid", "id")
            .filter(predicate)
            .project(vec![col("pid"), col("cost"), col("age"), col("bpm")]);
        let reorder = Optimizer::with_options(OptimizerOptions {
            join_reordering: true,
            ..Default::default()
        });
        let asis = Optimizer::with_options(OptimizerOptions {
            join_reordering: false,
            ..Default::default()
        });
        let a_plan = asis.optimize(&plan, &c).unwrap();
        let b_plan = reorder.optimize(&plan, &c).unwrap();
        assert_ne!(a_plan, b_plan, "the selective blood_test join should move");
        use crate::physical::{ExecutionContext, Executor};
        let ctx = ExecutionContext::default();
        let a = Executor::new().execute(&a_plan, &c, &ctx).unwrap();
        let b = Executor::new().execute(&b_plan, &c, &ctx).unwrap();
        assert_eq!(plan.schema(&c).unwrap().names(), a.schema().names());
        assert_eq!(a.schema().names(), b.schema().names());
        assert_eq!(a.num_rows(), b.num_rows());
        let key = |batch: &raven_columnar::Batch| {
            let mut v: Vec<(i64, u64)> = batch
                .column_by_name("pid")
                .unwrap()
                .as_i64()
                .unwrap()
                .iter()
                .zip(batch.column_by_name("cost").unwrap().as_f64().unwrap())
                .map(|(p, x)| (*p, x.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn projection_pushdown_prunes_scan_columns() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").project(vec![col("age")]);
        let optimized = push_projections(plan, &c).unwrap();
        let rendered = optimized.display_indent();
        assert!(
            matches!(
                &optimized,
                LogicalPlan::Projection { input, .. } if matches!(
                    &**input,
                    LogicalPlan::Scan { projection: Some(p), .. }
                        if p == &vec!["age".to_string()]
                )
            ),
            "expected Projection over a Scan pruned to [age], full plan:\n{rendered}"
        );
    }

    #[test]
    fn projection_pushdown_keeps_join_keys() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .project(vec![col("age"), col("bpm")]);
        let optimized = push_projections(plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(s.contains("projection=[id, age]"), "{s}");
        assert!(s.contains("projection=[id, bpm]"), "{s}");
    }

    #[test]
    fn join_eliminated_when_side_unused() {
        let c = catalog();
        // blood_test columns are never used above the join and blood_test.id is unique.
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .project(vec![col("age"), col("asthma")]);
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(!s.contains("Join"), "join should be eliminated:\n{s}");
        assert!(s.contains("Scan: patient_info"));
    }

    #[test]
    fn join_eliminated_below_a_kept_join() {
        let mut c = catalog();
        c.register(
            TableBuilder::new("vitals")
                .add_i64("id", vec![1, 2, 3])
                .add_f64("temp", vec![36.5, 38.2, 37.0])
                .build()
                .unwrap(),
        );
        // blood_test (unused) is joined *below* vitals (used): the requirement
        // set must flow through the kept vitals join so the inner join is
        // still eliminated.
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .join(LogicalPlan::scan("vitals"), "id", "id")
            .project(vec![col("age"), col("temp")]);
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let s = optimized.display_indent();
        assert!(
            !s.contains("blood_test"),
            "inner unused join should be eliminated:\n{s}"
        );
        assert!(s.contains("Scan: vitals"), "{s}");
        assert_eq!(
            plan.schema(&c).unwrap().names(),
            optimized.schema(&c).unwrap().names()
        );
    }

    #[test]
    fn join_kept_when_side_used() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .project(vec![col("age"), col("bpm")]);
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        assert!(optimized.display_indent().contains("Join"));
    }

    #[test]
    fn optimizer_options_disable_rules() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .project(vec![col("age")]);
        let opts = OptimizerOptions {
            join_elimination: false,
            ..Default::default()
        };
        let optimized = Optimizer::with_options(opts).optimize(&plan, &c).unwrap();
        assert!(optimized.display_indent().contains("Join"));
    }

    #[test]
    fn schema_preserved_by_optimization() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("asthma").eq(lit(1i64)))
            .project(vec![col("age"), col("bpm").alias("heart_rate")]);
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        assert_eq!(
            plan.schema(&c).unwrap().names(),
            optimized.schema(&c).unwrap().names()
        );
    }
}
