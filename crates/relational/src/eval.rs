//! Vectorized evaluation of [`Expr`] over a [`Batch`].
//!
//! Evaluation is columnar: each expression node produces a whole column at a
//! time. Numeric operations run over `f64` kernels; comparisons support both
//! numeric and string operands.
//!
//! ## Selection-vector CASE
//!
//! Every node is evaluated under a [`SelectionVector`] naming the batch rows
//! it must produce values for (the public entry points select all rows), and
//! returns one value per selected row. `CASE` narrows the selection in the
//! MonetDB/X100 style: each WHEN runs only on the rows no earlier WHEN took,
//! each THEN only on the rows its WHEN took, and the ELSE on the rest. Arm
//! results are scattered straight into one typed output column; literal arms
//! (every MLtoSQL tree leaf) are filled as scalars. A nested CASE from a
//! depth-d tree therefore visits each row d times, not once per tree node.
//! The result type is the arms' common type: `Float64` for an
//! `Int64`/`Float64` mix, an error for any other mix.
//!
//! ## Fused kernels and buffer reuse
//!
//! The hot paths avoid intermediate allocations instead of composing clones:
//!
//! * **Literal fusion** — a literal operand of a binary kernel stays a
//!   scalar; it is never materialized into a constant column
//!   (`x >= 900.0` reads one column and one register, not two columns).
//! * **Compare→mask fusion** — [`evaluate_predicate`] produces the `Vec<bool>`
//!   mask directly: comparisons, `AND`/`OR`, `NOT`, and `IS NULL` never build
//!   an intermediate boolean [`Column`] only to copy it out again.
//! * **Operand views** — numeric kernels read `Float64`/`Int64`/`Boolean`
//!   column storage in place (widening per element) instead of converting
//!   whole columns through `to_f64_vec`.
//! * **In-place intermediates** — a binary kernel whose left operand is a
//!   freshly computed, uniquely owned `Float64` column mutates that buffer in
//!   place, so an expression chain like `(a - b) * c + d` allocates one
//!   output buffer total.
//! * **Scratch pool** — mask buffers consumed by `AND`/`OR`/`NOT` are rented
//!   from a small thread-local pool and recycled after fusion, so a fused
//!   conjunction of N comparisons allocates at most one mask that escapes.

use crate::error::{RelationalError, Result};
use crate::expr::{BinaryOp, Expr, ScalarFunc};
use raven_columnar::{Batch, Column, ColumnRef, DataType, SelectionVector, Value};
use std::cell::RefCell;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// scratch pool (per-thread; executors on the worker pool each reuse their own)
// ---------------------------------------------------------------------------

thread_local! {
    static MASK_POOL: RefCell<Vec<Vec<bool>>> = const { RefCell::new(Vec::new()) };
}

fn rent_mask(capacity: usize) -> Vec<bool> {
    MASK_POOL
        .with_borrow_mut(|pool| pool.pop())
        .map(|mut v| {
            v.clear();
            v.reserve(capacity);
            v
        })
        .unwrap_or_else(|| Vec::with_capacity(capacity))
}

fn recycle_mask(v: Vec<bool>) {
    MASK_POOL.with_borrow_mut(|pool| {
        if pool.len() < 8 {
            pool.push(v);
        }
    });
}

// ---------------------------------------------------------------------------
// operands: literal scalars stay scalar, everything else is a shared column
// ---------------------------------------------------------------------------

/// One side of a fused binary kernel.
enum Operand {
    Col(ColumnRef),
    Num(f64),
    Int(i64),
    Str(String),
    Bool(bool),
}

impl Operand {
    fn eval(expr: &Expr, batch: &Batch, sel: &SelectionVector) -> Result<Operand> {
        match expr {
            Expr::Literal(v) => Ok(match v {
                Value::Float64(x) => Operand::Num(*x),
                Value::Int64(x) => Operand::Int(*x),
                Value::Utf8(s) => Operand::Str(s.clone()),
                Value::Boolean(b) => Operand::Bool(*b),
                Value::Null => Operand::Num(f64::NAN),
            }),
            Expr::Alias { expr, .. } => Operand::eval(expr, batch, sel),
            other => Ok(Operand::Col(evaluate_selected(other, batch, sel)?)),
        }
    }

    fn len(&self) -> Option<usize> {
        match self {
            Operand::Col(c) => Some(c.len()),
            _ => None,
        }
    }

    fn is_string(&self) -> bool {
        matches!(self, Operand::Str(_))
            || matches!(self, Operand::Col(c) if c.data_type() == DataType::Utf8)
    }

    fn is_int(&self) -> bool {
        matches!(self, Operand::Int(_))
            || matches!(self, Operand::Col(c) if c.data_type() == DataType::Int64)
    }

    fn data_type(&self) -> DataType {
        match self {
            Operand::Col(c) => c.data_type(),
            Operand::Num(_) => DataType::Float64,
            Operand::Int(_) => DataType::Int64,
            Operand::Str(_) => DataType::Utf8,
            Operand::Bool(_) => DataType::Boolean,
        }
    }
}

/// Read-only numeric view over an operand: per-element widening instead of a
/// whole-column `to_f64_vec` copy.
enum NumView<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    B(&'a [bool]),
    Scalar(f64),
}

impl NumView<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::F(v) => v[i],
            NumView::I(v) => v[i] as f64,
            NumView::B(v) => {
                if v[i] {
                    1.0
                } else {
                    0.0
                }
            }
            NumView::Scalar(x) => *x,
        }
    }
}

fn num_view(op: &Operand) -> Result<NumView<'_>> {
    Ok(match op {
        Operand::Col(c) => match c.as_ref() {
            Column::Float64(v) => NumView::F(v),
            Column::Int64(v) => NumView::I(v),
            Column::Boolean(v) => NumView::B(v),
            Column::Utf8(_) => {
                return Err(RelationalError::Evaluation(
                    "expected a numeric operand, found a string column".into(),
                ))
            }
        },
        Operand::Num(x) => NumView::Scalar(*x),
        Operand::Int(x) => NumView::Scalar(*x as f64),
        Operand::Bool(b) => NumView::Scalar(if *b { 1.0 } else { 0.0 }),
        Operand::Str(_) => {
            return Err(RelationalError::Evaluation(
                "expected a numeric operand, found a string literal".into(),
            ))
        }
    })
}

/// String view over an operand (for string comparisons).
enum StrView<'a> {
    Slice(&'a [String]),
    Scalar(&'a str),
}

impl StrView<'_> {
    #[inline]
    fn get(&self, i: usize) -> &str {
        match self {
            StrView::Slice(v) => &v[i],
            StrView::Scalar(s) => s,
        }
    }
}

fn str_view(op: &Operand) -> Result<StrView<'_>> {
    Ok(match op {
        Operand::Col(c) => StrView::Slice(c.as_utf8().map_err(RelationalError::from)?),
        Operand::Str(s) => StrView::Scalar(s),
        _ => {
            return Err(RelationalError::Evaluation(
                "expected a string operand".into(),
            ))
        }
    })
}

/// Validate operand lengths and resolve the kernel's output length (columns
/// must agree; two scalars span the selected rows).
fn kernel_rows(l: &Operand, r: &Operand, selected_rows: usize) -> Result<usize> {
    match (l.len(), r.len()) {
        (Some(a), Some(b)) if a != b => Err(RelationalError::Evaluation(format!(
            "operand length mismatch: {a} vs {b}"
        ))),
        (Some(a), _) => Ok(a),
        (_, Some(b)) => Ok(b),
        (None, None) => Ok(selected_rows),
    }
}

#[inline]
fn apply_num(op: BinaryOp, x: f64, y: f64) -> f64 {
    match op {
        BinaryOp::Add => x + y,
        BinaryOp::Subtract => x - y,
        BinaryOp::Multiply => x * y,
        _ => {
            if y == 0.0 {
                f64::NAN
            } else {
                x / y
            }
        }
    }
}

#[inline]
fn apply_cmp(op: BinaryOp, x: f64, y: f64) -> bool {
    match op {
        BinaryOp::Eq => x == y,
        BinaryOp::NotEq => x != y,
        BinaryOp::Lt => x < y,
        BinaryOp::LtEq => x <= y,
        BinaryOp::Gt => x > y,
        _ => x >= y,
    }
}

/// Evaluate `expr` against `batch`, producing one value per row.
pub fn evaluate(expr: &Expr, batch: &Batch) -> Result<ColumnRef> {
    evaluate_selected(expr, batch, &SelectionVector::all(batch.num_rows()))
}

/// Evaluate `expr` on the rows of `batch` that `sel` selects, producing one
/// value per selected row, in selection order. Deselected rows cost nothing:
/// a consumer holding a `(batch, selection)` pair scatters the result back
/// itself instead of evaluating every source row.
pub fn evaluate_selected(expr: &Expr, batch: &Batch, sel: &SelectionVector) -> Result<ColumnRef> {
    match expr {
        Expr::Column(name) => {
            let c = batch.column_by_name(name)?;
            if sel.is_all() {
                Ok(c.clone())
            } else {
                Ok(Arc::new(c.gather(sel)?))
            }
        }
        Expr::Literal(v) => Ok(Arc::new(Column::from_value(v, sel.len())?)),
        Expr::Alias { expr, .. } => evaluate_selected(expr, batch, sel),
        Expr::Not(_) | Expr::IsNull(_) => {
            Ok(Arc::new(Column::Boolean(predicate_sel(expr, batch, sel)?)))
        }
        Expr::Cast { expr, to } => {
            let v = evaluate_selected(expr, batch, sel)?;
            cast_column(&v, *to)
        }
        Expr::ScalarFunction { func, arg } => {
            let v = evaluate_selected(arg, batch, sel)?;
            let f = |x: f64| match func {
                ScalarFunc::Exp => x.exp(),
                ScalarFunc::Ln => {
                    if x > 0.0 {
                        x.ln()
                    } else {
                        f64::NAN
                    }
                }
                ScalarFunc::Abs => x.abs(),
                ScalarFunc::Sqrt => {
                    if x >= 0.0 {
                        x.sqrt()
                    } else {
                        f64::NAN
                    }
                }
            };
            // reuse a uniquely owned float buffer in place
            match Arc::try_unwrap(v) {
                Ok(Column::Float64(mut vals)) => {
                    for x in vals.iter_mut() {
                        *x = f(*x);
                    }
                    Ok(Arc::new(Column::Float64(vals)))
                }
                Ok(other) => {
                    let out: Vec<f64> = other
                        .to_f64_vec()
                        .map_err(RelationalError::from)?
                        .into_iter()
                        .map(f)
                        .collect();
                    Ok(Arc::new(Column::Float64(out)))
                }
                Err(shared) => {
                    let operand = Operand::Col(shared);
                    let view = num_view(&operand)?;
                    let rows = operand.len().unwrap_or(0);
                    let mut out = Vec::with_capacity(rows);
                    for i in 0..rows {
                        out.push(f(view.get(i)));
                    }
                    Ok(Arc::new(Column::Float64(out)))
                }
            }
        }
        Expr::Binary { left, op, right } => {
            if matches!(op, BinaryOp::And | BinaryOp::Or) || op.is_predicate() {
                return Ok(Arc::new(Column::Boolean(predicate_sel(expr, batch, sel)?)));
            }
            let l = Operand::eval(left, batch, sel)?;
            let r = Operand::eval(right, batch, sel)?;
            arithmetic_kernel(l, *op, r, sel.len())
        }
        Expr::Case {
            when_then,
            else_expr,
        } => case_sel(when_then, else_expr, batch, sel),
    }
}

/// A CASE arm's values and the positions of the CASE output they fill.
struct Arm {
    values: ColumnRef,
    /// A literal arm: `values` holds the one literal, broadcast to every
    /// position.
    scalar: bool,
    positions: Vec<u32>,
}

/// Batch rows still in play inside a CASE, paired with the output position
/// each one's result lands on (a nested CASE's selection is a subset of the
/// batch, so the two differ).
type Rows = (SelectionVector, Vec<u32>);

/// `CASE` under a selection: each WHEN is evaluated on the still-undecided
/// rows only, each arm on the rows that reach it. An arm no row reaches is
/// still evaluated (on the empty selection), so type errors do not depend on
/// the data.
fn case_sel(
    when_then: &[(Expr, Expr)],
    else_expr: &Expr,
    batch: &Batch,
    sel: &SelectionVector,
) -> Result<ColumnRef> {
    #[cfg(test)]
    if reference::active() {
        return reference::case(when_then, else_expr, batch, sel);
    }
    let mut undecided: Rows = (sel.clone(), (0..sel.len() as u32).collect());
    let mut arms = Vec::with_capacity(when_then.len() + 1);
    for (when, then) in when_then {
        let cond = predicate_sel(when, batch, &undecided.0)?;
        let (hit, rest) = split(&undecided, &cond)?;
        recycle_mask(cond);
        arms.push(eval_arm(then, batch, hit)?);
        undecided = rest;
    }
    arms.push(eval_arm(else_expr, batch, undecided)?);
    scatter_arms(&arms, sel.len())
}

/// Split `rows` by a mask aligned with its selection: the rows where the
/// mask holds, and the rest.
fn split((sel, positions): &Rows, mask: &[bool]) -> Result<(Rows, Rows)> {
    debug_assert_eq!(mask.len(), sel.len());
    let hits = mask.iter().filter(|&&m| m).count();
    let mut hit = (Vec::with_capacity(hits), Vec::with_capacity(hits));
    let mut miss = (
        Vec::with_capacity(mask.len() - hits),
        Vec::with_capacity(mask.len() - hits),
    );
    for ((row, &pos), &m) in sel.iter().zip(positions).zip(mask) {
        let side = if m { &mut hit } else { &mut miss };
        side.0.push(row as u32);
        side.1.push(pos);
    }
    let source = sel.source_len();
    Ok((
        (SelectionVector::from_indices(source, hit.0)?, hit.1),
        (SelectionVector::from_indices(source, miss.0)?, miss.1),
    ))
}

fn eval_arm(expr: &Expr, batch: &Batch, (sel, positions): Rows) -> Result<Arm> {
    let (values, scalar) = match expr {
        Expr::Literal(v) => (Arc::new(Column::from_value(v, 1)?), true),
        other => (evaluate_selected(other, batch, &sel)?, false),
    };
    Ok(Arm {
        values,
        scalar,
        positions,
    })
}

/// Write every arm's values to its positions of a `rows`-long column of the
/// arms' common type.
fn scatter_arms(arms: &[Arm], rows: usize) -> Result<ColumnRef> {
    let dt = case_type(arms.iter().map(|a| a.values.data_type()))?;
    macro_rules! scatter {
        ($variant:ident, $as:ident, $init:expr, $clone:expr) => {{
            let mut out = vec![$init; rows];
            for arm in arms {
                let widened;
                let col = if arm.values.data_type() == dt {
                    arm.values.as_ref()
                } else {
                    widened = Column::Float64(arm.values.to_f64_vec()?);
                    &widened
                };
                let vals = col.$as()?;
                if arm.scalar {
                    for &p in &arm.positions {
                        out[p as usize] = $clone(&vals[0]);
                    }
                } else {
                    for (&p, v) in arm.positions.iter().zip(vals) {
                        out[p as usize] = $clone(v);
                    }
                }
            }
            Column::$variant(out)
        }};
    }
    Ok(Arc::new(match dt {
        DataType::Float64 => scatter!(Float64, as_f64, 0.0, |x: &f64| *x),
        DataType::Int64 => scatter!(Int64, as_i64, 0, |x: &i64| *x),
        DataType::Boolean => scatter!(Boolean, as_bool, false, |x: &bool| *x),
        DataType::Utf8 => scatter!(Utf8, as_utf8, String::new(), |x: &String| x.clone()),
    }))
}

/// The result type of a CASE whose arms have the types `arms`: their shared
/// type, `Float64` for a mix of `Int64` and `Float64`, an error otherwise.
fn case_type(arms: impl IntoIterator<Item = DataType>) -> Result<DataType> {
    let mut arms = arms.into_iter();
    let first = arms.next().unwrap_or(DataType::Float64);
    arms.try_fold(first, |acc, t| match (acc, t) {
        (a, b) if a == b => Ok(a),
        (DataType::Int64 | DataType::Float64, DataType::Int64 | DataType::Float64) => {
            Ok(DataType::Float64)
        }
        (a, b) => Err(RelationalError::Evaluation(format!(
            "CASE arms have incompatible types {a} and {b}"
        ))),
    })
}

/// The fused arithmetic kernel (`+ - * /`). Integer-preserving when both
/// sides are `Int64` (except division, which is always float).
fn arithmetic_kernel(l: Operand, op: BinaryOp, r: Operand, batch_rows: usize) -> Result<ColumnRef> {
    let rows = kernel_rows(&l, &r, batch_rows)?;
    if l.is_int() && r.is_int() && op != BinaryOp::Divide {
        let apply = |x: i64, y: i64| match op {
            BinaryOp::Add => x.wrapping_add(y),
            BinaryOp::Subtract => x.wrapping_sub(y),
            _ => x.wrapping_mul(y),
        };
        let iget = |o: &Operand, i: usize| -> i64 {
            match o {
                Operand::Col(c) => match c.as_ref() {
                    Column::Int64(v) => v[i],
                    _ => unreachable!("is_int checked"),
                },
                Operand::Int(x) => *x,
                _ => unreachable!("is_int checked"),
            }
        };
        let mut out = Vec::with_capacity(rows);
        for i in 0..rows {
            out.push(apply(iget(&l, i), iget(&r, i)));
        }
        return Ok(Arc::new(Column::Int64(out)));
    }
    if l.is_string() || r.is_string() {
        return Err(RelationalError::Evaluation(format!(
            "cannot apply arithmetic to {} and {}",
            l.data_type(),
            r.data_type()
        )));
    }
    // In-place fast path: a freshly computed, uniquely owned Float64 left
    // operand becomes the output buffer.
    if let Operand::Col(c) = l {
        match Arc::try_unwrap(c) {
            Ok(Column::Float64(mut vals)) => {
                let rv = num_view(&r)?;
                for (i, x) in vals.iter_mut().enumerate() {
                    *x = apply_num(op, *x, rv.get(i));
                }
                return Ok(Arc::new(Column::Float64(vals)));
            }
            Ok(other) => {
                let shared: ColumnRef = Arc::new(other);
                return arithmetic_alloc(&Operand::Col(shared), op, &r, rows);
            }
            Err(shared) => {
                return arithmetic_alloc(&Operand::Col(shared), op, &r, rows);
            }
        }
    }
    arithmetic_alloc(&l, op, &r, rows)
}

fn arithmetic_alloc(l: &Operand, op: BinaryOp, r: &Operand, rows: usize) -> Result<ColumnRef> {
    let lv = num_view(l)?;
    let rv = num_view(r)?;
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        out.push(apply_num(op, lv.get(i), rv.get(i)));
    }
    Ok(Arc::new(Column::Float64(out)))
}

/// Evaluate a predicate expression to a boolean mask.
///
/// Comparisons, `AND`/`OR`, `NOT`, and `IS NULL` are fused straight into the
/// mask: no intermediate boolean [`Column`] is built. Operand mask buffers
/// are recycled through a thread-local scratch pool; only the returned mask
/// escapes.
pub fn evaluate_predicate(expr: &Expr, batch: &Batch) -> Result<Vec<bool>> {
    predicate_sel(expr, batch, &SelectionVector::all(batch.num_rows()))
}

/// [`evaluate_predicate`] on the rows `sel` selects: one flag per selected row.
fn predicate_sel(expr: &Expr, batch: &Batch, sel: &SelectionVector) -> Result<Vec<bool>> {
    match expr {
        Expr::Alias { expr, .. } => predicate_sel(expr, batch, sel),
        Expr::Not(e) => {
            let mut m = predicate_sel(e, batch, sel)?;
            for b in m.iter_mut() {
                *b = !*b;
            }
            Ok(m)
        }
        // IS NULL follows the columnar layer's in-band missing-value
        // convention (see `raven-columnar`'s crate docs) uniformly across all
        // four column types:
        //   * Float64 — `NaN` is the missing marker, so `IS NULL` ⇔ `is_nan`;
        //   * Utf8    — the empty string is the missing marker;
        //   * Int64 / Boolean — these types have no in-band missing
        //     representation (every bit pattern is a valid value), so
        //     `IS NULL` is uniformly `false`.
        // Statistics (`ColumnStatistics::null_count`) count missing values
        // with exactly the same rule, keeping pruning and evaluation aligned.
        Expr::IsNull(e) => {
            let v = evaluate_selected(e, batch, sel)?;
            let mut mask = rent_mask(v.len());
            match v.as_ref() {
                Column::Float64(vals) => mask.extend(vals.iter().map(|x| x.is_nan())),
                Column::Utf8(vals) => mask.extend(vals.iter().map(|s| s.is_empty())),
                Column::Int64(vals) => mask.extend(vals.iter().map(|_| false)),
                Column::Boolean(vals) => mask.extend(vals.iter().map(|_| false)),
            }
            Ok(mask)
        }
        Expr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
            let mut l = predicate_sel(left, batch, sel)?;
            let r = predicate_sel(right, batch, sel)?;
            if l.len() != r.len() {
                return Err(RelationalError::Evaluation(format!(
                    "operand length mismatch: {} vs {}",
                    l.len(),
                    r.len()
                )));
            }
            if *op == BinaryOp::And {
                for (a, b) in l.iter_mut().zip(r.iter()) {
                    *a = *a && *b;
                }
            } else {
                for (a, b) in l.iter_mut().zip(r.iter()) {
                    *a = *a || *b;
                }
            }
            recycle_mask(r);
            Ok(l)
        }
        Expr::Binary { left, op, right } if op.is_predicate() => {
            let l = Operand::eval(left, batch, sel)?;
            let r = Operand::eval(right, batch, sel)?;
            let rows = kernel_rows(&l, &r, sel.len())?;
            let mut out = rent_mask(rows);
            if l.is_string() && r.is_string() {
                let lv = str_view(&l)?;
                let rv = str_view(&r)?;
                for i in 0..rows {
                    out.push(compare_ord(lv.get(i).cmp(rv.get(i)), *op));
                }
                return Ok(out);
            }
            if l.is_string() || r.is_string() {
                return Err(RelationalError::Evaluation(format!(
                    "cannot compare {} with {}",
                    l.data_type(),
                    r.data_type()
                )));
            }
            let lv = num_view(&l)?;
            let rv = num_view(&r)?;
            for i in 0..rows {
                out.push(apply_cmp(*op, lv.get(i), rv.get(i)));
            }
            Ok(out)
        }
        Expr::Literal(Value::Boolean(b)) => Ok(vec![*b; sel.len()]),
        other => {
            let col = evaluate_selected(other, batch, sel)?;
            mask_from_column(col)
        }
    }
}

/// Boolean truthiness of a generic column (the non-fused fallback). A
/// uniquely owned boolean column is moved, not copied.
fn mask_from_column(col: ColumnRef) -> Result<Vec<bool>> {
    match Arc::try_unwrap(col) {
        Ok(Column::Boolean(v)) => Ok(v),
        Ok(other) => as_bool_vec(&other),
        Err(shared) => as_bool_vec(&shared),
    }
}

/// Infer the output data type of an expression given an input schema lookup.
pub fn expr_data_type(expr: &Expr, lookup: &dyn Fn(&str) -> Option<DataType>) -> DataType {
    match expr {
        Expr::Column(name) => lookup(name).unwrap_or(DataType::Float64),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Float64),
        Expr::Alias { expr, .. } => expr_data_type(expr, lookup),
        Expr::Not(_) | Expr::IsNull(_) => DataType::Boolean,
        Expr::Cast { to, .. } => *to,
        Expr::ScalarFunction { .. } => DataType::Float64,
        Expr::Binary { left, op, right } => {
            if op.is_predicate() {
                DataType::Boolean
            } else {
                let lt = expr_data_type(left, lookup);
                let rt = expr_data_type(right, lookup);
                if lt == DataType::Int64 && rt == DataType::Int64 && !matches!(op, BinaryOp::Divide)
                {
                    DataType::Int64
                } else {
                    DataType::Float64
                }
            }
        }
        Expr::Case {
            when_then,
            else_expr,
        } => {
            let arms: Vec<DataType> = when_then
                .iter()
                .map(|(_, t)| t)
                .chain(std::iter::once(else_expr.as_ref()))
                .map(|e| expr_data_type(e, lookup))
                .collect();
            // an incompatible mix fails at evaluation; the plan keeps the
            // first arm's type
            case_type(arms.iter().copied()).unwrap_or(arms[0])
        }
    }
}

fn as_bool_vec(col: &Column) -> Result<Vec<bool>> {
    match col {
        Column::Boolean(v) => Ok(v.clone()),
        Column::Int64(v) => Ok(v.iter().map(|&x| x != 0).collect()),
        Column::Float64(v) => Ok(v.iter().map(|&x| x != 0.0 && !x.is_nan()).collect()),
        Column::Utf8(_) => Err(RelationalError::Evaluation(
            "cannot interpret string column as boolean".into(),
        )),
    }
}

fn cast_column(col: &Column, to: DataType) -> Result<ColumnRef> {
    let out = match (col, to) {
        (c, t) if c.data_type() == t => c.clone(),
        (Column::Utf8(v), DataType::Float64) => Column::Float64(
            v.iter()
                .map(|s| s.parse::<f64>().unwrap_or(f64::NAN))
                .collect(),
        ),
        (Column::Utf8(v), DataType::Int64) => {
            Column::Int64(v.iter().map(|s| s.parse::<i64>().unwrap_or(0)).collect())
        }
        (c, DataType::Float64) => Column::Float64(c.to_f64_vec()?),
        (c, DataType::Int64) => {
            Column::Int64(c.to_f64_vec()?.into_iter().map(|x| x as i64).collect())
        }
        (c, DataType::Boolean) => Column::Boolean(
            c.to_f64_vec()?
                .into_iter()
                .map(|x| x != 0.0 && !x.is_nan())
                .collect(),
        ),
        (Column::Float64(v), DataType::Utf8) => {
            Column::Utf8(v.iter().map(|x| x.to_string()).collect())
        }
        (Column::Int64(v), DataType::Utf8) => {
            Column::Utf8(v.iter().map(|x| x.to_string()).collect())
        }
        (Column::Boolean(v), DataType::Utf8) => {
            Column::Utf8(v.iter().map(|x| x.to_string()).collect())
        }
        (c, t) => {
            return Err(RelationalError::Evaluation(format!(
                "unsupported cast from {} to {}",
                c.data_type(),
                t
            )))
        }
    };
    Ok(Arc::new(out))
}

/// Apply a binary kernel to two already-evaluated columns. Expression
/// evaluation goes through the fused operand path that never materializes
/// literal columns; this entry point exists for kernel-level tests.
#[cfg(test)]
fn evaluate_binary(left: &Column, op: BinaryOp, right: &Column) -> Result<ColumnRef> {
    if left.len() != right.len() {
        return Err(RelationalError::Evaluation(format!(
            "operand length mismatch: {} vs {}",
            left.len(),
            right.len()
        )));
    }
    let l = Operand::Col(Arc::new(left.clone()));
    let r = Operand::Col(Arc::new(right.clone()));
    let rows = left.len();
    match op {
        BinaryOp::And | BinaryOp::Or => {
            let mut a = as_bool_vec(left)?;
            let b = as_bool_vec(right)?;
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x = if op == BinaryOp::And {
                    *x && *y
                } else {
                    *x || *y
                };
            }
            Ok(Arc::new(Column::Boolean(a)))
        }
        BinaryOp::Add | BinaryOp::Subtract | BinaryOp::Multiply | BinaryOp::Divide => {
            arithmetic_kernel(l, op, r, rows)
        }
        _ => {
            if l.is_string() && r.is_string() {
                let lv = str_view(&l)?;
                let rv = str_view(&r)?;
                let out: Vec<bool> = (0..rows)
                    .map(|i| compare_ord(lv.get(i).cmp(rv.get(i)), op))
                    .collect();
                return Ok(Arc::new(Column::Boolean(out)));
            }
            if l.is_string() || r.is_string() {
                return Err(RelationalError::Evaluation(format!(
                    "cannot compare {} with {}",
                    l.data_type(),
                    r.data_type()
                )));
            }
            let lv = num_view(&l)?;
            let rv = num_view(&r)?;
            let out: Vec<bool> = (0..rows)
                .map(|i| apply_cmp(op, lv.get(i), rv.get(i)))
                .collect();
            Ok(Arc::new(Column::Boolean(out)))
        }
    }
}

fn compare_ord(ord: std::cmp::Ordering, op: BinaryOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => false,
    }
}

/// The evaluator before selection vectors, kept as the parity oracle:
/// every WHEN, THEN and ELSE runs over the whole batch and the result is
/// assembled row by row from boxed [`Value`]s.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn active() -> bool {
        ACTIVE.get()
    }

    /// [`super::evaluate`] with every CASE, at any depth, evaluated the
    /// reference way.
    pub(super) fn evaluate(expr: &Expr, batch: &Batch) -> Result<ColumnRef> {
        ACTIVE.set(true);
        let out = super::evaluate(expr, batch);
        ACTIVE.set(false);
        out
    }

    pub(super) fn case(
        when_then: &[(Expr, Expr)],
        else_expr: &Expr,
        batch: &Batch,
        sel: &SelectionVector,
    ) -> Result<ColumnRef> {
        // only the selection-vector CASE narrows a selection
        assert!(sel.is_all());
        let rows = batch.num_rows();
        let mut result: Vec<Value> = vec![Value::Null; rows];
        let mut decided = vec![false; rows];
        for (when, then) in when_then {
            let cond = super::evaluate_predicate(when, batch)?;
            let then_col = super::evaluate(then, batch)?;
            for i in 0..rows {
                if !decided[i] && cond[i] {
                    result[i] = then_col.value(i)?;
                    decided[i] = true;
                }
            }
            recycle_mask(cond);
        }
        let else_col = super::evaluate(else_expr, batch)?;
        for i in 0..rows {
            if !decided[i] {
                result[i] = else_col.value(i)?;
            }
        }
        Ok(Arc::new(Column::from_values(&result)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{case, col, lit};
    use proptest::prelude::*;
    use raven_columnar::TableBuilder;

    /// Evaluate with the selection-vector CASE and assert that the reference
    /// evaluator agrees bit for bit.
    fn eval_checked(e: &Expr, b: &Batch) -> ColumnRef {
        let got = evaluate(e, b).unwrap();
        assert_bitwise(&got, &reference::evaluate(e, b).unwrap(), e);
        got
    }

    fn assert_bitwise(got: &Column, want: &Column, e: &Expr) {
        match (got, want) {
            (Column::Float64(x), Column::Float64(y)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{e}");
            }
            (x, y) => assert_eq!(x, y, "{e}"),
        }
    }

    /// [`eval_checked`], plus: under a random selection of `b`'s rows,
    /// [`evaluate_selected`] is bitwise [`evaluate`] followed by a gather.
    fn eval_checked_selected(e: &Expr, b: &Batch, rng: &mut TestRng) {
        let full = eval_checked(e, b);
        let keep = rng.next_f64();
        let mask: Vec<bool> = (0..b.num_rows()).map(|_| rng.next_f64() < keep).collect();
        let sel = SelectionVector::from_mask(&mask);
        let got = evaluate_selected(e, b, &sel).unwrap();
        assert_bitwise(&got, &full.gather(&sel).unwrap(), e);
    }

    fn batch() -> Batch {
        TableBuilder::new("t")
            .add_f64("age", vec![30.0, 65.0, 70.0])
            .add_i64("asthma", vec![1, 0, 1])
            .add_utf8("state", vec!["wa".into(), "ca".into(), "wa".into()])
            .add_bool("flag", vec![true, false, true])
            .build_batch()
            .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = evaluate(&col("age"), &b).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[30.0, 65.0, 70.0]);
        let l = evaluate(&lit(2i64), &b).unwrap();
        assert_eq!(l.as_i64().unwrap(), &[2, 2, 2]);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let b = batch();
        let e = col("age").mul(lit(2.0)).add(lit(1.0));
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[61.0, 131.0, 141.0]);

        let p = col("age").gt(lit(60.0));
        assert_eq!(evaluate_predicate(&p, &b).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let b = batch();
        let e = col("asthma").add(lit(10i64));
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.as_i64().unwrap(), &[11, 10, 11]);
    }

    #[test]
    fn division_by_zero_yields_nan() {
        let b = batch();
        let e = col("age").div(lit(0.0));
        let c = evaluate(&e, &b).unwrap();
        assert!(c.as_f64().unwrap().iter().all(|x| x.is_nan()));
    }

    #[test]
    fn string_comparison() {
        let b = batch();
        let e = col("state").eq(lit("wa"));
        assert_eq!(evaluate_predicate(&e, &b).unwrap(), vec![true, false, true]);
        assert!(evaluate(&col("state").gt(lit(1.0)), &b).is_err());
    }

    #[test]
    fn boolean_logic_and_not() {
        let b = batch();
        let e = col("flag").and(col("asthma").eq(lit(1i64)));
        assert_eq!(evaluate_predicate(&e, &b).unwrap(), vec![true, false, true]);
        let n = col("flag").negate();
        assert_eq!(
            evaluate_predicate(&n, &b).unwrap(),
            vec![false, true, false]
        );
    }

    /// The fused mask kernels (compare→mask, AND/OR in place, literal
    /// scalars) must agree with materializing each step through `evaluate`.
    #[test]
    fn fused_predicates_match_materialized_evaluation() {
        let b = batch();
        let exprs = vec![
            col("age").gt(lit(60.0)).and(col("asthma").eq(lit(1i64))),
            col("age").lt_eq(lit(65.0)).or(col("flag")),
            col("state").eq(lit("wa")).and(col("age").gt_eq(lit(30.0))),
            col("age").is_null().negate().and(col("flag")),
            col("age")
                .sub(lit(40.0))
                .gt(col("asthma").cast(DataType::Float64)),
        ];
        for e in exprs {
            let fused = evaluate_predicate(&e, &b).unwrap();
            let via_column = evaluate(&e, &b).unwrap();
            assert_eq!(&fused, via_column.as_bool().unwrap(), "{e:?}");
        }
    }

    #[test]
    fn case_expression_first_match_wins() {
        let b = batch();
        let e = case(
            vec![
                (col("age").gt(lit(60.0)), lit("senior")),
                (col("age").gt(lit(20.0)), lit("adult")),
            ],
            lit("minor"),
        );
        let c = eval_checked(&e, &b);
        assert_eq!(
            c.as_utf8().unwrap(),
            &[
                "adult".to_string(),
                "senior".to_string(),
                "senior".to_string()
            ]
        );
    }

    #[test]
    fn nested_case_numeric() {
        let b = batch();
        // The paper's §5.1 example: nested CASE emitted for a depth-2 tree.
        let e = case(
            vec![(
                col("age").gt(lit(60.0)),
                case(vec![(col("asthma").eq(lit(0i64)), lit(1.0))], lit(0.0)),
            )],
            case(vec![(col("asthma").eq(lit(1i64)), lit(1.0))], lit(0.0)),
        );
        let c = eval_checked(&e, &b);
        assert_eq!(c.as_f64().unwrap(), &[1.0, 1.0, 0.0]);
    }

    /// The CASE result type follows the arms, not the arm row 0 takes: an
    /// Int64/Float64 mix is Float64 in either row order, and planning agrees.
    #[test]
    fn case_type_does_not_depend_on_row_order() {
        let e = case(vec![(col("x").gt(lit(0.0)), lit(1i64))], lit(0.5));
        for xs in [vec![1.0, -1.0], vec![-1.0, 1.0]] {
            let b = TableBuilder::new("t")
                .add_f64("x", xs.clone())
                .build_batch()
                .unwrap();
            let want: Vec<f64> = xs
                .iter()
                .map(|&x| if x > 0.0 { 1.0 } else { 0.5 })
                .collect();
            assert_eq!(evaluate(&e, &b).unwrap().as_f64().unwrap(), want);
            // any other mix is an error, even when no row takes the odd arm
            let mixed = case(vec![(col("x").gt(lit(9.0)), lit("big"))], lit(0.5));
            assert!(evaluate(&mixed, &b).is_err());
        }
        let lookup = |_: &str| Some(DataType::Float64);
        assert_eq!(expr_data_type(&e, &lookup), DataType::Float64);
        let ints = case(vec![(col("x").gt(lit(0.0)), lit(1i64))], lit(2i64));
        assert_eq!(expr_data_type(&ints, &lookup), DataType::Int64);
    }

    /// A type error in an arm no row reaches still fails, in both evaluators,
    /// also when the arm sits in a nested CASE under a partial selection.
    #[test]
    fn unreached_arm_type_error_fails_both_evaluators() {
        let b = batch();
        let bad = case(
            vec![(col("age").gt(lit(1e9)), col("state").sub(lit(1.0)))],
            lit(0.0),
        );
        let nested = case(vec![(col("age").gt(lit(60.0)), bad.clone())], lit(1.0));
        for e in [bad, nested] {
            assert!(evaluate(&e, &b).is_err(), "{e}");
            assert!(reference::evaluate(&e, &b).is_err(), "{e}");
        }
    }

    #[derive(Clone, Copy)]
    enum ArmKind {
        Float,
        Int,
        Utf8,
        Bool,
    }

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn random_batch(rng: &mut TestRng, rows: usize) -> Batch {
        let mut b = TableBuilder::new("t");
        for name in ["f0", "f1", "f2"] {
            let v = (0..rows)
                .map(|_| match rng.next_f64() < 0.1 {
                    true => f64::NAN,
                    false => rng.next_f64() * 6.0 - 3.0,
                })
                .collect();
            b = b.add_f64(name, v);
        }
        let ints = (0..rows).map(|_| pick(rng, 11) as i64 - 5).collect();
        let strs = (0..rows)
            .map(|_| ["a", "b", "c", ""][pick(rng, 4)].to_string())
            .collect();
        b.add_i64("i0", ints)
            .add_utf8("s0", strs)
            .build_batch()
            .unwrap()
    }

    /// MLtoSQL's scaled feature `(c - off) * s`, or a raw column.
    fn feature(rng: &mut TestRng) -> Expr {
        let c = col(["f0", "f1", "f2"][pick(rng, 3)]);
        if rng.next_f64() < 0.5 {
            c.sub(lit(rng.next_f64() - 0.5))
                .mul(lit(0.5 + rng.next_f64()))
        } else {
            c
        }
    }

    fn condition(rng: &mut TestRng, depth: usize) -> Expr {
        match pick(rng, 10) {
            // never true: the arm is reached by no row
            0 => lit(false),
            1 => feature(rng).gt(lit(100.0)),
            2 => col("s0").eq(lit("a")),
            3 => col("i0").lt_eq(lit(pick(rng, 7) as i64 - 3)),
            4 => feature(rng).is_null(),
            // a CASE inside a condition, evaluated under the undecided rows
            5 if depth > 0 => nested_case(rng, ArmKind::Float, depth.min(2)).gt(lit(0.0)),
            _ => feature(rng).lt_eq(lit(rng.next_f64() * 4.0 - 2.0)),
        }
    }

    fn leaf(rng: &mut TestRng, kind: ArmKind) -> Expr {
        let literal = rng.next_f64() < 0.7;
        match kind {
            ArmKind::Float if rng.next_f64() < 0.05 => lit(f64::NAN),
            ArmKind::Float if literal => lit(rng.next_f64() * 10.0 - 5.0),
            ArmKind::Float => feature(rng),
            ArmKind::Int if literal => lit(pick(rng, 1000) as i64 - 500),
            ArmKind::Int => col("i0").mul(lit(3i64)),
            ArmKind::Utf8 if literal => lit(["x", "y", "z"][pick(rng, 3)]),
            ArmKind::Utf8 => col("s0"),
            ArmKind::Bool if literal => lit(rng.next_f64() < 0.5),
            ArmKind::Bool => feature(rng).gt(lit(0.0)),
        }
    }

    /// A CASE of depth up to `depth` whose arms all have one type: several
    /// WHENs near the leaves, MLtoSQL's binary split above.
    fn nested_case(rng: &mut TestRng, kind: ArmKind, depth: usize) -> Expr {
        if depth == 0 || rng.next_f64() < 0.1 {
            return leaf(rng, kind);
        }
        let whens = if depth <= 2 { 1 + pick(rng, 3) } else { 1 };
        let when_then = (0..whens)
            .map(|_| (condition(rng, depth - 1), nested_case(rng, kind, depth - 1)))
            .collect();
        case(when_then, nested_case(rng, kind, depth - 1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The selection-vector CASE is bitwise-equal to the reference on
        /// generated nested CASEs of depth 1-10 over NaN-bearing data, alone
        /// and summed the way MLtoSQL combines ensemble trees; evaluated
        /// under a random selection, it is the full result gathered.
        #[test]
        fn selection_vector_case_matches_reference(seed in 0u64..1_000_000, rows in 1usize..120) {
            let mut rng = TestRng::deterministic(&format!("case-{seed}"));
            let b = random_batch(&mut rng, rows);
            for depth in 1..=10 {
                for kind in [ArmKind::Float, ArmKind::Int, ArmKind::Utf8, ArmKind::Bool] {
                    let e = nested_case(&mut rng, kind, depth);
                    eval_checked_selected(&e, &b, &mut rng);
                    if let ArmKind::Bool = kind {
                        let mask = evaluate_predicate(&e, &b).unwrap();
                        prop_assert_eq!(&mask, evaluate(&e, &b).unwrap().as_bool().unwrap());
                    }
                }
                let sum = nested_case(&mut rng, ArmKind::Float, depth)
                    .add(nested_case(&mut rng, ArmKind::Float, depth))
                    .mul(lit(0.1));
                eval_checked_selected(&sum, &b, &mut rng);
            }
        }
    }

    #[test]
    fn cast_and_is_null() {
        let b = batch();
        let c = evaluate(&col("asthma").cast(DataType::Float64), &b).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        let s = evaluate(&col("age").cast(DataType::Utf8), &b).unwrap();
        assert_eq!(s.as_utf8().unwrap()[0], "30");

        let b2 = TableBuilder::new("t")
            .add_f64("x", vec![1.0, f64::NAN])
            .build_batch()
            .unwrap();
        assert_eq!(
            evaluate_predicate(&col("x").is_null(), &b2).unwrap(),
            vec![false, true]
        );
    }

    /// Pins the IS NULL convention for every column type: NaN-as-null for
    /// Float64, empty-string-as-null for Utf8, and never-null for the types
    /// without an in-band missing representation (Int64, Boolean).
    #[test]
    fn is_null_convention_across_all_column_types() {
        let b = TableBuilder::new("t")
            .add_f64("f", vec![1.0, f64::NAN, 0.0])
            .add_utf8("s", vec!["x".into(), "".into(), " ".into()])
            .add_i64("i", vec![0, -1, i64::MAX])
            .add_bool("b", vec![true, false, false])
            .build_batch()
            .unwrap();
        assert_eq!(
            evaluate_predicate(&col("f").is_null(), &b).unwrap(),
            vec![false, true, false],
            "Float64: NaN is null, 0.0 is not"
        );
        assert_eq!(
            evaluate_predicate(&col("s").is_null(), &b).unwrap(),
            vec![false, true, false],
            "Utf8: empty string is null, whitespace is not"
        );
        assert_eq!(
            evaluate_predicate(&col("i").is_null(), &b).unwrap(),
            vec![false, false, false],
            "Int64 has no in-band missing representation"
        );
        assert_eq!(
            evaluate_predicate(&col("b").is_null(), &b).unwrap(),
            vec![false, false, false],
            "Boolean has no in-band missing representation"
        );
        // NOT (x IS NULL) composes as expected
        assert_eq!(
            evaluate_predicate(&col("f").is_null().negate(), &b).unwrap(),
            vec![true, false, true]
        );
    }

    /// The convention agrees with what `ColumnStatistics::null_count` counts.
    #[test]
    fn is_null_agrees_with_statistics_null_count() {
        let b = TableBuilder::new("t")
            .add_f64("f", vec![1.0, f64::NAN, f64::NAN])
            .add_utf8("s", vec!["x".into(), "".into(), "y".into()])
            .add_i64("i", vec![1, 2, 3])
            .build_batch()
            .unwrap();
        let stats = b.statistics().unwrap();
        for name in ["f", "s", "i"] {
            let nulls = evaluate_predicate(&col(name).is_null(), &b)
                .unwrap()
                .iter()
                .filter(|&&x| x)
                .count();
            assert_eq!(
                nulls,
                stats.column(name).unwrap().null_count,
                "IS NULL and statistics disagree on column {name}"
            );
        }
    }

    #[test]
    fn expr_type_inference() {
        let lookup = |name: &str| match name {
            "age" => Some(DataType::Float64),
            "asthma" => Some(DataType::Int64),
            "state" => Some(DataType::Utf8),
            _ => None,
        };
        assert_eq!(expr_data_type(&col("state"), &lookup), DataType::Utf8);
        assert_eq!(
            expr_data_type(&col("age").gt(lit(1.0)), &lookup),
            DataType::Boolean
        );
        assert_eq!(
            expr_data_type(&col("asthma").add(lit(1i64)), &lookup),
            DataType::Int64
        );
        assert_eq!(
            expr_data_type(&col("asthma").div(lit(2i64)), &lookup),
            DataType::Float64
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let a = Column::Float64(vec![1.0]);
        let b = Column::Float64(vec![1.0, 2.0]);
        assert!(evaluate_binary(&a, BinaryOp::Add, &b).is_err());
    }
}
