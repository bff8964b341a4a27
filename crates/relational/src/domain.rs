//! Interval domains of comparison predicates: what `column <op> literal`
//! conjuncts and min/max column statistics imply about column values.
//!
//! One [`Interval`] (closed `[lo, hi]` plus a may-be-NaN flag) serves every
//! consumer: statistics-based partition pruning ([`may_satisfy`]), the
//! [`ColumnBox`] that predicate-based and data-induced model pruning map to
//! feature space (paper §4.1–§4.2), and the range selectivity of
//! [`crate::cost`] (`half_line`).
//!
//! **Partition pruning.** Given a partition's per-column min/max statistics
//! and a conjunctive scan predicate, decide whether the partition can
//! possibly contain a satisfying row. Partitions whose statistics prove the
//! predicate always-false are skipped without being scanned — the paper's
//! data-induced *compute pruning* (§4.2) applied to the relational side of a
//! prediction query.
//!
//! The analysis is deliberately conservative: it returns `false` (prune) only
//! when the predicate is provably unsatisfiable over every row the statistics
//! admit, and `true` (keep) whenever it cannot tell. Missing values are
//! represented in-band (NaN / empty string), so a column with `null_count > 0`
//! additionally admits the "missing" outcome, mirroring the evaluator's IEEE
//! comparison semantics (`NaN != x` is true, every other comparison with NaN
//! is false) — that only widens the predicate's possible outcomes and never
//! causes an incorrect prune. The same reasoning makes a model-pruning box
//! carry the NaN flag: a tree sends NaN right, so a branch is "always left"
//! only when the box admits no NaN.

use crate::expr::{BinaryOp, Expr};
use raven_columnar::{Interval, TableStatistics, Value};
use std::collections::BTreeMap;

impl BinaryOp {
    /// The comparison with its operands swapped: `a op b` holds iff
    /// `b op.flip() a` does. Other operators are returned unchanged.
    pub fn flip(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
}

impl Expr {
    /// If this is a simple `column <op> literal` (or `literal <op> column`)
    /// comparison, aliases seen through, return `(column, op, literal)` with
    /// the operator oriented so the column is on the left.
    pub fn as_column_literal_comparison(&self) -> Option<(&str, BinaryOp, &Value)> {
        fn bare(expr: &Expr) -> &Expr {
            match expr {
                Expr::Alias { expr, .. } => bare(expr),
                other => other,
            }
        }
        let Expr::Binary { left, op, right } = self else {
            return None;
        };
        if !op.is_predicate() || matches!(op, BinaryOp::And | BinaryOp::Or) {
            return None;
        }
        match (bare(left), bare(right)) {
            (Expr::Column(c), Expr::Literal(v)) => Some((c.as_str(), *op, v)),
            (Expr::Literal(v), Expr::Column(c)) => Some((c.as_str(), op.flip(), v)),
            _ => None,
        }
    }
}

/// The values `x` for which `x op lit` holds, as a closed interval: strict
/// comparisons widen to their closure and `=` is a point. NaN satisfies none
/// of these comparisons, so the interval admits no NaN. `None` for `<>` and
/// non-comparisons.
pub(crate) fn half_line(op: BinaryOp, lit: f64) -> Option<Interval> {
    let (lo, hi) = match op {
        BinaryOp::Eq => (lit, lit),
        BinaryOp::Lt | BinaryOp::LtEq => (f64::NEG_INFINITY, lit),
        BinaryOp::Gt | BinaryOp::GtEq => (lit, f64::INFINITY),
        _ => return None,
    };
    Some(Interval {
        lo,
        hi,
        may_be_nan: false,
    })
}

// ---------------------------------------------------------------------------
// Partition pruning: the outcomes a predicate may take over a statistics box
// ---------------------------------------------------------------------------

/// The set of boolean outcomes a predicate may take over the rows a
/// statistics object admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcomes {
    may_true: bool,
    may_false: bool,
}

impl Outcomes {
    const UNKNOWN: Outcomes = Outcomes {
        may_true: true,
        may_false: true,
    };
    fn certain(value: bool) -> Outcomes {
        Outcomes {
            may_true: value,
            may_false: !value,
        }
    }
}

/// Possible outcomes of `x op lit` over every `x` the interval admits.
fn compare_interval(interval: Interval, op: BinaryOp, lit: f64) -> Outcomes {
    if lit.is_nan() {
        return Outcomes::UNKNOWN;
    }
    let Interval { lo, hi, may_be_nan } = interval;
    let (may_true, may_false) = match op {
        BinaryOp::Eq => (lo <= lit && lit <= hi, !(lo == lit && hi == lit)),
        BinaryOp::NotEq => (!(lo == lit && hi == lit), lo <= lit && lit <= hi),
        BinaryOp::Lt => (lo < lit, hi >= lit),
        BinaryOp::LtEq => (lo <= lit, hi > lit),
        BinaryOp::Gt => (hi > lit, lo <= lit),
        BinaryOp::GtEq => (hi >= lit, lo < lit),
        _ => return Outcomes::UNKNOWN,
    };
    // A missing (NaN) value follows the evaluator's IEEE comparison
    // semantics: `NaN != x` is true, every other comparison with NaN is
    // false. Widen exactly the outcome a NaN row would produce.
    let missing_is_true = op == BinaryOp::NotEq;
    Outcomes {
        may_true: may_true || (may_be_nan && missing_is_true),
        may_false: may_false || (may_be_nan && !missing_is_true),
    }
}

/// Evaluated lazily against the statistics: nothing is allocated, so the
/// executor can ask once per partition.
fn outcomes(expr: &Expr, stats: &TableStatistics) -> Outcomes {
    match expr {
        Expr::Literal(v) => match v {
            Value::Boolean(b) => Outcomes::certain(*b),
            Value::Int64(i) => Outcomes::certain(*i != 0),
            Value::Float64(f) => Outcomes::certain(*f != 0.0 && !f.is_nan()),
            _ => Outcomes::UNKNOWN,
        },
        Expr::Alias { expr, .. } => outcomes(expr, stats),
        Expr::Not(inner) => {
            let o = outcomes(inner, stats);
            Outcomes {
                may_true: o.may_false,
                may_false: o.may_true,
            }
        }
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let l = outcomes(left, stats);
            let r = outcomes(right, stats);
            Outcomes {
                may_true: l.may_true && r.may_true,
                may_false: l.may_false || r.may_false,
            }
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let l = outcomes(left, stats);
            let r = outcomes(right, stats);
            Outcomes {
                may_true: l.may_true || r.may_true,
                may_false: l.may_false && r.may_false,
            }
        }
        _ => expr
            .as_column_literal_comparison()
            .and_then(|(column, op, value)| {
                let interval = stats.column(column)?.interval()?;
                Some(compare_interval(interval, op, value.as_f64()?))
            })
            .unwrap_or(Outcomes::UNKNOWN),
    }
}

/// Whether a partition with the given statistics may contain a row satisfying
/// `predicate`. `false` means the partition is provably empty under the
/// predicate and can be pruned without scanning.
pub fn may_satisfy(predicate: &Expr, stats: &TableStatistics) -> bool {
    outcomes(predicate, stats).may_true
}

/// Whether a partition may satisfy *all* predicates of a conjunction.
pub fn may_satisfy_all(predicates: &[Expr], stats: &TableStatistics) -> bool {
    predicates.iter().all(|p| may_satisfy(p, stats))
}

// ---------------------------------------------------------------------------
// Column boxes: per-column domains for model pruning
// ---------------------------------------------------------------------------

/// One column's entry in a [`ColumnBox`].
#[derive(Debug, Clone)]
pub struct ColumnDomain {
    /// The numeric values (and whether NaN) the column may take.
    pub interval: Interval,
    /// The single value the column takes, when known: from an `=` conjunct,
    /// or a constant column without missing values. One-hot encodings need
    /// it, and a Utf8 value has no interval.
    pub value: Option<Value>,
}

/// Per-column domains every admitted row lies in; a column the box does not
/// name is unconstrained.
#[derive(Debug, Clone)]
pub struct ColumnBox {
    columns: BTreeMap<String, ColumnDomain>,
}

impl ColumnBox {
    /// The box every row satisfying all `conjuncts` lies in. Only
    /// `column <op> literal` conjuncts narrow it; any other conjunct is
    /// skipped, which leaves the box wider but still sound.
    pub fn from_conjuncts<'a>(conjuncts: impl IntoIterator<Item = &'a Expr>) -> ColumnBox {
        let mut columns: BTreeMap<String, ColumnDomain> = BTreeMap::new();
        for conjunct in conjuncts {
            let Some((column, op, value)) = conjunct.as_column_literal_comparison() else {
                continue;
            };
            let bound = value.as_f64().and_then(|v| half_line(op, v));
            if bound.is_none() && op != BinaryOp::Eq {
                continue;
            }
            let domain = columns.entry(column.to_string()).or_insert(ColumnDomain {
                interval: Interval::UNBOUNDED,
                value: None,
            });
            if let Some(bound) = bound {
                domain.interval = domain.interval.intersect(bound);
            }
            if op == BinaryOp::Eq {
                domain.value = Some(value.clone());
            }
        }
        ColumnBox { columns }
    }

    /// The box statistics bound every row to: each column's `[min, max]`,
    /// NaN admitted iff it has missing values, plus the value of a constant
    /// column without missing values.
    pub fn from_statistics(stats: &TableStatistics) -> ColumnBox {
        let columns = stats
            .columns
            .iter()
            .map(|cs| {
                let domain = ColumnDomain {
                    interval: cs.interval().unwrap_or(Interval::UNBOUNDED),
                    value: cs.min.clone().filter(|_| cs.is_constant()),
                };
                (cs.name.clone(), domain)
            })
            .collect();
        ColumnBox { columns }
    }

    /// The domain of `column`, when the box constrains it.
    pub fn get(&self, column: &str) -> Option<&ColumnDomain> {
        self.columns.get(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_predicate;
    use crate::expr::{col, lit};
    use proptest::prelude::*;
    use raven_columnar::{Column, ColumnStatistics, TableBuilder};

    #[test]
    fn column_box_from_conjuncts() {
        let a = col("age").gt_eq(lit(30.0));
        let b = lit(50.0).gt(col("age"));
        let c = col("asthma").eq(lit(1i64));
        let d = col("tag").eq(lit("x"));
        let e = col("bpm").not_eq(lit(70.0));
        let cb = ColumnBox::from_conjuncts([&a, &b, &c, &d, &e]);
        let age = cb.get("age").unwrap();
        assert_eq!(
            age.interval,
            Interval {
                lo: 30.0,
                hi: 50.0,
                may_be_nan: false
            }
        );
        assert_eq!(age.value, None);
        let asthma = cb.get("asthma").unwrap();
        assert_eq!((asthma.interval.lo, asthma.interval.hi), (1.0, 1.0));
        assert_eq!(asthma.value, Some(Value::Int64(1)));
        let tag = cb.get("tag").unwrap();
        assert_eq!(tag.interval, Interval::UNBOUNDED);
        assert_eq!(tag.value, Some(Value::Utf8("x".into())));
        // `<>` bounds nothing: NaN and every other number satisfy it
        assert!(cb.get("bpm").is_none());
    }

    #[test]
    fn column_box_from_statistics_keeps_the_nan_flag() {
        let stats = TableBuilder::new("t")
            .add_f64("age", vec![10.0, f64::NAN, 30.0])
            .add_i64("flag", vec![1, 1, 1])
            .add_utf8("tag", vec!["a".into(), "b".into(), "a".into()])
            .build_batch()
            .unwrap()
            .statistics()
            .unwrap();
        let cb = ColumnBox::from_statistics(&stats);
        let age = cb.get("age").unwrap();
        assert_eq!(
            age.interval,
            Interval {
                lo: 10.0,
                hi: 30.0,
                may_be_nan: true
            }
        );
        let flag = cb.get("flag").unwrap();
        assert!(!flag.interval.may_be_nan);
        assert_eq!(flag.value, Some(Value::Int64(1)));
        let tag = cb.get("tag").unwrap();
        assert_eq!((tag.interval, &tag.value), (Interval::UNBOUNDED, &None));
    }

    /// Whether `v` lies in `interval` (NaN iff it admits NaN).
    fn admits(interval: Interval, v: f64) -> bool {
        if v.is_nan() {
            interval.may_be_nan
        } else {
            interval.lo <= v && v <= interval.hi
        }
    }

    /// The literals a conjunct can compare against, and values at and just
    /// past each one — where `<` and `<=` part ways — plus NaN.
    const LITERALS: [f64; 4] = [-1.0, 0.0, 2.5, 7.0];

    fn probe(k: u64) -> f64 {
        let lit = LITERALS[(k % 4) as usize];
        match (k / 4) % 5 {
            0 => lit,
            1 => lit.next_up(),
            2 => lit.next_down(),
            3 => f64::NAN,
            _ => (k % 23) as f64 - 11.0,
        }
    }

    fn comparison(k: u64) -> BinaryOp {
        [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ][(k % 6) as usize]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Soundness of the box and of partition pruning: for random
        /// statistics, conjunctions and rows, a row that satisfies the
        /// conjunction (under the evaluator's own semantics) and lies within
        /// the statistics lies in the box the two build, and its partition is
        /// never pruned.
        #[test]
        fn rows_satisfying_a_conjunction_within_statistics_lie_in_the_box(
            seed in 0u64..0xffff_ffff,
            n_conjuncts in 0usize..5,
            rows in 1usize..40,
        ) {
            let mix = |k: u64| seed.rotate_left((k % 61) as u32).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 7;
            let names = ["a", "b", "c"];
            // rows: literal probes, NaN included, in every column
            let columns: Vec<Vec<f64>> = (0..3u64)
                .map(|c| (0..rows as u64).map(|r| probe(mix(c * 101 + r))).collect())
                .collect();
            // statistics: of a random subset of the rows, so that some rows
            // lie outside them
            let subset: Vec<usize> = (0..rows).filter(|&r| mix(r as u64 + 500) % 3 != 0).collect();
            prop_assume!(!subset.is_empty());
            let stats = raven_columnar::TableStatistics {
                columns: names
                    .iter()
                    .zip(&columns)
                    .map(|(name, values)| {
                        let kept = subset.iter().map(|&r| values[r]).collect();
                        ColumnStatistics::compute(name, &Column::Float64(kept)).unwrap()
                    })
                    .collect(),
                row_count: subset.len(),
            };
            let conjuncts: Vec<Expr> = (0..n_conjuncts as u64)
                .map(|i| {
                    let k = mix(i + 900);
                    let column = col(names[(k % 3) as usize]);
                    let literal = lit(LITERALS[((k >> 3) % 4) as usize]);
                    let op = comparison(k >> 6);
                    if (k >> 9) % 2 == 0 {
                        crate::expr::binary(column, op, literal)
                    } else {
                        crate::expr::binary(literal, op.flip(), column)
                    }
                })
                .collect();
            let mut builder = TableBuilder::new("t");
            for (name, values) in names.iter().zip(&columns) {
                builder = builder.add_f64(name, values.clone());
            }
            let batch = builder.build_batch().unwrap();
            let satisfied = evaluate_predicate(&Expr::conjunction(conjuncts.clone()), &batch).unwrap();
            let by_conjuncts = ColumnBox::from_conjuncts(&conjuncts);
            let by_stats = ColumnBox::from_statistics(&stats);
            let domain = |cb: &ColumnBox, name: &str| cb.get(name).map_or(Interval::UNBOUNDED, |d| d.interval);
            for r in 0..rows {
                let within_stats = names
                    .iter()
                    .zip(&columns)
                    .all(|(name, values)| admits(domain(&by_stats, name), values[r]));
                if !(satisfied[r] && within_stats) {
                    continue;
                }
                prop_assert!(may_satisfy_all(&conjuncts, &stats), "row {} kept, partition pruned", r);
                for (name, values) in names.iter().zip(&columns) {
                    let in_box = domain(&by_conjuncts, name).intersect(domain(&by_stats, name));
                    prop_assert!(
                        admits(in_box, values[r]),
                        "row {}: {} = {} outside {:?}", r, name, values[r], in_box
                    );
                    if let Some(value) = by_conjuncts.get(name).and_then(|d| d.value.as_ref()) {
                        prop_assert_eq!(value.as_f64(), Some(values[r]));
                    }
                }
            }
        }
    }
}
