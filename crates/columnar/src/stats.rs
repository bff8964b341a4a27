//! Column and table statistics.
//!
//! Raven's data-induced optimizations (§4.2 of the paper) use min/max column
//! statistics — global or per-partition — to induce predicates that prune ML
//! models at compile time. This module computes and stores those statistics.

use crate::column::Column;
use crate::error::Result;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Summary statistics for one column (within one partition or the whole table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStatistics {
    /// Column name.
    pub name: String,
    /// Minimum value (None when the column is empty or all-missing).
    pub min: Option<Value>,
    /// Maximum value (None when the column is empty or all-missing).
    pub max: Option<Value>,
    /// Number of missing values (NaN / empty string).
    pub null_count: usize,
    /// Exact number of distinct non-missing values (cheap on the scales we use).
    pub distinct_count: usize,
    /// Number of rows covered.
    pub row_count: usize,
}

impl ColumnStatistics {
    /// Compute statistics for a column.
    pub fn compute(name: &str, column: &Column) -> Result<Self> {
        let row_count = column.len();
        let mut null_count = 0;
        let (min, max, distinct_count) = match column {
            Column::Float64(v) => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut distinct: HashSet<u64> = HashSet::new();
                for &x in v {
                    if x.is_nan() {
                        null_count += 1;
                        continue;
                    }
                    min = min.min(x);
                    max = max.max(x);
                    distinct.insert(x.to_bits());
                }
                if distinct.is_empty() {
                    (None, None, 0)
                } else {
                    (
                        Some(Value::Float64(min)),
                        Some(Value::Float64(max)),
                        distinct.len(),
                    )
                }
            }
            Column::Int64(v) => {
                let mut distinct: HashSet<i64> = HashSet::new();
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                for &x in v {
                    min = min.min(x);
                    max = max.max(x);
                    distinct.insert(x);
                }
                if distinct.is_empty() {
                    (None, None, 0)
                } else {
                    (
                        Some(Value::Int64(min)),
                        Some(Value::Int64(max)),
                        distinct.len(),
                    )
                }
            }
            Column::Utf8(v) => {
                let mut distinct: HashSet<&str> = HashSet::new();
                let mut min: Option<&str> = None;
                let mut max: Option<&str> = None;
                for x in v {
                    if x.is_empty() {
                        null_count += 1;
                        continue;
                    }
                    min = Some(match min {
                        Some(m) if m <= x.as_str() => m,
                        _ => x.as_str(),
                    });
                    max = Some(match max {
                        Some(m) if m >= x.as_str() => m,
                        _ => x.as_str(),
                    });
                    distinct.insert(x.as_str());
                }
                (
                    min.map(|s| Value::Utf8(s.to_string())),
                    max.map(|s| Value::Utf8(s.to_string())),
                    distinct.len(),
                )
            }
            Column::Boolean(v) => {
                let mut distinct: HashSet<bool> = HashSet::new();
                let mut any_true = false;
                let mut any_false = false;
                for &x in v {
                    distinct.insert(x);
                    any_true |= x;
                    any_false |= !x;
                }
                if distinct.is_empty() {
                    (None, None, 0)
                } else {
                    (
                        Some(Value::Boolean(!any_false)),
                        Some(Value::Boolean(any_true)),
                        distinct.len(),
                    )
                }
            }
        };
        Ok(ColumnStatistics {
            name: name.to_string(),
            min,
            max,
            null_count,
            distinct_count,
            row_count,
        })
    }

    /// Both min and max interpreted as `f64` (for numeric/boolean columns).
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        let min = self.min.as_ref()?.as_f64()?;
        let max = self.max.as_ref()?.as_f64()?;
        Some((min, max))
    }

    /// The interval these statistics bound the column to: `[min, max]`,
    /// NaN admitted iff the column has missing values. `None` when the
    /// column has no numeric range (empty, all-missing or Utf8).
    pub fn interval(&self) -> Option<Interval> {
        let (lo, hi) = self.numeric_range()?;
        Some(Interval {
            lo,
            hi,
            may_be_nan: self.null_count > 0,
        })
    }

    /// Whether the column holds a single constant value across the covered rows.
    pub fn is_constant(&self) -> bool {
        self.distinct_count == 1 && self.null_count == 0
    }

    /// Estimated fraction of rows matching `column = <literal>` under the
    /// classical uniformity assumption: one out of `distinct_count` values.
    /// `None` when the column has no distinct values (empty / all-missing).
    pub fn equality_selectivity(&self) -> Option<f64> {
        if self.distinct_count == 0 {
            return None;
        }
        Some(1.0 / self.distinct_count as f64)
    }

    /// Merge statistics of two partitions of the same column.
    pub fn merge(&self, other: &ColumnStatistics) -> ColumnStatistics {
        use std::cmp::Ordering;
        let min = match (&self.min, &other.min) {
            (Some(a), Some(b)) => Some(if a.partial_cmp_value(b) == Some(Ordering::Greater) {
                b.clone()
            } else {
                a.clone()
            }),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        let max = match (&self.max, &other.max) {
            (Some(a), Some(b)) => Some(if a.partial_cmp_value(b) == Some(Ordering::Less) {
                b.clone()
            } else {
                a.clone()
            }),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        ColumnStatistics {
            name: self.name.clone(),
            min,
            max,
            null_count: self.null_count + other.null_count,
            // Upper bound; exact merge would require re-hashing the data.
            distinct_count: self.distinct_count.max(other.distinct_count),
            row_count: self.row_count + other.row_count,
        }
    }
}

/// A closed interval `[lo, hi]` a column's (or a model feature's) values lie
/// in, plus whether the in-band missing marker NaN may occur too. It is the
/// one value domain behind partition pruning, predicate-based and
/// data-induced model pruning and range selectivity (paper §4.1–§4.2). An
/// interval with `lo > hi` admits no number; NaN alone may remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
    pub may_be_nan: bool,
}

impl Interval {
    /// Every value, NaN included: the domain of an unconstrained column.
    pub const UNBOUNDED: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        may_be_nan: true,
    };

    /// The values both intervals admit.
    pub fn intersect(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
            may_be_nan: self.may_be_nan && other.may_be_nan,
        }
    }

    /// Whether the interval admits no value at all, NaN included.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi && !self.may_be_nan
    }

    /// Estimated fraction of a column bounded by `self` whose values fall in
    /// `range`, interpolated uniformly over `[lo, hi]` (the classical
    /// uniformity assumption). Either end of `range` may be infinite
    /// (one-sided comparisons); a `range` admitting NaN counts no NaN row.
    pub fn fraction(&self, range: Interval) -> f64 {
        let covered = Interval {
            may_be_nan: false,
            ..range
        }
        .intersect(*self);
        if covered.is_empty() {
            return 0.0;
        }
        if self.hi <= self.lo {
            // constant column: the range either covers the value or not
            return 1.0;
        }
        ((covered.hi - covered.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// Statistics for a whole batch / partition / table: one entry per column.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TableStatistics {
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStatistics>,
    /// Total row count.
    pub row_count: usize,
}

impl TableStatistics {
    /// Compute statistics for an aligned set of (name, column) pairs.
    pub fn compute(columns: &[(&str, &Column)]) -> Result<Self> {
        let row_count = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        let columns = columns
            .iter()
            .map(|(name, col)| ColumnStatistics::compute(name, col))
            .collect::<Result<Vec<_>>>()?;
        Ok(TableStatistics { columns, row_count })
    }

    /// Look up statistics for a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnStatistics> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Merge statistics across partitions (column-wise).
    pub fn merge(&self, other: &TableStatistics) -> TableStatistics {
        if self.columns.is_empty() {
            return other.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match other.column(&c.name) {
                Some(o) => c.merge(o),
                None => c.clone(),
            })
            .collect();
        TableStatistics {
            columns,
            row_count: self.row_count + other.row_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_stats_with_missing() {
        let c = Column::Float64(vec![1.0, f64::NAN, 3.0, 2.0]);
        let s = ColumnStatistics::compute("x", &c).unwrap();
        assert_eq!(s.null_count, 1);
        assert_eq!(s.numeric_range(), Some((1.0, 3.0)));
        assert_eq!(
            s.interval(),
            Some(Interval {
                lo: 1.0,
                hi: 3.0,
                may_be_nan: true
            })
        );
        assert_eq!(s.distinct_count, 3);
        assert_eq!(s.row_count, 4);
    }

    #[test]
    fn int_stats() {
        let c = Column::Int64(vec![5, 5, 7]);
        let s = ColumnStatistics::compute("k", &c).unwrap();
        assert_eq!(s.min, Some(Value::Int64(5)));
        assert_eq!(s.max, Some(Value::Int64(7)));
        assert_eq!(s.distinct_count, 2);
        assert!(!s.is_constant());
    }

    #[test]
    fn constant_detection_and_domain() {
        let c = Column::Int64(vec![1, 1, 1]);
        let s = ColumnStatistics::compute("flag", &c).unwrap();
        assert!(s.is_constant());
        assert_eq!(
            s.interval(),
            Some(Interval {
                lo: 1.0,
                hi: 1.0,
                may_be_nan: false
            })
        );
    }

    #[test]
    fn string_stats() {
        let c = Column::Utf8(vec!["b".into(), "".into(), "a".into()]);
        let s = ColumnStatistics::compute("cat", &c).unwrap();
        assert_eq!(s.null_count, 1);
        assert_eq!(s.min, Some(Value::Utf8("a".into())));
        assert_eq!(s.max, Some(Value::Utf8("b".into())));
        assert_eq!(s.interval(), None);
    }

    #[test]
    fn bool_stats() {
        let c = Column::Boolean(vec![false, true]);
        let s = ColumnStatistics::compute("b", &c).unwrap();
        assert_eq!(s.min, Some(Value::Boolean(false)));
        assert_eq!(s.max, Some(Value::Boolean(true)));
    }

    #[test]
    fn empty_column_stats() {
        let c = Column::Float64(vec![]);
        let s = ColumnStatistics::compute("x", &c).unwrap();
        assert_eq!(s.min, None);
        assert_eq!(s.numeric_range(), None);
        assert_eq!(s.interval(), None);
    }

    #[test]
    fn merge_stats() {
        let a = ColumnStatistics::compute("x", &Column::Float64(vec![1.0, 2.0])).unwrap();
        let b = ColumnStatistics::compute("x", &Column::Float64(vec![5.0])).unwrap();
        let m = a.merge(&b);
        assert_eq!(m.numeric_range(), Some((1.0, 5.0)));
        assert_eq!(m.row_count, 3);
    }

    #[test]
    fn table_stats_lookup_and_merge() {
        let c1 = Column::Int64(vec![1, 2]);
        let c2 = Column::Float64(vec![0.5, 1.5]);
        let t1 = TableStatistics::compute(&[("id", &c1), ("x", &c2)]).unwrap();
        assert_eq!(t1.row_count, 2);
        assert!(t1.column("id").is_some());
        assert!(t1.column("nope").is_none());

        let c3 = Column::Int64(vec![9]);
        let c4 = Column::Float64(vec![-2.0]);
        let t2 = TableStatistics::compute(&[("id", &c3), ("x", &c4)]).unwrap();
        let m = t1.merge(&t2);
        assert_eq!(m.row_count, 3);
        assert_eq!(m.column("x").unwrap().numeric_range(), Some((-2.0, 1.5)));
    }

    #[test]
    fn selectivity_helpers() {
        let s = ColumnStatistics::compute("x", &Column::Float64(vec![0.0, 10.0, 5.0])).unwrap();
        assert_eq!(s.equality_selectivity(), Some(1.0 / 3.0));
        let x = s.interval().unwrap();
        let range = |lo, hi| Interval {
            lo,
            hi,
            may_be_nan: false,
        };
        assert_eq!(x.fraction(range(0.0, 5.0)), 0.5);
        assert_eq!(x.fraction(range(f64::NEG_INFINITY, 2.5)), 0.25);
        assert_eq!(x.fraction(range(8.0, f64::INFINITY)), 0.2);
        assert_eq!(x.fraction(range(20.0, 30.0)), 0.0);
        assert_eq!(x.fraction(range(-10.0, 30.0)), 1.0);
        // NaN in the range never counts rows: the estimate is the same
        assert_eq!(x.fraction(Interval::UNBOUNDED), 1.0);

        let constant = ColumnStatistics::compute("c", &Column::Int64(vec![7, 7])).unwrap();
        let c = constant.interval().unwrap();
        assert_eq!(c.fraction(range(0.0, 10.0)), 1.0);
        assert_eq!(c.fraction(range(8.0, 10.0)), 0.0);

        let empty = ColumnStatistics::compute("e", &Column::Float64(vec![])).unwrap();
        assert_eq!(empty.equality_selectivity(), None);
        assert_eq!(empty.interval(), None);
    }

    #[test]
    fn interval_intersect_keeps_nan_only_when_both_admit_it() {
        let stats = Interval {
            lo: 0.0,
            hi: 10.0,
            may_be_nan: true,
        };
        let both = stats.intersect(Interval::UNBOUNDED);
        assert_eq!(both, stats);
        let half = Interval {
            lo: f64::NEG_INFINITY,
            hi: -1.0,
            may_be_nan: false,
        };
        let none = stats.intersect(half);
        assert!(none.lo > none.hi && none.is_empty());
        // an empty numeric range that still admits NaN is not empty
        assert!(!stats
            .intersect(Interval {
                may_be_nan: true,
                ..half
            })
            .is_empty());
    }

    #[test]
    fn range_domain() {
        let c = Column::Float64(vec![10.0, 20.0]);
        let s = ColumnStatistics::compute("age", &c).unwrap();
        assert_eq!(
            s.interval(),
            Some(Interval {
                lo: 10.0,
                hi: 20.0,
                may_be_nan: false
            })
        );
    }
}
