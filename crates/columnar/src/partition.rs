//! Value-based partitioning of tables.
//!
//! The paper (§4.2) exploits the fact that big-data systems store data in
//! partitions — either user-specified or produced by data operations — and
//! compiles a partition-optimized model per partition using per-partition
//! min/max statistics. This module produces such partitioned tables.

use crate::error::{ColumnarError, Result};
use crate::table::{Batch, Table};
use crate::value::Value;
use std::collections::BTreeMap;

/// How to partition a table.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// One partition per distinct value of the column (like a Hive/Spark
    /// partition column or the result of a group-by).
    ByDistinctValue { column: String },
    /// Fixed number of equal-width ranges over a numeric column.
    ByRange { column: String, partitions: usize },
    /// Round-robin split into `partitions` equal-size chunks (no data locality).
    RoundRobin { partitions: usize },
}

/// Partition `table` according to `spec`, returning a new table whose
/// partitions reflect the requested layout and whose `partition_column`
/// records the partitioning key (for value/range partitioning).
pub fn partition_by_column(table: &Table, spec: &PartitionSpec) -> Result<Table> {
    let batch = table.to_batch()?;
    match spec {
        PartitionSpec::ByDistinctValue { column } => {
            let col = batch.column_by_name(column)?;
            let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
            for i in 0..batch.num_rows() {
                let key = group_key(&col.value(i)?);
                groups.entry(key).or_default().push(i);
            }
            let mut partitions = Vec::with_capacity(groups.len().max(1));
            for indices in groups.values() {
                partitions.push(batch.take(indices)?);
            }
            if partitions.is_empty() {
                partitions.push(batch);
            }
            let mut out = Table::new(table.name(), partitions)?;
            out.set_partition_column(Some(column.clone()));
            Ok(out)
        }
        PartitionSpec::ByRange { column, partitions } => {
            if *partitions == 0 {
                return Err(ColumnarError::InvalidArgument(
                    "range partitioning requires at least one partition".into(),
                ));
            }
            let col = batch.column_by_name(column)?;
            let values = col.to_f64_vec()?;
            let (min, max) = values
                .iter()
                .filter(|v| !v.is_nan())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            if !min.is_finite() || !max.is_finite() || min == max {
                // Degenerate domain: keep everything in one partition.
                let mut out = Table::new(table.name(), vec![batch])?;
                out.set_partition_column(Some(column.clone()));
                return Ok(out);
            }
            let width = (max - min) / *partitions as f64;
            let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); *partitions];
            for (i, v) in values.iter().enumerate() {
                let b = if v.is_nan() {
                    0
                } else {
                    (((v - min) / width).floor() as usize).min(*partitions - 1)
                };
                buckets[b].push(i);
            }
            let mut parts = Vec::new();
            for bucket in &buckets {
                if !bucket.is_empty() {
                    parts.push(batch.take(bucket)?);
                }
            }
            if parts.is_empty() {
                parts.push(batch);
            }
            let mut out = Table::new(table.name(), parts)?;
            out.set_partition_column(Some(column.clone()));
            Ok(out)
        }
        PartitionSpec::RoundRobin { partitions } => {
            if *partitions == 0 {
                return Err(ColumnarError::InvalidArgument(
                    "round-robin partitioning requires at least one partition".into(),
                ));
            }
            let rows = batch.num_rows();
            let chunk = rows.div_ceil(*partitions).max(1);
            let parts = batch.chunks(chunk)?;
            Table::new(table.name(), parts)
        }
    }
}

fn group_key(value: &Value) -> String {
    match value {
        Value::Utf8(s) => format!("s:{s}"),
        Value::Int64(i) => format!("i:{i:020}"),
        Value::Float64(f) => format!("f:{f:024.6}"),
        Value::Boolean(b) => format!("b:{b}"),
        Value::Null => "null".to_string(),
    }
}

/// Compute, for each partition of `table`, how many rows it holds — a small
/// helper used by harnesses to report partition layouts.
pub fn partition_sizes(table: &Table) -> Vec<usize> {
    table.partitions().iter().map(Batch::num_rows).collect()
}

/// Check that a partitioned table covers exactly the same multiset of key
/// values as the original (sanity helper for tests / property checks).
pub fn same_key_multiset(original: &Table, partitioned: &Table, key: &str) -> Result<bool> {
    let collect = |t: &Table| -> Result<Vec<String>> {
        let mut keys = Vec::new();
        for p in t.partitions() {
            let col = p.column_by_name(key)?;
            for i in 0..p.num_rows() {
                keys.push(group_key(&col.value(i)?));
            }
        }
        keys.sort();
        Ok(keys)
    };
    Ok(collect(original)? == collect(partitioned)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new("hospital")
            .add_i64("id", vec![1, 2, 3, 4, 5, 6])
            .add_i64("rcount", vec![0, 1, 0, 2, 1, 0])
            .add_f64("age", vec![30.0, 70.0, 45.0, 80.0, 25.0, 60.0])
            .build()
            .unwrap()
    }

    #[test]
    fn by_distinct_value() {
        let t = table();
        let p = partition_by_column(
            &t,
            &PartitionSpec::ByDistinctValue {
                column: "rcount".into(),
            },
        )
        .unwrap();
        assert_eq!(p.partitions().len(), 3);
        assert_eq!(p.partition_column(), Some("rcount"));
        assert_eq!(p.num_rows(), 6);
        assert!(same_key_multiset(&t, &p, "id").unwrap());
        // each partition has a constant rcount
        for stats in p.partition_statistics() {
            assert!(stats.column("rcount").unwrap().is_constant());
        }
    }

    #[test]
    fn by_range() {
        let t = table();
        let p = partition_by_column(
            &t,
            &PartitionSpec::ByRange {
                column: "age".into(),
                partitions: 2,
            },
        )
        .unwrap();
        assert!(p.partitions().len() <= 2);
        assert_eq!(p.num_rows(), 6);
        let ranges: Vec<(f64, f64)> = p
            .partition_statistics()
            .iter()
            .map(|s| s.column("age").unwrap().numeric_range().unwrap())
            .collect();
        // ranges must be disjoint and ordered by construction of equal-width buckets
        assert!(ranges[0].1 <= ranges[ranges.len() - 1].0 + 1e-9 || ranges.len() == 1);
    }

    #[test]
    fn by_range_degenerate_domain() {
        let t = TableBuilder::new("t")
            .add_f64("x", vec![5.0, 5.0, 5.0])
            .build()
            .unwrap();
        let p = partition_by_column(
            &t,
            &PartitionSpec::ByRange {
                column: "x".into(),
                partitions: 4,
            },
        )
        .unwrap();
        assert_eq!(p.partitions().len(), 1);
    }

    #[test]
    fn round_robin() {
        let t = table();
        let p = partition_by_column(&t, &PartitionSpec::RoundRobin { partitions: 4 }).unwrap();
        assert_eq!(p.num_rows(), 6);
        assert!(p.partitions().len() >= 2);
        assert_eq!(p.partition_column(), None);
    }

    #[test]
    fn zero_partitions_rejected() {
        let t = table();
        assert!(partition_by_column(&t, &PartitionSpec::RoundRobin { partitions: 0 }).is_err());
        assert!(partition_by_column(
            &t,
            &PartitionSpec::ByRange {
                column: "age".into(),
                partitions: 0
            }
        )
        .is_err());
    }

    #[test]
    fn missing_column_rejected() {
        let t = table();
        assert!(partition_by_column(
            &t,
            &PartitionSpec::ByDistinctValue {
                column: "nope".into()
            }
        )
        .is_err());
    }

    #[test]
    fn partition_sizes_helper() {
        let t = table();
        let p = partition_by_column(
            &t,
            &PartitionSpec::ByDistinctValue {
                column: "rcount".into(),
            },
        )
        .unwrap();
        let sizes = partition_sizes(&p);
        assert_eq!(sizes.iter().sum::<usize>(), 6);
    }
}
