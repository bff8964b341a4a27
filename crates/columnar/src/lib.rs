//! # raven-columnar
//!
//! In-memory columnar storage substrate for the Raven prediction-query
//! optimizer. It provides typed columns, schemas, record batches, tables made
//! of partitions, and the per-column / per-partition statistics (min, max,
//! null count, distinct estimate) that Raven's data-induced optimizations
//! (§4.2 of the paper) rely on.
//!
//! The design mirrors what the paper assumes from Parquet/columnstore storage:
//! data lives in columns, is split into partitions (either user-specified or
//! value-based), and cheap summary statistics are maintained per partition so
//! the optimizer can prune work without scanning.
//!
//! Missing values are represented in-band: `f64::NAN` for numeric columns and
//! the empty string for string columns. This keeps the execution kernels
//! simple (no validity bitmaps) while still letting the ML featurizers
//! (e.g. the `Imputer`) exercise the missing-data code paths.

pub mod column;
pub mod envcfg;
pub mod error;
pub mod failpoint;
pub mod hash;
pub mod partition;
pub mod pool;
pub mod schema;
pub mod selection;
pub mod stats;
pub mod stream;
pub mod table;
pub mod value;

pub use column::{Column, ColumnRef};
pub use error::{ColumnarError, Result};
pub use hash::{fast_hash, FastMap};
pub use partition::{partition_by_column, partition_sizes, PartitionSpec};
pub use pool::{parallel_map, WorkerPool};
pub use schema::{Field, Schema, SchemaRef};
pub use selection::{SelectionIter, SelectionVector};
pub use stats::{ColumnStatistics, Interval, TableStatistics};
pub use stream::{BatchStream, StreamBatch, StreamOp};
pub use table::{Batch, Table, TableBuilder};
pub use value::{DataType, Value};
