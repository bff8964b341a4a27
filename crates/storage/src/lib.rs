//! # raven-storage
//!
//! The durable catalog: everything the serving tier needs to restart
//! **warm** instead of cold-starting from nothing. Three pieces:
//!
//! 1. **Snapshot codec** ([`snapshot`]) — a versioned binary format
//!    (magic/version header, length-prefixed sections and records, CRC32
//!    per section *and* per file) serializing the full [`Catalog`]
//!    (schemas, partitioned column data bit-for-bit, partition columns,
//!    `ColumnStatistics`) and [`ModelRegistry`] (featurizer DAGs + trained
//!    tree/linear model parameters), plus the hot plan-fingerprint list for
//!    cache pre-warm.
//! 2. **Mutation journal** ([`journal`]) — an append-only, CRC'd,
//!    length-prefixed log of every registration and drop. Torn tails (a
//!    crash mid-append) are expected and truncated at the first bad record;
//!    every record carries the post-mutation epochs so replay composes
//!    deterministically over the last snapshot.
//! 3. **The store** ([`store::DurableStore`]) — the directory-level
//!    protocol: atomic snapshot writes (temp + fsync + rename), fsynced
//!    appends, recovery (snapshot → truncate torn tail → replay), and
//!    journal compaction against a snapshot cut.
//!
//! ## Stored vs. derived state
//!
//! Only *base* state is authoritative on disk: table data, partitioning,
//! and model definitions. Statistics and compiled pipelines are *derived*
//! and are recomputed on load — persisted statistics serve as a cross-check
//! (debug builds verify min/max/NDV per column and raise
//! [`StorageError::StaleStats`] on disagreement), and the serving tier's
//! plan cache is rebuilt by pre-warming the persisted plan SQL through the
//! normal prepare path.
//!
//! ## Epoch invariants
//!
//! `Catalog::epoch()` / `ModelRegistry::epoch()` are the cache-invalidation
//! clocks of the whole system, so recovery **resumes them exactly**: the
//! snapshot header records the epochs of its cut, each journal record
//! records the epochs after its mutation, replay verifies each applied
//! record advances exactly one clock by exactly one, and the recovered
//! session continues from the pre-crash values. A warm restart therefore
//! can never resurrect a cache entry minted at a pre-crash epoch for
//! different content — the epoch either matches identical recovered state
//! or has moved past it.
//!
//! ## Bitwise fidelity
//!
//! Floats round-trip through `to_bits`/`from_bits` everywhere (column
//! data, statistics bounds, model weights, tree thresholds), so NaN
//! payloads and `-0.0` survive exactly and a recovered session's query
//! results are bit-identical to the never-restarted session's — the
//! repo's standing A/B oracle discipline, applied to crash recovery.

pub mod codec;
pub mod crc32;
pub mod error;
pub mod io;
pub mod journal;
pub mod model_codec;
pub mod snapshot;
pub mod store;
pub mod table_codec;

pub use crc32::{crc32, Crc32};
pub use error::{Result, StorageError};
pub use io::{Io, RealIo, ScriptedIo};
pub use journal::{JournalHeader, JournalRecord, JournalScan, Mutation};
pub use snapshot::{decode_snapshot, encode_snapshot, Snapshot};
pub use store::{DurableStore, RecoveredState, JOURNAL_FILE, SNAPSHOT_FILE};
pub use table_codec::verify_persisted_stats;

// re-exported so downstream crates name the types this crate persists
// without adding their own dependency edges
pub use raven_ir::ModelRegistry;
pub use raven_relational::Catalog;
