//! # raven-serve
//!
//! A concurrent prediction-serving layer on top of
//! [`raven_core::RavenSession`] — the tier that makes the paper's premise pay
//! off at serving time: *optimize the prediction query once, then run only
//! the cheap residual plan per request*.
//!
//! Three pieces:
//!
//! * **Prepared queries** ([`raven_core::PreparedStatement`] behind the
//!   server's **plan cache**): `prepare` runs parse → cross-optimization →
//!   data-induced optimization → lowering (SQL generation / DNN compilation /
//!   per-partition model compilation) exactly once, keyed by a normalized
//!   query fingerprint ([`raven_ir::fingerprint_query`]) in an LRU cache —
//!   the server's one store of prepared work, per-partition models included.
//!   Entries are invalidated by the catalog/registry epoch counters, so
//!   re-registering a table or model can never serve a stale plan, and cold
//!   misses are **single-flight**: concurrent requests
//!   for one `(fingerprint, epoch)` elect a leader to prepare while the rest
//!   wait on a per-key latch and share the result — a cold-miss stampede
//!   performs exactly one prepare.
//! * **A fusing, micro-batching request scheduler** ([`Server`]): N worker
//!   threads pull SQL and point-prediction requests from a per-tenant
//!   deficit-round-robin queue ([`QosConfig`]); compatible point requests
//!   (same fingerprint, same provided columns) are coalesced into one
//!   columnar [`raven_columnar::Batch`] per tick, and queued SQL requests
//!   with the same canonical fingerprint are **fused** — one worker drives
//!   the prepared plan once and fans the `Arc`-shared result out to every
//!   member ([`crate::fusion`]; `ServerConfig::sql_fusion = false` is the
//!   one-drive-per-request oracle). The partition-parallel work inside each
//!   execution runs on the process-wide work-stealing pool
//!   (`raven_columnar::pool`) in *parked-drive* mode: the serving worker
//!   sleeps on a completion latch instead of stealing other queries'
//!   partition tasks, so its latency is not inflated by unrelated work.
//!   Admission control caps in-flight work (queued requests count against
//!   the cap), bounds per-tenant queue depth, sheds load with
//!   [`ServeError::Overloaded`] when the EMA-projected queue wait exceeds
//!   [`QosConfig::shed_deadline`].
//! * **Serving metrics** ([`ServingReport`]): throughput over the
//!   first-request → last-completion wall, p50/p95/p99 latency and
//!   queue-wait percentiles from Algorithm-R reservoirs (uniform samples of
//!   the full history), cache hit/miss/single-flight counts, micro-batches
//!   coalesced, fused-group stats, sheds, and per-tenant
//!   submitted/completed/rejected counts ([`TenantStats`]).
//!
//! With a data directory ([`ServerConfig::data_dir`] or `RAVEN_DATA_DIR`)
//! the server runs on a **durable catalog** (`raven_storage`):
//! registrations are journaled (write-ahead, CRC'd, fsync'd) before they
//! apply, [`Server::open_durable`] restarts warm — snapshot load, journal
//! replay, and re-preparing the persisted hottest plan SQL through the
//! normal single-flight path — reported as
//! [`ServingReport::warm_restart_ms`] / `journal_records_replayed` /
//! `prewarmed_plans`, and background snapshot compaction
//! ([`ServerConfig::compaction_threshold`]) runs off-thread without ever
//! blocking serving reads. Because the journal carries the post-apply epoch
//! counters, a warm restart resumes the pre-crash epochs and the
//! epoch-keyed plan cache can never serve a stale prepared statement.

pub mod cache;
pub mod error;
pub mod fusion;
pub mod metrics;
pub mod qos;
pub mod server;
mod sync;

pub use cache::LruCache;
pub use error::{Result, ServeError};
pub use metrics::{ServingMetrics, ServingReport, TenantStats};
pub use qos::QosConfig;
pub use server::{
    PointPrediction, Request, Response, Server, ServerConfig, Ticket, DEFAULT_TENANT,
};
