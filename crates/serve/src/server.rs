//! The prediction server: a multi-threaded request scheduler over a shared
//! [`RavenSession`], with a prepared-plan cache, a compiled-model cache,
//! cross-request SQL fusion, point request micro-batching, tenant QoS, and
//! admission control.
//!
//! ## Concurrency model
//!
//! Clients [`Server::submit`] (or [`Server::submit_as`], carrying a tenant
//! id) requests from any number of threads; each request gets a [`Ticket`]
//! resolving to its response. `worker_threads` scheduler workers pull from a
//! per-tenant weighted deficit-round-robin queue ([`crate::qos::QosQueue`])
//! and execute concurrently — the session's catalog/registry live behind
//! `Arc`s, so executions share one immutable snapshot without copying. The
//! partition-parallel work inside each execution runs on the **process-wide
//! work-stealing pool** (`raven_columnar::pool`) in **parked-drive mode**
//! (`pool::with_parked_drive`): the scheduler worker submits the drive's
//! per-partition jobs to the pool and sleeps on a completion latch instead
//! of help-while-waiting on other queries' partition tasks, so scheduler
//! threads stay available to admit, coalesce, and fuse while long queries
//! are in flight. Registration takes the write lock, bumps the epoch
//! counters, and clears both caches; statements prepared against an older
//! epoch are discarded on lookup even if they survived the clear (cache
//! entries are validated against the live epochs on every hit).
//!
//! Cold plan-cache misses are **single-flight**: concurrent requests for the
//! same `(fingerprint, epoch)` elect one leader to prepare while the rest
//! wait on a per-key latch and share the result, so a cold-miss stampede
//! performs exactly one prepare (see `get_prepared`).
//!
//! ## Fusion and micro-batching
//!
//! SQL requests with the same canonical fingerprint that are queued at the
//! same scheduler tick are **fused** (see [`crate::fusion`]): one member
//! drives the prepared plan once and all of them receive the shared result.
//! Point requests (single rows for the same prepared query) are coalesced:
//! when a worker dequeues a point request, it drains every queued compatible
//! request (same fingerprint and provided columns) up to
//! `micro_batch_size`, optionally waiting `micro_batch_wait` for stragglers,
//! assembles one columnar batch via [`Batch::from_rows`], drives the model
//! once, and fans the scores back out to the individual tickets.
//!
//! ## Admission and QoS
//!
//! Three rejection layers, all surfacing [`ServeError::Overloaded`]:
//! a global in-flight cap counting **queued and executing** requests
//! (`max_in_flight`, counted before enqueue so a burst cannot overshoot),
//! per-tenant queue-depth backpressure
//! ([`crate::qos::QosConfig::max_tenant_queue`]), and projected-wait load
//! shedding ([`crate::qos::QosConfig::shed_deadline`], projecting from the
//! execution-time EMA).

use crate::cache::LruCache;
use crate::error::{Result, ServeError};
use crate::fusion;
use crate::metrics::{ServingMetrics, ServingReport};
use crate::qos::{QosConfig, QosQueue};
use crate::sync::{self, MutexExt, RwLockExt};
use raven_columnar::pool;
use raven_columnar::{Batch, Field, Schema, Value};
use raven_core::{
    CompiledModels, ModelCacheHooks, PredictionOutput, PreparedStatement, RavenConfig, RavenError,
    RavenSession, RecoveryInfo,
};
use raven_ir::fingerprint_query;
use raven_ml::MlRuntime;
use raven_relational::evaluate_predicate;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tenant requests are attributed to when the caller does not name one
/// ([`Server::submit`] vs [`Server::submit_as`]).
pub const DEFAULT_TENANT: &str = "default";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler worker threads executing requests concurrently. `0` spawns
    /// none — a **paused-scheduler harness**: requests are admitted and
    /// queued but never executed, which tests use to observe admission
    /// control without execution racing the observation.
    pub worker_threads: usize,
    /// Admission-control limit on requests in flight (queued + executing).
    /// Submissions beyond it fail fast with [`ServeError::Overloaded`].
    pub max_in_flight: usize,
    /// Maximum point requests coalesced into one micro-batch.
    pub micro_batch_size: usize,
    /// How long a worker waits for additional compatible point requests
    /// before driving a partially filled micro-batch.
    pub micro_batch_wait: Duration,
    /// Capacity of the prepared-plan LRU cache.
    pub plan_cache_capacity: usize,
    /// Capacity of the compiled-model LRU cache.
    pub model_cache_capacity: usize,
    /// Durable data directory for [`Server::open_durable`]. `None` falls
    /// back to the `RAVEN_DATA_DIR` environment variable.
    pub data_dir: Option<PathBuf>,
    /// How many of the persisted hot plan fingerprints a warm restart
    /// eagerly re-prepares (most-recently-used first).
    pub prewarm_plans: usize,
    /// Journal-record count above which a registration triggers a background
    /// snapshot + journal compaction (0 disables automatic compaction).
    pub compaction_threshold: usize,
    /// Cross-request SQL fusion: queued SQL requests with the same canonical
    /// fingerprint share one drive per scheduler tick. Defaults to on; off is
    /// the one-drive-per-request oracle the serving parity tests compare
    /// against.
    pub sql_fusion: bool,
    /// Maximum requests one fused SQL drive may serve (1 disables fusion at
    /// the tick level even when `sql_fusion` is on).
    pub fusion_max_group: usize,
    /// Tenant QoS policy: deficit-round-robin weights, per-tenant queue
    /// bounds, and the load-shedding deadline.
    pub qos: QosConfig,
    /// Per-request deadline, measured from submission: a request still
    /// queued when it elapses is answered with [`ServeError::Timeout`]
    /// instead of executing. `None` (the default unless
    /// `RAVEN_REQUEST_DEADLINE_MS` is set) disables deadlines.
    pub request_deadline: Option<Duration>,
    /// Maximum transparent retries of a transiently failing prepare/execute
    /// (storage-classed session errors) before the error surfaces to the
    /// client. Defaults to `RAVEN_RETRY_MAX` (2).
    pub retry_max: u32,
    /// Base step of the jittered exponential backoff between retries
    /// (attempt `n` sleeps a seeded fraction of `retry_base << n`).
    pub retry_base: Duration,
    /// Consecutive engine-side failures of one query fingerprint that trip
    /// its circuit breaker (0 disables circuit breaking).
    pub circuit_threshold: u32,
    /// How long a tripped breaker fast-fails with
    /// [`ServeError::CircuitOpen`] before admitting a half-open trial.
    pub circuit_cooldown: Duration,
    /// How often the degraded-mode recovery probe re-checks the durable
    /// store after a persistent journal failure.
    pub probe_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: 4,
            max_in_flight: 1024,
            micro_batch_size: 8,
            micro_batch_wait: Duration::from_micros(200),
            plan_cache_capacity: 64,
            model_cache_capacity: 128,
            data_dir: None,
            prewarm_plans: 16,
            compaction_threshold: 512,
            sql_fusion: true,
            fusion_max_group: 64,
            qos: QosConfig::default(),
            request_deadline: raven_columnar::envcfg::request_deadline_ms()
                .map(Duration::from_millis),
            retry_max: raven_columnar::envcfg::retry_max(),
            retry_base: Duration::from_millis(1),
            circuit_threshold: 8,
            circuit_cooldown: Duration::from_millis(250),
            probe_interval: Duration::from_millis(50),
        }
    }
}

/// A serving request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a full prediction query and return its result batch.
    Sql(String),
    /// Score one row with the model of a prepared prediction query. The row
    /// provides `(column, value)` pairs covering at least the optimized
    /// pipeline's inputs; compatible rows are micro-batched. The row must
    /// satisfy the query's input predicates — the prepared (pruned) model is
    /// only valid on data the predicates admit.
    Point {
        /// The prediction query whose prepared model scores the row.
        sql: String,
        /// Column/value pairs of the row.
        row: Vec<(String, Value)>,
    },
}

/// A completed response.
#[derive(Debug, Clone)]
pub enum Response {
    /// Result of a [`Request::Sql`] (boxed: a full prediction output is much
    /// larger than a point score).
    Sql(Box<PredictionOutput>),
    /// Result of a [`Request::Point`].
    Point(PointPrediction),
}

/// The score for one point request.
#[derive(Debug, Clone)]
pub struct PointPrediction {
    /// The model's prediction for the row.
    pub score: f64,
    /// How many point requests shared the micro-batch (1 = ran alone).
    pub batch_size: usize,
}

/// A handle resolving to a request's response.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response>>,
}

impl Ticket {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Block and unwrap a SQL response.
    pub fn wait_sql(self) -> Result<PredictionOutput> {
        match self.wait()? {
            Response::Sql(out) => Ok(*out),
            Response::Point(_) => Err(ServeError::InvalidRequest(
                "expected a SQL response for a SQL request".into(),
            )),
        }
    }

    /// Block and unwrap a point response.
    pub fn wait_point(self) -> Result<PointPrediction> {
        match self.wait()? {
            Response::Point(p) => Ok(p),
            Response::Sql(_) => Err(ServeError::InvalidRequest(
                "expected a point response for a point request".into(),
            )),
        }
    }
}

/// One queued unit of work.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    /// Canonical fingerprint of the query (computed at submission).
    pub(crate) canonical: Arc<String>,
    /// Group key for micro-batching (fingerprint + provided columns); `None`
    /// for SQL jobs, which fuse on the canonical fingerprint instead.
    pub(crate) group: Option<Arc<String>>,
    /// The tenant this request is scheduled and accounted under.
    pub(crate) tenant: Arc<str>,
    pub(crate) enqueued: Instant,
    pub(crate) tx: mpsc::Sender<Result<Response>>,
}

pub(crate) enum JobKind {
    Sql {
        sql: String,
    },
    Point {
        sql: String,
        row: Vec<(String, Value)>,
    },
}

struct Queue {
    jobs: QosQueue<Job>,
    shutdown: bool,
}

/// The latch one in-flight prepare publishes its outcome through: the leader
/// fills `done` and notifies; followers block on the condvar instead of
/// preparing themselves.
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<PreparedStatement>>>>,
    ready: Condvar,
}

/// Per-fingerprint circuit-breaker state.
struct Breaker {
    /// Consecutive breaker-counted failures. Saturates at the threshold and
    /// stays there through the open window, so a failed half-open trial
    /// re-trips immediately while one success closes the breaker fully.
    consecutive: u32,
    /// Fast-fail until this instant; `None` = closed (or half-open trial).
    open_until: Option<Instant>,
}

pub(crate) struct ServerInner {
    session: RwLock<RavenSession>,
    plan_cache: Mutex<LruCache<String, Arc<PreparedStatement>>>,
    /// Per-partition compiled artifacts, shared across prepared statements:
    /// each entry carries fully compiled pipelines — flattened tree arenas
    /// *and* fused featurizer plans — so a hit skips per-partition pruning
    /// and kernel compilation entirely.
    model_cache: Mutex<LruCache<String, CompiledModels>>,
    /// Single-flight prepares in progress, keyed by
    /// `fingerprint @ (catalog epoch, registry epoch)`.
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// Representative original SQL text per plan-cache fingerprint: the plan
    /// cache keys on the canonical form, which is *not* re-parseable, so the
    /// snapshot persists these SQL strings for warm-restart pre-warm.
    plan_sql: Mutex<HashMap<String, String>>,
    /// Background snapshot-compaction worker, at most one in flight.
    compaction: Mutex<Option<JoinHandle<()>>>,
    /// Per-fingerprint circuit breakers: repeatedly failing queries
    /// fast-fail for a cooldown instead of burning workers.
    breakers: Mutex<HashMap<String, Breaker>>,
    /// Degraded read-only mode: `Some(reason)` after a persistent journal
    /// failure. Queries keep serving from the in-memory catalog; mutations
    /// are rejected with [`ServeError::ReadOnly`] until the recovery probe
    /// clears it.
    degraded: Mutex<Option<String>>,
    /// Background degraded-mode recovery probe, at most one alive.
    probe: Mutex<Option<JoinHandle<()>>>,
    /// Set by shutdown so the recovery probe exits promptly.
    stopping: AtomicBool,
    queue: Mutex<Queue>,
    available: Condvar,
    in_flight: AtomicUsize,
    pub(crate) metrics: ServingMetrics,
    config: ServerConfig,
}

/// The concurrent prediction server.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl Server {
    /// Start a server over a session, spawning the scheduler workers.
    pub fn new(session: RavenSession, config: ServerConfig) -> Server {
        let inner = Arc::new(ServerInner {
            session: RwLock::new(session),
            plan_cache: Mutex::new(LruCache::new(config.plan_cache_capacity)),
            model_cache: Mutex::new(LruCache::new(config.model_cache_capacity)),
            inflight: Mutex::new(HashMap::new()),
            plan_sql: Mutex::new(HashMap::new()),
            compaction: Mutex::new(None),
            breakers: Mutex::new(HashMap::new()),
            degraded: Mutex::new(None),
            probe: Mutex::new(None),
            stopping: AtomicBool::new(false),
            queue: Mutex::new(Queue {
                jobs: QosQueue::new(&config.qos),
                shutdown: false,
            }),
            available: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            metrics: ServingMetrics::default(),
            config: config.clone(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        // worker_threads == 0 is the documented paused-scheduler harness:
        // requests are admitted and queued, nothing executes
        let workers = (0..config.worker_threads)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Server {
            inner,
            workers,
            shutdown,
        }
    }

    /// Start a server with the default configuration.
    pub fn with_defaults(session: RavenSession) -> Server {
        Server::new(session, ServerConfig::default())
    }

    /// Start a server over a **durable** session: recover the catalog and
    /// model registry from the data directory (`config.data_dir`, falling
    /// back to `RAVEN_DATA_DIR`), replay the journal over the last snapshot,
    /// and eagerly re-prepare the hottest cached plans from the fingerprint
    /// list persisted at snapshot time. The whole warm restart is timed into
    /// [`ServingReport::warm_restart_ms`].
    pub fn open_durable(config: ServerConfig, session_config: RavenConfig) -> Result<Server> {
        let dir = config
            .data_dir
            .clone()
            .or_else(raven_columnar::envcfg::data_dir)
            .ok_or_else(|| {
                ServeError::InvalidRequest(
                    "no data directory: set ServerConfig::data_dir or RAVEN_DATA_DIR".into(),
                )
            })?;
        let start = Instant::now();
        let (session, info) = RavenSession::open_durable(dir, session_config)?;
        let server = Server::new(session, config);
        let prewarmed = server.prewarm(&info);
        server.inner.metrics.record_warm_restart(
            start.elapsed(),
            info.journal_records_replayed as u64,
            prewarmed as u64,
        );
        Ok(server)
    }

    /// Re-prepare the persisted hot plans (most-recently-used first) so the
    /// first requests after a restart hit a warm plan cache. Plans that no
    /// longer prepare (their table or model was dropped after the snapshot
    /// and before the crash) are skipped, not errors.
    fn prewarm(&self, info: &RecoveryInfo) -> usize {
        let mut prewarmed = 0;
        for sql in info
            .plan_fingerprints
            .iter()
            .take(self.inner.config.prewarm_plans)
        {
            let Ok(fp) = fingerprint_query(sql) else {
                continue;
            };
            let session = self.inner.session.pread();
            if get_prepared(&self.inner, &session, &fp.canonical, sql).is_ok() {
                prewarmed += 1;
            }
        }
        prewarmed
    }

    /// The original SQL of every live plan-cache entry, most-recently-used
    /// first — what the snapshot persists for warm-restart pre-warm. Also
    /// prunes the fingerprint → SQL side map down to live entries.
    fn hot_plan_sqls(&self) -> Vec<String> {
        let cache = self.inner.plan_cache.plock();
        let keys = cache.keys_by_recency();
        let mut plan_sql = self.inner.plan_sql.plock();
        plan_sql.retain(|k, _| cache.contains_key(k));
        keys.iter()
            .filter_map(|k| plan_sql.get(k).cloned())
            .collect()
    }

    /// Snapshot the current catalog + registry (with the hot plan list) and
    /// compact the journal, synchronously. Errors when the underlying
    /// session is not durable. Returns the snapshot size in bytes.
    pub fn snapshot_now(&self) -> Result<u64> {
        let plans = self.hot_plan_sqls();
        // clone the session under the read lock (cheap Arc clones), snapshot
        // outside it so readers are never blocked on snapshot encoding
        let session = self.inner.session.pread().clone();
        Ok(session.snapshot_with_plans(&plans)?)
    }

    /// Kick off a background snapshot + journal compaction when the journal
    /// has grown past the configured threshold and no compaction is already
    /// running. Serving reads are never blocked: the worker clones the
    /// session state and only the final journal rewrite holds the store's
    /// append lock.
    fn maybe_compact(&self) {
        let threshold = self.inner.config.compaction_threshold;
        if threshold == 0 {
            return;
        }
        // never compact while degraded: a journal that cannot even append
        // has no business being rewritten until the probe sees it heal
        if self.inner.degraded.plock().is_some() {
            return;
        }
        let records = {
            let session = self.inner.session.pread();
            match session.durable_store() {
                Some(store) => store.journal_records(),
                None => return,
            }
        };
        if records < threshold {
            return;
        }
        let mut slot = self.inner.compaction.plock();
        if let Some(handle) = slot.take() {
            if !handle.is_finished() {
                *slot = Some(handle); // one compaction at a time
                return;
            }
            let _ = handle.join();
        }
        let plans = self.hot_plan_sqls();
        let session = self.inner.session.pread().clone();
        *slot = Some(std::thread::spawn(move || {
            // failure here is non-fatal: the journal keeps the state safe,
            // the next threshold crossing retries
            let _ = session.snapshot_with_plans(&plans);
        }));
    }

    /// Submit a request under the default tenant; fails fast when admission
    /// control is saturated.
    pub fn submit(&self, request: Request) -> Result<Ticket> {
        self.submit_as(DEFAULT_TENANT, request)
    }

    /// Submit a request attributed to a tenant. Three rejection layers, all
    /// typed [`ServeError::Overloaded`]: the global in-flight cap (counted
    /// **before** enqueue, covering queued-but-not-admitted requests so a
    /// burst cannot overshoot `max_in_flight`), the tenant's queue-depth
    /// bound (backpressure), and projected-wait load shedding.
    pub fn submit_as(&self, tenant: &str, request: Request) -> Result<Ticket> {
        let inner = &self.inner;
        inner.metrics.mark_started();
        inner.metrics.record_tenant_submitted(tenant);
        // admission control: count the request before enqueueing so a burst
        // cannot overshoot the limit
        let admitted = inner
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                if n >= inner.config.max_in_flight {
                    None
                } else {
                    Some(n + 1)
                }
            })
            .is_ok();
        if !admitted {
            inner.metrics.record_rejected();
            inner.metrics.record_tenant_rejected(tenant);
            return Err(ServeError::Overloaded {
                limit: inner.config.max_in_flight,
            });
        }
        let job = match self.make_job(tenant, request) {
            Ok(job) => job,
            Err(e) => {
                inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                return Err(e);
            }
        };
        let ticket = Ticket { rx: job.1 };
        {
            let mut q = inner.queue.plock();
            if q.shutdown {
                inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                return Err(ServeError::ShuttingDown);
            }
            // load shedding: reject while the projected wait for the whole
            // queue (execution-time EMA × queued ÷ workers) already blows
            // the deadline — a request that would time out anyway only adds
            // queue wait for everyone behind it
            let deadline = inner.config.qos.shed_deadline;
            if !deadline.is_zero()
                && inner
                    .metrics
                    .projected_wait(q.jobs.len(), inner.config.worker_threads)
                    > deadline
            {
                drop(q);
                inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                inner.metrics.record_shed();
                inner.metrics.record_tenant_rejected(tenant);
                return Err(ServeError::Overloaded {
                    limit: inner.config.max_in_flight,
                });
            }
            // per-tenant backpressure: the greedy tenant's own lane fills up
            let tenant_key = job.0.tenant.clone();
            if q.jobs.push(&tenant_key, job.0).is_err() {
                drop(q);
                inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                inner.metrics.record_shed();
                inner.metrics.record_tenant_rejected(tenant);
                return Err(ServeError::Overloaded {
                    limit: inner.config.qos.max_tenant_queue,
                });
            }
        }
        inner.available.notify_one();
        Ok(ticket)
    }

    fn make_job(
        &self,
        tenant: &str,
        request: Request,
    ) -> Result<(Job, mpsc::Receiver<Result<Response>>)> {
        let (tx, rx) = mpsc::channel();
        let job = match request {
            Request::Sql(sql) => {
                self.inner.metrics.record_sql();
                let fp = fingerprint_query(&sql)
                    .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
                Job {
                    kind: JobKind::Sql { sql },
                    canonical: Arc::new(fp.canonical),
                    group: None,
                    tenant: Arc::from(tenant),
                    enqueued: Instant::now(),
                    tx,
                }
            }
            Request::Point { sql, row } => {
                self.inner.metrics.record_point();
                let fp = fingerprint_query(&sql)
                    .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
                // The group key covers column names AND value types: only
                // rows whose columns assemble to the same batch schema may
                // coalesce, so a request's score can never depend on the
                // types of the requests it happened to batch with.
                let mut cols: Vec<String> = row
                    .iter()
                    .map(|(n, v)| {
                        let tag = v
                            .data_type()
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "null".into());
                        format!("{n}:{tag}")
                    })
                    .collect();
                cols.sort_unstable();
                let group = format!("{}|{}", fp.canonical, cols.join(","));
                Job {
                    kind: JobKind::Point { sql, row },
                    canonical: Arc::new(fp.canonical),
                    group: Some(Arc::new(group)),
                    tenant: Arc::from(tenant),
                    enqueued: Instant::now(),
                    tx,
                }
            }
        };
        Ok((job, rx))
    }

    /// Run a SQL request and wait for its result.
    pub fn sql(&self, query: &str) -> Result<PredictionOutput> {
        self.submit(Request::Sql(query.to_string()))?.wait_sql()
    }

    /// Run a SQL request under a tenant and wait for its result.
    pub fn sql_as(&self, tenant: &str, query: &str) -> Result<PredictionOutput> {
        self.submit_as(tenant, Request::Sql(query.to_string()))?
            .wait_sql()
    }

    /// Score one row against a prepared query's model and wait.
    pub fn point(&self, query: &str, row: Vec<(String, Value)>) -> Result<PointPrediction> {
        self.submit(Request::Point {
            sql: query.to_string(),
            row,
        })?
        .wait_point()
    }

    /// Score one row under a tenant and wait.
    pub fn point_as(
        &self,
        tenant: &str,
        query: &str,
        row: Vec<(String, Value)>,
    ) -> Result<PointPrediction> {
        self.submit_as(
            tenant,
            Request::Point {
                sql: query.to_string(),
                row,
            },
        )?
        .wait_point()
    }

    /// Register (or replace) a table: takes the session write lock, journals
    /// the registration on a durable session, bumps the catalog epoch, and
    /// clears both caches.
    pub fn register_table(&self, table: raven_columnar::Table) -> Result<()> {
        self.check_writable()?;
        let mut s = self.inner.session.pwrite();
        if let Err(e) = s.try_register_table(table) {
            drop(s);
            return Err(self.mutation_failed(e));
        }
        // clear while still holding the write lock: no reader can slip a
        // fresh new-epoch entry in between the bump and the clear (which the
        // clear would wipe, forcing a second prepare for that epoch)
        self.invalidate_caches();
        drop(s);
        self.maybe_compact();
        Ok(())
    }

    /// Register (or replace) a model: takes the session write lock, journals
    /// the registration on a durable session, bumps the registry epoch, and
    /// clears both caches.
    pub fn register_model(&self, pipeline: raven_ml::Pipeline) -> Result<()> {
        self.check_writable()?;
        let mut s = self.inner.session.pwrite();
        if let Err(e) = s.try_register_model(pipeline) {
            drop(s);
            return Err(self.mutation_failed(e));
        }
        self.invalidate_caches();
        drop(s);
        self.maybe_compact();
        Ok(())
    }

    /// Reject mutations (with [`ServeError::ReadOnly`]) while the server is
    /// in degraded read-only mode.
    fn check_writable(&self) -> Result<()> {
        if let Some(reason) = self.inner.degraded.plock().clone() {
            self.inner.metrics.record_mutation_rejected();
            return Err(ServeError::ReadOnly { reason });
        }
        Ok(())
    }

    /// Classify a failed mutation: a storage-classed error means the durable
    /// journal could not record it (the in-memory catalog was left
    /// untouched — registrations journal **first**), so the server enters
    /// degraded read-only mode and starts the background recovery probe.
    /// Queries keep serving the consistent pre-failure state either way.
    fn mutation_failed(&self, e: RavenError) -> ServeError {
        if matches!(e, RavenError::Storage(_)) {
            self.enter_degraded(e.to_string());
        }
        ServeError::Session(e)
    }

    /// Enter degraded read-only mode (idempotent) and ensure one background
    /// probe is re-checking the durable store every `probe_interval`.
    fn enter_degraded(&self, reason: String) {
        {
            let mut slot = self.inner.degraded.plock();
            if slot.is_some() {
                return; // already degraded; the probe is already running
            }
            *slot = Some(reason);
        }
        self.inner.metrics.set_degraded(true);
        let mut probe = self.inner.probe.plock();
        if probe.as_ref().is_some_and(|h| !h.is_finished()) {
            return;
        }
        if let Some(h) = probe.take() {
            let _ = h.join();
        }
        let inner = self.inner.clone();
        *probe = Some(std::thread::spawn(move || probe_loop(inner)));
    }

    fn invalidate_caches(&self) {
        self.inner.plan_cache.plock().clear();
        self.inner.model_cache.plock().clear();
    }

    /// Read access to the underlying session (for harnesses and tests).
    pub fn with_session<R>(&self, f: impl FnOnce(&RavenSession) -> R) -> R {
        f(&self.inner.session.pread())
    }

    /// Snapshot the serving metrics.
    pub fn report(&self) -> ServingReport {
        self.inner.metrics.report()
    }

    /// Stop accepting work, drain the queue (pending requests get
    /// [`ServeError::ShuttingDown`]), and join the workers.
    pub fn shutdown(mut self) -> ServingReport {
        self.stop_and_join();
        self.inner.metrics.report()
    }

    fn stop_and_join(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut q = self.inner.queue.plock();
            q.shutdown = true;
        }
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // with workers the backlog is already failed by the first worker to
        // observe shutdown; a paused (0-worker) server drains it here so
        // queued tickets resolve to ShuttingDown instead of hanging
        let orphans = self.inner.queue.plock().jobs.drain_all();
        for job in orphans {
            respond(&self.inner, job, Err(ServeError::ShuttingDown));
        }
        if let Some(handle) = self.inner.compaction.plock().take() {
            let _ = handle.join();
        }
        self.inner.stopping.store(true, Ordering::Release);
        if let Some(handle) = self.inner.probe.plock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The degraded-mode recovery probe: every `probe_interval`, ask the durable
/// store to retry its pending repair and fsync the journal handle
/// (`DurableStore::probe`). The first success clears degraded mode and ends
/// the thread; a re-entry into degraded mode spawns a fresh one.
fn probe_loop(inner: Arc<ServerInner>) {
    loop {
        std::thread::sleep(inner.config.probe_interval);
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        if inner.degraded.plock().is_none() {
            return; // cleared concurrently
        }
        let healthy = {
            let session = inner.session.pread();
            match session.durable_store() {
                Some(store) => store.probe().is_ok(),
                // a non-durable session cannot heal by probing; stay
                // degraded until shutdown
                None => false,
            }
        };
        if healthy {
            *inner.degraded.plock() = None;
            inner.metrics.set_degraded(false);
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// scheduler worker
// ---------------------------------------------------------------------------

fn worker_loop(inner: Arc<ServerInner>) {
    loop {
        // 1. take one job under deficit round-robin; on shutdown, fail the
        //    remaining backlog fast (the documented contract: pending
        //    requests get `ShuttingDown`) and exit
        let job = {
            let mut q = inner.queue.plock();
            loop {
                if q.shutdown {
                    let orphans = q.jobs.drain_all();
                    drop(q);
                    for job in orphans {
                        respond(&inner, job, Err(ServeError::ShuttingDown));
                    }
                    return;
                }
                if let Some(job) = q.jobs.pop() {
                    break job;
                }
                q = sync::wait(&inner.available, q);
            }
        };

        // 2. coalesce: compatible point requests into a micro-batch, or
        //    same-fingerprint SQL requests into a fused group (no straggler
        //    wait for fusion — only this tick's queued duplicates join)
        let mut group = vec![job];
        if let Some(key) = group[0].group.clone() {
            let cap = inner.config.micro_batch_size.max(1);
            let wait = inner.config.micro_batch_wait;
            let mut q = inner.queue.plock();
            q.jobs
                .drain_matching(cap, |j| j.group.as_ref() == Some(&key), &mut group);
            if group.len() < cap && !wait.is_zero() && !q.shutdown {
                // one bounded wait for stragglers, then drain again
                q = sync::wait_timeout(&inner.available, q, wait);
                q.jobs
                    .drain_matching(cap, |j| j.group.as_ref() == Some(&key), &mut group);
            }
            // the straggler wait may have consumed a notify_one meant for an
            // idle worker; hand the wakeup on if incompatible jobs remain
            if !q.jobs.is_empty() {
                inner.available.notify_one();
            }
        } else if inner.config.sql_fusion {
            let cap = inner.config.fusion_max_group.max(1);
            if cap > 1 {
                let canonical = group[0].canonical.clone();
                let mut q = inner.queue.plock();
                fusion::drain_duplicates(&mut q.jobs, canonical, cap, &mut group);
            }
        }

        // 3. queue wait ends here, per request — group members drained by
        //    this worker get their own samples
        for j in &group {
            inner.metrics.record_queue_wait(j.enqueued.elapsed());
        }

        // 3½. deadline enforcement: a request whose deadline elapsed while
        //     queued gets a typed `Timeout` instead of burning a drive on a
        //     response the client has already written off
        if let Some(deadline) = inner.config.request_deadline {
            let (live, expired): (Vec<Job>, Vec<Job>) = group
                .into_iter()
                .partition(|j| j.enqueued.elapsed() <= deadline);
            for job in expired {
                inner.metrics.record_timeout();
                respond(
                    &inner,
                    job,
                    Err(ServeError::Timeout {
                        deadline_ms: deadline.as_millis() as u64,
                    }),
                );
            }
            if live.is_empty() {
                continue;
            }
            group = live;
        }

        // 4. execute outside any queue lock, in parked-drive mode: the
        //    drive's per-partition jobs go to the shared pool and this
        //    thread sleeps on the completion latch instead of picking up
        //    other queries' partition tasks while it waits
        pool::with_parked_drive(|| execute_group(&inner, group));
    }
}

fn execute_group(inner: &ServerInner, group: Vec<Job>) {
    match &group[0].kind {
        JobKind::Sql { .. } => {
            let canonical = group[0].canonical.clone();
            if breaker_open(inner, &canonical) {
                fail_group_circuit_open(inner, group, &canonical);
                return;
            }
            // one drive for the whole fused group (singleton when fusion is
            // off or no duplicate was queued this tick)
            let exec = Instant::now();
            let result = run_sql(inner, &group[0]);
            inner.metrics.record_exec(exec.elapsed());
            breaker_record(
                inner,
                &canonical,
                result.as_ref().err().is_some_and(breaker_counts),
            );
            fusion::fan_out(inner, group, result);
        }
        JobKind::Point { .. } => run_point_batch(inner, group),
    }
}

/// Fast-fail a whole group because its fingerprint's breaker is open.
fn fail_group_circuit_open(inner: &ServerInner, group: Vec<Job>, canonical: &str) {
    for job in group {
        inner.metrics.record_circuit_open();
        respond(
            inner,
            job,
            Err(ServeError::CircuitOpen {
                canonical: canonical.to_string(),
            }),
        );
    }
}

/// Whether the fingerprint's breaker is currently fast-failing. An elapsed
/// cooldown flips the breaker into a **half-open trial**: the caller's
/// request runs, but `consecutive` is still saturated at the threshold so a
/// single counted failure re-opens immediately while a success closes it.
fn breaker_open(inner: &ServerInner, canonical: &str) -> bool {
    if inner.config.circuit_threshold == 0 {
        return false;
    }
    let mut breakers = inner.breakers.plock();
    let Some(b) = breakers.get_mut(canonical) else {
        return false;
    };
    match b.open_until {
        Some(until) if Instant::now() < until => true,
        Some(_) => {
            b.open_until = None; // cooldown over: admit a half-open trial
            false
        }
        None => false,
    }
}

/// Fold one drive outcome into the fingerprint's breaker: a success closes
/// it (the entry is dropped), `threshold` consecutive counted failures open
/// it for `circuit_cooldown`.
fn breaker_record(inner: &ServerInner, canonical: &str, failed: bool) {
    let threshold = inner.config.circuit_threshold;
    if threshold == 0 {
        return;
    }
    let mut breakers = inner.breakers.plock();
    if !failed {
        breakers.remove(canonical);
        return;
    }
    let b = breakers.entry(canonical.to_string()).or_insert(Breaker {
        consecutive: 0,
        open_until: None,
    });
    b.consecutive = (b.consecutive + 1).min(threshold);
    if b.consecutive >= threshold {
        b.open_until = Some(Instant::now() + inner.config.circuit_cooldown);
    }
}

/// Failures that count toward a fingerprint's circuit breaker: engine-side
/// errors, surfaced after the retry budget was exhausted. Client-side
/// `InvalidRequest`s say nothing about the plan's health and never trip it.
fn breaker_counts(e: &ServeError) -> bool {
    matches!(e, ServeError::Session(_) | ServeError::StaleArtifact(_))
}

fn run_sql(inner: &ServerInner, job: &Job) -> Result<PredictionOutput> {
    let JobKind::Sql { sql } = &job.kind else {
        unreachable!("execute_group routes only SQL jobs to run_sql")
    };
    retry_transient(inner, &job.canonical, || {
        // One read lock spans plan lookup AND execution: a register_table /
        // register_model (write lock) can never land between the freshness
        // check and execute_prepared, so a statement can never run against a
        // catalog newer than the one it was prepared for. The lock is
        // re-acquired per attempt — backoff sleeps never hold it.
        let session = inner.session.pread();
        let prepared = get_prepared(inner, &session, &job.canonical, sql)?;
        serve_fault("serve.execute")?;
        Ok(session.execute_prepared(&prepared)?)
    })
}

/// Run `attempt_fn` with bounded transparent retries: transient failures
/// (storage-classed session errors — flaky durable I/O, injected faults)
/// sleep a deterministic jittered exponential backoff and try again, up to
/// `retry_max` retries. Every other error, and exhaustion, surfaces to the
/// caller. Single-flight composes with this: a leader whose prepare failed
/// publishes the error and vacates the latch, so each retrying waiter
/// re-elects — the next attempt goes through a **new** leader.
fn retry_transient<T>(
    inner: &ServerInner,
    canonical: &str,
    mut attempt_fn: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match attempt_fn() {
            Err(e) if attempt < inner.config.retry_max && is_transient(&e) => {
                inner.metrics.record_retry();
                std::thread::sleep(backoff_delay(canonical, attempt, inner.config.retry_base));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Transient = worth retrying: the session surfaced a storage-classed error
/// (durable I/O hiccup), which retrying can genuinely outlive. Plan errors,
/// invalid requests, and stale-artifact trips are deterministic and retry
/// would only repeat them.
fn is_transient(e: &ServeError) -> bool {
    matches!(e, ServeError::Session(RavenError::Storage(_)))
}

/// Deterministic jittered exponential backoff: attempt `n` sleeps in
/// `[step/2, step)` where `step = retry_base << n`, the jitter drawn from
/// splitmix64 keyed by `(fingerprint, attempt)` — colliding retriers of the
/// same query spread out, and a rerun reproduces the exact same delays.
fn backoff_delay(canonical: &str, attempt: u32, base: Duration) -> Duration {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    let step = base.saturating_mul(1u32 << attempt.min(16));
    let half = (step.as_nanos() as u64 / 2).max(1);
    let jitter = raven_columnar::failpoint::splitmix64(h ^ attempt as u64) % half;
    step / 2 + Duration::from_nanos(jitter)
}

/// Hit a serving-tier failpoint (`serve.prepare`, `serve.execute`): delays
/// sleep in place and proceed; every other kind surfaces as a
/// storage-classed session error, i.e. exactly the transient shape the
/// retry/backoff path handles — a fault-free run pays one atomic load.
fn serve_fault(point: &str) -> Result<()> {
    if let Some(injected) = raven_columnar::failpoint::check(point) {
        if let raven_columnar::failpoint::Fault::Delay(ms) = injected.fault {
            std::thread::sleep(Duration::from_millis(ms));
        } else {
            return Err(ServeError::Session(RavenError::Storage(format!(
                "injected fault: {point}"
            ))));
        }
    }
    Ok(())
}

/// Score a micro-batch of compatible point requests with one pipeline drive.
fn run_point_batch(inner: &ServerInner, group: Vec<Job>) {
    let n = group.len();
    inner.metrics.record_micro_batch(n);
    let (canonical, sql) = match &group[0] {
        Job {
            canonical,
            kind: JobKind::Point { sql, .. },
            ..
        } => (canonical.clone(), sql.clone()),
        _ => unreachable!("point batch always starts with a point job"),
    };
    if breaker_open(inner, &canonical) {
        fail_group_circuit_open(inner, group, &canonical);
        return;
    }
    let exec = Instant::now();
    let scored = score_rows(inner, &canonical, &sql, &group);
    inner.metrics.record_exec(exec.elapsed());
    breaker_record(
        inner,
        &canonical,
        scored.as_ref().err().is_some_and(breaker_counts),
    );
    match scored {
        Ok(results) => {
            for (job, result) in group.into_iter().zip(results) {
                respond(
                    inner,
                    job,
                    result.map(|score| {
                        Response::Point(PointPrediction {
                            score,
                            batch_size: n,
                        })
                    }),
                );
            }
        }
        Err(e) => {
            for job in group {
                respond(inner, job, Err(e.clone()));
            }
        }
    }
}

/// Assemble the rows of a point micro-batch into one columnar batch, check
/// the prepared query's input predicates, score once, and split the results.
fn score_rows(
    inner: &ServerInner,
    canonical: &str,
    sql: &str,
    group: &[Job],
) -> Result<Vec<Result<f64>>> {
    let (prepared, runtime) = retry_transient(inner, canonical, || {
        // lock scope is one attempt: backoff sleeps never hold the session
        let session = inner.session.pread();
        Ok((
            get_prepared(inner, &session, canonical, sql)?,
            MlRuntime::with_config(session.config().ml_runtime.clone()),
        ))
    })?;
    let plan = prepared.plan();

    // columns = the union the group key fixed (identical for every job)
    let rows: Vec<&Vec<(String, Value)>> = group
        .iter()
        .map(|j| match &j.kind {
            JobKind::Point { row, .. } => row,
            JobKind::Sql { .. } => unreachable!("SQL job in a point micro-batch"),
        })
        .collect();
    // The group key pins both the column names and each column's value type
    // across every row, so the first row determines the schema for the whole
    // micro-batch (all-null columns default to Float64/NaN).
    let mut names: Vec<String> = rows[0].iter().map(|(n, _)| n.clone()).collect();
    names.sort_unstable();
    names.dedup();
    let fields: Vec<Field> = names
        .iter()
        .map(|name| {
            let dt = rows[0]
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.data_type())
                .unwrap_or(raven_columnar::DataType::Float64);
            Field::new(name, dt)
        })
        .collect();
    let schema =
        Arc::new(Schema::new(fields).map_err(|e| ServeError::InvalidRequest(e.to_string()))?);
    let value_rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| {
            names
                .iter()
                .map(|name| {
                    row.iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| v.clone())
                        .unwrap_or(Value::Null)
                })
                .collect()
        })
        .collect();
    let batch = Batch::from_rows(schema, &value_rows)
        .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;

    // The prepared (predicate-pruned) model is only valid for rows the
    // query's input predicates admit — every predicate must be verifiable
    // against the provided columns, and every row must pass it.
    let mut admitted = vec![true; group.len()];
    for pred in plan.input_predicates() {
        let missing: Vec<String> = pred
            .referenced_columns()
            .into_iter()
            .filter(|c| !names.contains(c))
            .collect();
        if !missing.is_empty() {
            return Err(ServeError::InvalidRequest(format!(
                "point rows must supply the columns of the query's input \
                 predicates; missing: {missing:?}"
            )));
        }
        let mask = evaluate_predicate(pred, &batch)
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        for (a, ok) in admitted.iter_mut().zip(mask.iter()) {
            *a &= *ok;
        }
    }

    // Score with the statement's point scorer: the cross-optimized pipeline
    // (free of data-induced pruning, which would be unsound for rows outside
    // the registered table's value domains) with its flattened kernels
    // compiled at prepare time — a plan-cache hit runs only compiled
    // kernels, no interpretation.
    let scores = runtime
        .run_batch_compiled(prepared.point_scorer(), &batch)
        .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
    Ok(admitted
        .into_iter()
        .zip(scores)
        .map(|(ok, score)| {
            if ok {
                Ok(score)
            } else {
                Err(ServeError::InvalidRequest(
                    "row violates the prepared query's input predicates".into(),
                ))
            }
        })
        .collect())
}

/// Plan-cache lookup with epoch validation; prepares (and caches) on miss,
/// wiring the compiled-model cache into the session's lowering hooks. The
/// caller passes the session guard it already holds, so the returned
/// statement is guaranteed fresh for as long as that guard lives.
///
/// Cold misses are **single-flight**: concurrent requests for one
/// `(fingerprint, epoch)` elect one leader that prepares while the others
/// block on a per-key latch and share its result, so a cold-miss stampede
/// performs exactly one prepare. Because every caller holds a session read
/// lock across lookup *and* execution, the epochs in the latch key cannot
/// move while anyone waits — a published result is fresh for all waiters by
/// construction.
fn get_prepared(
    inner: &ServerInner,
    session: &RavenSession,
    canonical: &str,
    sql: &str,
) -> Result<Arc<PreparedStatement>> {
    let (cat_epoch, reg_epoch) = (session.catalog().epoch(), session.registry().epoch());
    if let Some(entry) = cached_fresh(inner, canonical, cat_epoch, reg_epoch) {
        inner.metrics.record_plan_cache(true);
        return Ok(entry);
    }
    let key = format!("{canonical}@c{cat_epoch}r{reg_epoch}");
    let (flight, leader) = {
        let mut inflight = inner.inflight.plock();
        match inflight.get(&key) {
            // Joining a flight whose leader already failed would only hand
            // back the stale error: replace it and elect ourselves, so the
            // next request after a failed prepare goes through a NEW leader
            // (the retry path depends on this). A *successful* resolved
            // flight is still joinable — its result is fresh and shared.
            Some(flight)
                if flight
                    .done
                    .plock()
                    .as_ref()
                    .is_some_and(|done| done.is_err()) =>
            {
                let fresh = Arc::new(Flight::default());
                inflight.insert(key.clone(), fresh.clone());
                (fresh, true)
            }
            Some(flight) => (flight.clone(), false),
            None => {
                let flight = Arc::new(Flight::default());
                inflight.insert(key.clone(), flight.clone());
                (flight, true)
            }
        }
    };
    if !leader {
        // follower: wait for the leader's outcome and share it
        inner.metrics.record_single_flight_wait();
        let mut done = flight.done.plock();
        loop {
            if let Some(result) = done.clone() {
                // Epoch coherence (debug / RAVEN_VERIFY=strict): the latch
                // key pinned the epochs, so the shared statement must carry
                // exactly them — anything else is a single-flight bug.
                return result.and_then(|entry| {
                    check_epoch_coherence(&entry, cat_epoch, reg_epoch, "single-flight")?;
                    Ok(entry)
                });
            }
            done = sync::wait(&flight.ready, done);
        }
    }
    // If the prepare unwinds, still resolve the latch so followers are not
    // stranded: they get an error instead of waiting on a dead leader.
    struct ResolveOnDrop<'a> {
        inner: &'a ServerInner,
        flight: &'a Arc<Flight>,
        key: &'a str,
    }
    impl Drop for ResolveOnDrop<'_> {
        fn drop(&mut self) {
            let mut done = self.flight.done.plock();
            if done.is_none() {
                *done = Some(Err(ServeError::InvalidRequest(
                    "prepare aborted before completing".into(),
                )));
                self.flight.ready.notify_all();
            }
            drop(done);
            // remove only OUR flight: a failed-leader replacement may have
            // already installed a fresh one under the same key, and evicting
            // it would orphan the new leader's followers into re-elections
            let mut inflight = self.inner.inflight.plock();
            if inflight
                .get(self.key)
                .is_some_and(|f| Arc::ptr_eq(f, self.flight))
            {
                inflight.remove(self.key);
            }
        }
    }
    let guard = ResolveOnDrop {
        inner,
        flight: &flight,
        key: &key,
    };
    // Leadership won — but a *previous* leader for this same key may have
    // completed between our cache miss and our election (it publishes to
    // the plan cache before dropping its inflight entry), so re-check the
    // cache before preparing: without this, a preempted racer would run a
    // duplicate prepare for the (fingerprint, epoch).
    let result = match cached_fresh(inner, canonical, cat_epoch, reg_epoch) {
        Some(entry) => {
            inner.metrics.record_plan_cache(true);
            Ok(entry)
        }
        None => {
            // this is the one prepare for this (fingerprint, epoch)
            inner.metrics.record_plan_cache(false);
            prepare_uncached(inner, session, canonical, sql)
        }
    };
    // Epoch coherence (debug / RAVEN_VERIFY=strict) before the result is
    // published to followers and the caller: the statement was prepared
    // under the session read lock, so its recorded epochs must equal the
    // epochs this flight was keyed by.
    let result = result.and_then(|entry| {
        check_epoch_coherence(&entry, cat_epoch, reg_epoch, "prepared")?;
        Ok(entry)
    });
    {
        let mut done = flight.done.plock();
        *done = Some(result.clone());
        flight.ready.notify_all();
    }
    drop(guard);
    result
}

/// Epoch-coherence verification (debug builds / `RAVEN_VERIFY=strict`): a
/// statement about to be served must have been prepared at exactly the live
/// catalog/registry epochs. `cached_fresh` guarantees this for plan-cache
/// hits by construction; this check covers the paths where the statement
/// arrives indirectly (a single-flight latch, a fresh prepare) and would
/// otherwise be trusted blindly.
fn check_epoch_coherence(
    entry: &PreparedStatement,
    cat_epoch: u64,
    reg_epoch: u64,
    source: &str,
) -> Result<()> {
    if (cfg!(debug_assertions) || raven_columnar::envcfg::verify_strict())
        && (entry.catalog_epoch() != cat_epoch || entry.registry_epoch() != reg_epoch)
    {
        return Err(ServeError::StaleArtifact(format!(
            "{source} statement carries epochs c{}r{}, live session is c{cat_epoch}r{reg_epoch}",
            entry.catalog_epoch(),
            entry.registry_epoch()
        )));
    }
    Ok(())
}

/// Parse the `@c<cat>r<reg>#` epoch segment of a compiled-model cache key
/// (format `{tables}@c{cat}r{reg}#p{hash}`, minted by the session's model
/// lowering). `None` for keys without the segment.
fn parse_key_epochs(key: &str) -> Option<(u64, u64)> {
    let rest = &key[key.rfind("@c")? + 2..];
    let r = rest.find('r')?;
    let hash = rest.find('#')?;
    let cat = rest[..r].parse().ok()?;
    let reg = rest[r + 1..hash].parse().ok()?;
    Some((cat, reg))
}

/// Probe the plan cache for an entry prepared at exactly the given epochs;
/// evicts a stale entry in passing. Does not touch the metrics — callers
/// record hit/miss themselves.
fn cached_fresh(
    inner: &ServerInner,
    canonical: &str,
    cat_epoch: u64,
    reg_epoch: u64,
) -> Option<Arc<PreparedStatement>> {
    let mut cache = inner.plan_cache.plock();
    if let Some(entry) = cache.get(&canonical.to_string()) {
        if entry.catalog_epoch() == cat_epoch && entry.registry_epoch() == reg_epoch {
            return Some(entry.clone());
        }
        // stale: prepared against an older catalog/registry
        cache.remove(&canonical.to_string());
    }
    None
}

/// The actual prepare a single-flight leader performs: lower the statement
/// with the compiled-model cache wired into the session's hooks, then publish
/// it in the plan cache.
fn prepare_uncached(
    inner: &ServerInner,
    session: &RavenSession,
    canonical: &str,
    sql: &str,
) -> Result<Arc<PreparedStatement>> {
    let (cat_epoch, reg_epoch) = (session.catalog().epoch(), session.registry().epoch());
    let mut lookup = |key: &str| {
        let hit = inner.model_cache.plock().get(&key.to_string()).cloned();
        // Epoch coherence (debug / RAVEN_VERIFY=strict): the key's minted
        // epochs must match the live session, or the hit would hand back
        // models compiled against a dropped table/model version. The hooks
        // cannot error, so a stale hit degrades to a miss (recompile fresh)
        // after tripping the debug assertion.
        let hit = match hit {
            Some(_)
                if (cfg!(debug_assertions) || raven_columnar::envcfg::verify_strict())
                    && parse_key_epochs(key)
                        .is_some_and(|(c, r)| c != cat_epoch || r != reg_epoch) =>
            {
                debug_assert!(
                    false,
                    "model-cache hit at stale epochs: {key} vs live c{cat_epoch}r{reg_epoch}"
                );
                None
            }
            other => other,
        };
        inner.metrics.record_model_cache(hit.is_some());
        hit
    };
    let mut store = |key: &str, models: &CompiledModels| {
        inner
            .model_cache
            .plock()
            .insert(key.to_string(), models.clone());
    };
    let mut hooks = ModelCacheHooks {
        lookup: &mut lookup,
        store: &mut store,
    };
    serve_fault("serve.prepare")?;
    let prepared = Arc::new(session.prepare_hooked(sql, Some(&mut hooks))?);
    inner
        .plan_cache
        .plock()
        .insert(canonical.to_string(), prepared.clone());
    // remember a re-parseable SQL text for this fingerprint so a snapshot
    // can persist it for warm-restart pre-warm
    inner
        .plan_sql
        .plock()
        .insert(canonical.to_string(), sql.to_string());
    Ok(prepared)
}

/// Deliver a result to a ticket and settle the request's accounting.
pub(crate) fn respond(inner: &ServerInner, job: Job, result: Result<Response>) {
    if result.is_err() {
        inner.metrics.record_failed();
    }
    inner.metrics.record_latency(job.enqueued.elapsed());
    inner.metrics.record_tenant_completed(&job.tenant);
    // the client may have dropped its ticket; delivery failure is fine
    let _ = job.tx.send(result);
    inner.in_flight.fetch_sub(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosConfig;

    /// A paused server: 0 workers, an empty session. Jobs queue but never
    /// execute, which makes admission decisions observable race-free.
    fn paused(config: ServerConfig) -> Server {
        Server::new(RavenSession::new(), config)
    }

    const SQL: &str = "SELECT a FROM t";

    #[test]
    fn projected_wait_shedding_rejects_when_the_queue_is_already_deep() {
        let server = paused(ServerConfig {
            worker_threads: 0,
            qos: QosConfig {
                shed_deadline: Duration::from_millis(1),
                ..Default::default()
            },
            ..Default::default()
        });
        // seed the execution-time EMA the projection multiplies by
        server.inner.metrics.record_exec(Duration::from_millis(10));

        // empty queue → projected wait 0 → admitted (and stays queued)
        let first = server.submit(Request::Sql(SQL.into()));
        assert!(first.is_ok());
        // one queued job → projected wait 10ms > 1ms deadline → shed
        let err = server.submit(Request::Sql(SQL.into())).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");

        let report = server.shutdown();
        assert_eq!(report.shed, 1);
        assert_eq!(report.sql_requests, 2);
        let stats = report.tenant(DEFAULT_TENANT).unwrap();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn shedding_is_disabled_while_the_ema_is_cold() {
        let server = paused(ServerConfig {
            worker_threads: 0,
            qos: QosConfig {
                shed_deadline: Duration::from_nanos(1),
                ..Default::default()
            },
            ..Default::default()
        });
        // no execution has ever completed: projecting from a cold EMA would
        // be guessing, so everything is admitted
        for _ in 0..8 {
            assert!(server.submit(Request::Sql(SQL.into())).is_ok());
        }
        assert_eq!(server.report().shed, 0);
    }

    #[test]
    fn paused_server_drains_queued_tickets_on_shutdown() {
        let server = paused(ServerConfig {
            worker_threads: 0,
            ..Default::default()
        });
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| server.submit(Request::Sql(SQL.into())).expect("admitted"))
            .collect();
        drop(server);
        for t in tickets {
            assert!(matches!(t.wait(), Err(ServeError::ShuttingDown)));
        }
    }
}
