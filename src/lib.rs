//! # raven
//!
//! A from-scratch Rust reproduction of **Raven** — *"End-to-end Optimization
//! of Machine Learning Prediction Queries"* (SIGMOD 2022). This facade crate
//! re-exports the whole workspace so applications can depend on a single
//! crate:
//!
//! * [`columnar`] — columnar tables, partitions, statistics, and the
//!   streaming [`columnar::BatchStream`] substrate,
//! * [`relational`] — the vectorized relational engine (the "data engine"),
//! * [`ml`] — trained pipelines, traditional-ML operators, training, and the
//!   batch ML runtime,
//! * [`tensor`] — the Hummingbird-style ML-to-tensor compiler and devices,
//! * [`ir`] — the unified IR and the `PREDICT` query parser,
//! * [`core`] — the Raven optimizer and the end-to-end `RavenSession`,
//! * [`datagen`] — synthetic versions of the paper's evaluation workloads.
//!
//! ## Architecture: the streaming partition-parallel pipeline
//!
//! Every execution layer shares one substrate, `columnar::BatchStream`: a
//! lazily evaluated sequence of partition-sized `Batch`es, each carrying its
//! partition index and the per-partition min/max statistics the paper's
//! data-induced optimizations (§4.2) consume. A prediction query flows
//! through it end to end:
//!
//! ```text
//!  Table partitions ──► Scan ──► Filter ──► Project ──► ML score ──► Output
//!  (stats attached)      │  per-partition, fused, shared pool (DOP)   preds/
//!        │               │                                            proj
//!        └─ statistics ──┘                                              │
//!           pruning: partitions whose min/max cannot satisfy            ▼
//!           the pushed-down predicates are skipped unscanned      Batch::concat
//!                                                             (final boundary)
//! ```
//!
//! The per-partition chains of **every** concurrent query are driven by one
//! process-wide **work-stealing worker pool** (`columnar::pool`): long-lived
//! workers with per-worker deques plus stealing, sized to the machine (or
//! `RAVEN_POOL_WORKERS`). A drive point (`columnar::BatchStream::collect` /
//! `columnar::parallel_map`) submits its partition tasks as a scoped job
//! bounded by the query's `degree_of_parallelism` and participates in
//! draining it, so N concurrent queries interleave on one fixed thread set
//! instead of spawning N×DOP transient threads, and a nested drive can never
//! deadlock. The first error aborts a job's outstanding partitions.
//!
//! * `relational::physical::Executor::execute_stream` compiles a logical
//!   plan into per-partition operators fused onto the stream; **pipeline
//!   breakers** — join build sides, aggregates, and limits — are the only
//!   operators that gather their whole input.
//! * `ml::MlRuntime` scores each arriving partition
//!   (`score_batch_into_selected`) without concatenating the table, chunking
//!   by `RuntimeConfig::batch_size`.
//! * `core::RavenSession` drives predicate pushdown, statistics-based
//!   **partition pruning** (observable as `ExecutionReport::pruned_partitions`),
//!   scoring, and post-processing partition-parallel, and concatenates only
//!   at the final output boundary, or folds the final aggregate over the
//!   partitions. This is the one execution drive, and the runtime choice
//!   (§5) only picks its scorer: the ML runtime's compiled pipeline, MLtoSQL's
//!   expression evaluated under each partition's selection
//!   (`relational::evaluate_selected`), or MLtoDNN's tensor model, which
//!   takes the data side as one batch. The §7 "no-opt" baseline
//!   (`RavenConfig::no_opt`) runs the drive too, with data-induced
//!   optimizations — and therefore statistics pruning — off, and the
//!   row-interpreted / materializing baselines compact each partition before
//!   scoring it.
//!
//! ## Architecture: vectorized scoring kernels and selection vectors
//!
//! The per-partition inner loops run compiled, zero-copy kernels
//! (PR 4):
//!
//! * **Selection-vector execution.** A filter never copies surviving rows:
//!   it refines a zero-copy `columnar::SelectionVector` carried by each
//!   `columnar::StreamBatch` (`selection`), and every downstream kernel —
//!   projection, join probe, limit (a truncated selection), aggregation
//!   (per-partition state folding), ML scoring — consumes
//!   `(Batch, &SelectionVector)`. Surviving rows are gathered exactly once,
//!   at the final output boundary, fused into the concat
//!   (`columnar::Batch::concat_selected`). Filtered streaming plans
//!   therefore perform **zero intermediate batch materializations**,
//!   observable via `relational::ExecutionMetrics::
//!   intermediate_materializations` and `core::ExecutionReport`; the
//!   copying `Batch::filter` baseline survives as
//!   `relational::ExecutionContext::selection_vectors = false`, the
//!   reference the filter-parity tests compare against.
//! * **Flattened tree scoring.** Preparing a statement compiles every tree
//!   ensemble into `ml::FlatEnsemble` (via `ml::CompiledPipeline`):
//!   struct-of-arrays arenas with feature indices and child pointers
//!   validated once (out-of-range features are a typed
//!   `MlError::InvalidModel` at registration instead of a silent NaN
//!   score). Scoring is block-at-a-time — 64-row blocks transposed into
//!   feature-major lanes — and trees padded to perfect (complete-binary)
//!   heap layout advance cursors branchlessly with computed children
//!   (`n = 2n + 2 - (v <= t)`, NaN ⇒ right), eight register-resident
//!   traversals in flight. Selected rows are gathered straight from source
//!   columns into the runtime (zero-copy filter→score) and scores scatter
//!   back as one full-length column. Bit-identical to the interpreted
//!   walker (`tests/scoring_parity.rs`), whose oracle is
//!   `ml::MlRuntime::run_batch` over the bare pipeline; the `serving_study`
//!   smoke asserts ≥ 3× single-core scoring throughput on the GB-60
//!   workload.
//! * **Fused featurization (PR 5).** `ml::CompiledPipeline` additionally
//!   compiles the whole featurize→score pass into one kernel
//!   (`ml::FusedPipeline`) whenever the pipeline's shape allows: the
//!   operator DAG resolves into per-lane programs (source column → scalar
//!   stage chain: NaN-fill, affine `(x-offset)*scale`, thresholding),
//!   one-hot encoders become lane scatters over precomputed
//!   `ml::CategoryTable`s (numeric categories compare numerically — no
//!   per-row `format!`), and one pass over the source columns per block
//!   writes finished feature-major lanes the model kernel consumes in
//!   place — tree ensembles via the flat walker, linear models via a dense
//!   lane-major dot kernel. No intermediate `Matrix` exists per operator.
//!   The per-operator compiled path survives as the A/B baseline
//!   (`ml::CompiledPipeline::per_operator`); measured ≈ 5× end-to-end prepared scoring on
//!   the one-hot + scaler → GB-60 workload (gate ≥ 1.5× in
//!   `serving_study`).
//! * **Fused expression kernels.** `relational::eval` evaluates predicates
//!   straight to masks (compare→mask, AND/OR/NOT/IS NULL fused, literal
//!   operands kept scalar, thread-local scratch reuse), so a pushed-down
//!   conjunction allocates one mask, not a column per operator.
//!
//! ## Architecture: the model-aware cost-based join optimizer (PR 6)
//!
//! Multi-table prediction queries (the paper's star-schema workloads, §7.2)
//! are planned by a statistics-driven join optimizer in
//! `relational::optimizer` + `relational::cost`:
//!
//! * **Cardinality estimation.** `relational::CostModel` estimates every
//!   operator from catalog `ColumnStatistics`: scans from row counts, filters
//!   via per-predicate selectivities (equality `1/NDV`, ranges from min/max
//!   interpolation), and equi-joins with the NDV-containment rule
//!   `|A ⋈ B| ≈ |A|·|B| / max(ndv_A, ndv_B)`.
//! * **Join reordering.** Equi-join regions are reordered
//!   smallest-intermediate-first — exhaustive Selinger-style DP for ≤ 6
//!   relations, greedy beyond — with the as-written leftmost leaf pinned as
//!   the probe root so the rewrite preserves row order. At execution time the
//!   physical hash join picks its **build side** by estimated size
//!   (pre-sizing the table from row/NDV stats and reusing key scratch across
//!   batches), observable as `ExecutionReport::join_build_rows` /
//!   `join_probe_batches`. `RavenConfig::cost_based_joins = false` is the
//!   as-written parity oracle, per session; `tests/join_parity.rs`
//!   proptests both modes bitwise-identical, and the streaming parity
//!   matrix runs its join queries in both.
//! * **Model-awareness.** Cross-optimizations run *before* join planning:
//!   model-projection pushdown (`core::cross_opt`) drops pipeline inputs the
//!   model never consumes, and PK-FK join elimination then removes dimension
//!   joins that no longer contribute columns — requirement sets propagate
//!   through kept joins, so a dimension nested below a needed join is still
//!   eliminated. A pruned model observably loses whole joins in the prepared
//!   plan.
//! * **EXPLAIN.** `core::RavenSession::explain_prepared` renders the chosen
//!   join order with estimated cardinalities
//!   (`relational::explain_with_estimates`), e.g. for the 5-table star:
//!
//! ```text
//! Join: supplier_id = supplier_id rows≈1955
//!   Join: product_id = product_id rows≈1955
//!     Join: customer_id = customer_id rows≈1955
//!       Join: promo_id = promo_id rows≈1955
//!         Scan: sales rows≈40000
//!         Scan: promotions filters=[(promotions_num0 < 0.5)] rows≈20
//!       Scan: customers rows≈8000
//!     Scan: products rows≈4000
//!   Scan: suppliers rows≈2000
//! ```
//!
//! The `join_study` smoke (`datagen::five_table_star`, dimensions declared
//! largest-first with a ~5% filter on the tiny `promotions` dimension)
//! asserts the cost-based order ≥ 3× the as-written order end to end,
//! bitwise-identical results, and the pruned-model join elimination.
//!
//! ## Architecture: the prediction-serving layer
//!
//! Above the session sits `raven_serve` — the concurrent serving tier that
//! makes the paper's premise pay off under repeated traffic. A query is
//! **prepared once** (`core::RavenSession::prepare` → parse, cross- and
//! data-induced optimization, and lowering to one form for every transform:
//! the optimized relational data-side plan plus a scorer — the compiled
//! pipeline, or one per partition with partition models, on the ML runtime;
//! MLtoSQL's scoring expression; or MLtoDNN's compiled tensor model) and
//! **executed many times** (`execute_prepared`, one streaming drive: data
//! side → score op → output predicates and projection → one gather at the
//! output, or the final aggregate) — `sql` itself is prepare + execute, so
//! cached plans are byte-identical to ad-hoc execution by construction. `serve::Server`
//! keys prepared statements by a normalized fingerprint
//! (`ir::fingerprint_query`) in an LRU **plan cache** with a companion
//! **compiled-model cache**; both are invalidated by catalog/registry epoch
//! counters, so re-registering a table or model can never serve a stale
//! plan, and cold misses are **single-flight**: concurrent requests for one
//! `(fingerprint, epoch)` elect a leader to prepare while the rest wait on a
//! per-key latch and share the result. A multi-threaded scheduler executes
//! SQL and point requests from N clients over one shared `Arc`'d catalog
//! snapshot (partition work lands on the shared worker pool),
//! **micro-batches** compatible point requests into one columnar batch per
//! tick (`columnar::Batch::from_rows`), enforces an admission-control limit
//! on in-flight work, and reports throughput, latency percentiles
//! (Algorithm-R reservoir over the full history), and cache hit rates via
//! `serve::ServingReport`.
//!
//! ### Cross-request SQL fusion, the parked-drive scheduler, and tenant QoS (PR 9)
//!
//! Under heavy duplicate-bearing traffic (dashboards refreshing one hot
//! query) the serving tier goes further than caching the *plan* — it fuses
//! the *executions*:
//!
//! * **Cross-request SQL fusion** (`serve::fusion`). Each scheduler tick, a
//!   worker that pops a SQL request drains every queued request with the
//!   same canonical fingerprint (up to `ServerConfig::fusion_max_group`),
//!   elects itself leader, drives the prepared plan **once**, and fans the
//!   `Arc`-shared result out to every member. Because the single drive
//!   holds one session read lock, a fused group observes exactly one
//!   catalog/registry epoch pair — a mid-flight re-registration can land
//!   before or after a group, never inside it, so fusion is
//!   bitwise-identical to one-drive-per-request by construction
//!   (`tests/serving_parity.rs` proptests this across worker counts,
//!   duplicate shares, and a churning writer). `ServerConfig::sql_fusion =
//!   false` is the unfused oracle;
//!   `ServingReport::{sql_requests_fused, fused_groups,
//!   fused_group_size_p95}` make fusion observable.
//! * **Parked drives** (`columnar::pool::with_parked_drive`). A serving
//!   worker that submits partition work no longer help-drains the shared
//!   pool while waiting (which stole CPU from other queries' partitions and
//!   inflated tail latency); it parks on the job's completion latch and the
//!   pool workers finish the job. Pool workers themselves still participate
//!   when they drive nested jobs, so the no-deadlock property is preserved.
//! * **Tenant QoS** (`serve::qos`). Admission is a weighted
//!   deficit-round-robin queue over per-tenant sub-queues
//!   (`QosConfig::tenant_weights`), so a saturating adversary cannot
//!   starve a light tenant (asserted by a dedicated adversary test and the
//!   heavy-traffic smoke's starvation-ratio gate). Per-tenant queue-depth
//!   backpressure (`max_tenant_queue`) and EMA-projected-wait load
//!   shedding (`shed_wait_ms`, a typed `ServeError::Overloaded`) bound the
//!   queue; `ServingReport` gains per-tenant submitted/completed/rejected
//!   counts and `queue_wait_p95_us`.
//! * **TinyLFU cache admission** (`serve::cache`). The plan/model caches
//!   admit on a frequency sketch (a doorkeeper + 4-bit counting sketch with
//!   periodic halving) so one burst of cold fingerprints cannot evict the
//!   hot working set.
//!
//! The `heavy_serving` smoke (100 mixed-tenant clients, duplicate-heavy
//! schedule from `datagen::tenant_schedule`) gates fusion ≥ 2× the unfused
//! oracle's QPS, fused p99 ≤ 1.25× unfused, and worst-tenant p99 ≤ 4× the
//! overall p99 (measured ≈3×, 16.8 ms vs 40.6 ms, starvation ratio ≈1).
//!
//! ## Architecture: the durable catalog
//!
//! `raven_storage` makes the catalog survive a crash. A data directory
//! (`ServerConfig::data_dir`, or the `RAVEN_DATA_DIR` environment variable)
//! holds two files with hand-rolled little-endian binary formats:
//!
//! * **`snapshot.rvs`** — a full point-in-time image: magic/version header,
//!   then length-prefixed sections (catalog tables, model registry, hot plan
//!   SQL list), each section and the whole file guarded by CRC32. Column
//!   data is written via `f64::to_bits`, so NaN payloads and `-0.0` survive
//!   **bit for bit**. Derived state is *not* trusted: `ColumnStatistics` are
//!   recomputed from the decoded column data on load, and debug builds
//!   cross-check the persisted stats bitwise (`StorageError::StaleStats`).
//! * **`journal.rvj`** — an append-only mutation log (register/drop table,
//!   register/drop model), one CRC'd length-prefixed record per mutation,
//!   fsync'd before the in-memory state changes (write-ahead discipline). A
//!   torn tail from a mid-append crash is detected by length/CRC and
//!   truncated at the first bad record — the half-written mutation simply
//!   never happened.
//!
//! Every record carries the **epoch counters** (catalog, registry) that held
//! *after* it applied; the snapshot header carries the counters at its cut.
//! Replay skips records at or below the snapshot's counters and requires
//! each applied record to advance exactly one counter by exactly one, so a
//! reordered or duplicated journal is rejected rather than replayed. Because
//! epochs resume at their pre-crash values, the serving tier's epoch-keyed
//! caches can never resurrect a stale compiled-model entry after a warm
//! restart. `core::RavenSession::open_durable` wires recovery into a session
//! (load snapshot → replay journal → recompute stats) and
//! `serve::Server::open_durable` adds **cache pre-warm**: the snapshot's
//! hottest plan SQL (MRU-first) is re-fingerprinted and re-prepared through
//! the normal single-flight path, reported as
//! `ServingReport::{warm_restart_ms, journal_records_replayed,
//! prewarmed_plans}`. Snapshot **compaction** runs on a background thread
//! after registration bursts (`ServerConfig::compaction_threshold`) and
//! never blocks serving reads: the session state is cloned (cheap `Arc`
//! clones) under a read lock, encoded outside all locks, and only the final
//! journal rewrite holds the store's append lock.
//!
//! ## Architecture: fault injection & degraded mode
//!
//! Robustness is tested the same way performance is: against a pinned,
//! reproducible oracle. `columnar::failpoint` is a process-wide,
//! **deterministic, seeded** fault-injection registry: named failpoints in
//! production code (`storage.journal.sync`, `serve.prepare`, ...) consult a
//! schedule parsed from `RAVEN_FAULTS` (or installed programmatically) that
//! says *which* points fail, at *which* hit indices, and *how* — `fail`,
//! `enospc`, `torn` (short write), `corrupt` (bit-flipped read), or
//! `delay(ms)`. Entropy for data-dependent choices (torn-prefix length,
//! corruption offset) is SplitMix64 over `(seed, point, hit)`, so a chaos
//! run reproduces bit for bit from its spec string. When no schedule is
//! installed — the production default — every check is a single atomic
//! load, and the injection counters stay at zero (asserted by the smokes:
//! failpoints are provably inert unless asked for).
//!
//! All storage I/O routes through an injectable `storage::Io` layer
//! (`RealIo` consults the global registry; `ScriptedIo` carries an isolated
//! schedule for parallel tests). The journal append rolls back its
//! write-ahead bytes when the fsync fails, and if even the rollback fails
//! the truncation is re-tried before any later append, probe, or compaction
//! scan — so "acked exactly" survives composed faults: a clean reopen
//! recovers precisely the registrations that returned `Ok`, in order.
//!
//! The serving tier turns injected (or real) storage trouble into typed
//! behavior instead of panics: **transparent bounded retry** with
//! deterministic jittered exponential backoff for transient storage-classed
//! errors (`RAVEN_RETRY_MAX`; a failed single-flight prepare wakes its
//! followers with the error and the next attempt elects a *new* leader),
//! **per-request deadlines** (`RAVEN_REQUEST_DEADLINE_MS` →
//! `ServeError::Timeout` for requests that expire while queued), a
//! **per-fingerprint circuit breaker** (`ServeError::CircuitOpen` fast-fail
//! after repeated engine-side failures, half-open trial after a cooldown),
//! and **degraded read-only mode**: when a mutation's journal append fails
//! persistently, queries keep serving the consistent in-memory catalog,
//! mutations are rejected with `ServeError::ReadOnly`, and a background
//! probe repairs the store and lifts the mode
//! (`ServingReport::degraded_mode`). The `chaos_study` smoke replays the
//! mixed-tenant serving workload under seeded fault schedules and gates on
//! zero panics, bitwise-identical successful responses against the
//! fault-free oracle, and post-fault throughput recovery.
//!
//! ## Static verification (PR 8)
//!
//! Correctness of the rewrite pipeline is checked, not assumed. A plan
//! verifier (`relational::verify`) runs after **every** optimizer rule in
//! debug builds (and in release under `RAVEN_VERIFY=strict`), checking each
//! rewritten plan against the catalog:
//!
//! * every column reference resolves in its child's schema (scan filters
//!   resolve against the *table* schema, since the executor applies filters
//!   before projection);
//! * join keys exist on both sides and agree exactly on `DataType`;
//! * no operator emits duplicate output column names;
//! * the plan-root schema (names *and* types) is preserved across each
//!   rule, the set of scanned tables never grows, and the number of
//!   predicate conjuncts is conserved (only `fold_constants` may change
//!   it — and after each rule the baseline rolls forward, so every rule is
//!   judged against its own input).
//!
//! A violation is a typed `relational::VerifyError` naming the offending
//! rule and carrying the rejected plan's rendering. The same gate extends
//! to compiled artifacts: `ml::FlatEnsemble::verify` (arena bounds,
//! feature-index ranges, acyclicity of pointer-arena trees),
//! `ml::FusedPipeline::verify` (lane programs reference only real source
//! columns and in-range lanes), and the serving tier's epoch-coherence
//! check (a cached compiled artifact whose catalog/registry epochs
//! disagree with the live session is a `serve::ServeError::StaleArtifact`,
//! never served). `tests/verify_invariants.rs` seeds a deliberate bug into
//! each rule and asserts the verifier rejects it by name.
//!
//! Repo-level invariants are linted offline by the dependency-free
//! `cargo run -p xtask -- lint` (wired into CI): no raw `RAVEN_*`
//! environment reads outside the `columnar::envcfg` registry, no
//! `.unwrap()`/`.expect(` in non-test serving code, and every `RAVEN_*`
//! variable documented in the table below (and every row still in use).
//!
//! ## Environment variables
//!
//! All runtime knobs are read **once** through cached accessors in
//! `columnar::envcfg` (enforced by `xtask lint`); this table is the
//! authoritative registry — the lint fails if a `RAVEN_*` variable appears
//! in the sources without a row here, or if a row names a variable that no
//! source or test file mentions any more.
//!
//! | Variable | Effect |
//! |---|---|
//! | `RAVEN_POOL_WORKERS=<n>` | Size the shared worker pool (default: machine parallelism). |
//! | `RAVEN_DATA_DIR=<path>` | Durable-catalog data directory fallback when `ServerConfig::data_dir` is unset (uncached: read per `open_durable`). |
//! | `RAVEN_VERIFY=strict` | Enable the plan/artifact verifier in release builds (always on in debug). |
//! | `RAVEN_FAULTS=<schedule>` | Install a seeded fault-injection schedule (e.g. `seed=7;storage.journal.sync=3+fail*2`); unset = failpoints are inert single atomic loads. |
//! | `RAVEN_RETRY_MAX=<n>` | Serving-tier retry budget for transient storage-classed failures (default 2; 0 disables). |
//! | `RAVEN_REQUEST_DEADLINE_MS=<ms>` | Per-request deadline; requests still queued when it elapses get a typed `Timeout` (unset/0 disables). |
//! | `RAVEN_TEST_DOP=<n>` | Test-only: degree of parallelism used by the serving integration tests. |
//!
//! ## Quickstart
//!
//! ```
//! use raven::prelude::*;
//!
//! // 1. generate a small dataset and train a pipeline on it
//! let dataset = raven::datagen::hospital(500, 42);
//! let table = dataset.tables[0].clone();
//! let pipeline = raven::ml::train_pipeline(
//!     &table.to_batch().unwrap(),
//!     &PipelineSpec {
//!         name: "risk_model".into(),
//!         numeric_inputs: vec!["age".into(), "bmi".into()],
//!         categorical_inputs: vec!["asthma".into()],
//!         label: dataset.label.clone(),
//!         model: ModelType::DecisionTree { max_depth: 6 },
//!         seed: 1,
//!     },
//! )
//! .unwrap();
//!
//! // 2. register data and model in a Raven session
//! let mut session = RavenSession::new();
//! session.register_table(table);
//! session.register_model(pipeline);
//!
//! // 3. run a prediction query with the PREDICT syntax
//! let out = session
//!     .sql(
//!         "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = hospital_stays AS d) \
//!          WITH (risk float) AS p WHERE d.asthma = 1 AND p.risk >= 0.5",
//!     )
//!     .unwrap();
//! assert!(out.report.output_rows <= 500);
//! ```

pub use raven_columnar as columnar;
pub use raven_core as core;
pub use raven_datagen as datagen;
pub use raven_ir as ir;
pub use raven_ml as ml;
pub use raven_relational as relational;
pub use raven_serve as serve;
pub use raven_storage as storage;
pub use raven_tensor as tensor;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use raven_columnar::{Batch, Column, DataType, Field, Schema, Table, TableBuilder, Value};
    pub use raven_core::{
        BaselineMode, PredictionOutput, PreparedStatement, RavenConfig, RavenSession,
        RuntimePolicy, TransformChoice,
    };
    pub use raven_ir::{fingerprint_query, ModelRegistry, QueryFingerprint, UnifiedPlan};
    pub use raven_ml::{MlRuntime, ModelType, Pipeline, PipelineSpec};
    pub use raven_relational::{col, lit, Catalog, Expr, LogicalPlan};
    pub use raven_serve::{Server, ServerConfig, ServingReport};
    pub use raven_tensor::{Device, GpuProfile, Strategy};
}
