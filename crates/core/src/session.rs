//! The end-to-end Raven session: parse → unified IR → Raven optimizer
//! (logical cross-optimizations, data-induced optimizations, runtime
//! selection) → execution on the data engine / ML runtime / DNN runtime
//! (paper §6, Fig. 2 and Fig. 5).

use crate::cross_opt::{
    apply_cross_optimizations, model_projection_pushdown, predicate_based_model_pruning,
    CrossOptReport,
};
use crate::data_induced::{apply_global_data_induced, compile_partition_models, DataInducedReport};
use crate::error::{RavenError, Result};
use crate::mltodnn::{apply_ml_to_dnn, DnnPlan};
use crate::mltosql::pipeline_to_sql;
use crate::stats::PipelineStats;
use crate::strategy::{OptimizationStrategy, TransformChoice};
use raven_columnar::{
    Batch, BatchStream, Column, ColumnarError, DataType, Field, StreamBatch, Table,
};
use raven_ir::{parse_prediction_query, ModelRegistry, UnifiedPlan};
use raven_ml::{bind_batch, CompiledPipeline, MlRuntime, Pipeline, RuntimeConfig};
use raven_relational::{
    aggregate_items, col, evaluate, evaluate_predicate, evaluate_selected, Catalog,
    ExecutionContext, Executor, Expr, LogicalPlan, Optimizer,
};
use raven_storage::DurableStore;
use raven_tensor::{Device, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Carry any session-level error through the columnar stream driver.
fn stream_err(e: impl std::fmt::Display) -> ColumnarError {
    ColumnarError::Execution(e.to_string())
}

/// How the logical-to-physical transformation is selected.
#[derive(Debug, Clone)]
pub enum RuntimePolicy {
    /// Never transform: cross-optimized pipeline stays on the ML runtime.
    NoTransform,
    /// Always apply the given transformation (fall back to the ML runtime if
    /// the rule is not applicable).
    Force(TransformChoice),
    /// The built-in heuristic rule (the shape of the paper's example rule in
    /// §5.2: big models → MLtoDNN, small models with few inputs → MLtoSQL).
    Heuristic,
    /// A learned, data-driven strategy (§5.2).
    Learned(Arc<dyn OptimizationStrategy + Send + Sync>),
}

/// How the ML part of the query is executed when it stays on the ML runtime;
/// used to model the systems Raven is compared against in §7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Vectorized UDF-style batch scoring (Raven / Spark+ONNX Runtime).
    Vectorized,
    /// Row-at-a-time interpreted scoring (SparkML-style baseline).
    RowInterpreted,
    /// Vectorized scoring but with every featurization step materialized to
    /// columnar storage between operators (MADlib-style baseline).
    Materialized,
}

/// Session / optimizer configuration.
#[derive(Debug, Clone)]
pub struct RavenConfig {
    /// Apply predicate-based model pruning (§4.1).
    pub enable_predicate_pruning: bool,
    /// Apply model-projection pushdown (§4.1).
    pub enable_projection_pushdown: bool,
    /// Apply data-induced optimizations (§4.2).
    pub enable_data_induced: bool,
    /// Compile per-partition models when the scanned table is partitioned.
    pub enable_partition_models: bool,
    /// Logical-to-physical policy (§5).
    pub runtime_policy: RuntimePolicy,
    /// Degree of parallelism of the data engine: how many executors of the
    /// process-wide work-stealing pool (`raven_columnar::pool`) one query's
    /// partition drives may occupy concurrently. The pool itself is sized to
    /// the machine; this knob only bounds a single query's share of it.
    pub degree_of_parallelism: usize,
    /// ML runtime configuration (scoring batch size).
    pub ml_runtime: RuntimeConfig,
    /// Device used when MLtoDNN is chosen.
    pub device: Device,
    /// Hummingbird compilation strategy for MLtoDNN.
    pub dnn_strategy: Strategy,
    /// Baseline execution mode for the ML-runtime path.
    pub baseline: BaselineMode,
    /// Cost-based multi-join optimization on the data engine: statistics-
    /// driven join reordering at prepare time plus hash-join build-side
    /// selection at execution time. Defaults to on; off keeps the
    /// as-written join order, the parity baseline that harnesses and the
    /// join-parity tests compare against.
    pub cost_based_joins: bool,
}

impl Default for RavenConfig {
    fn default() -> Self {
        RavenConfig {
            enable_predicate_pruning: true,
            enable_projection_pushdown: true,
            enable_data_induced: true,
            enable_partition_models: false,
            runtime_policy: RuntimePolicy::Heuristic,
            degree_of_parallelism: 1,
            ml_runtime: RuntimeConfig::default(),
            device: Device::Cpu,
            dnn_strategy: Strategy::Gemm,
            baseline: BaselineMode::Vectorized,
            cost_based_joins: true,
        }
    }
}

impl RavenConfig {
    /// A configuration with every Raven optimization disabled — the
    /// "Raven (no-opt)" baseline of §7: no logical optimizations and no
    /// runtime transformation. It runs the same streaming drive as an
    /// optimized query; with data-induced optimizations off, that drive
    /// prunes no partition by statistics.
    pub fn no_opt() -> Self {
        RavenConfig {
            enable_predicate_pruning: false,
            enable_projection_pushdown: false,
            enable_data_induced: false,
            enable_partition_models: false,
            runtime_policy: RuntimePolicy::NoTransform,
            ..Default::default()
        }
    }
}

/// What the optimizer decided and how execution went.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Cross-optimization outcome.
    pub cross: CrossOptReport,
    /// Data-induced optimization outcome.
    pub data_induced: DataInducedReport,
    /// The chosen logical-to-physical transformation.
    pub transform: TransformChoice,
    /// Whether the chosen transformation had to fall back to the ML runtime.
    pub transform_fallback: bool,
    /// Time spent in the Raven optimizer itself.
    pub optimization_time: Duration,
    /// Time spent in the data engine: the drive's wall time minus the
    /// measured ML / DNN scoring time. MLtoSQL's scoring expression is
    /// relational work and counts here.
    pub data_time: Duration,
    /// Time spent in the ML / DNN runtime: the score op's ML-runtime or
    /// featurize + tensor-model time, summed across workers and capped at
    /// the wall clock — exact at dop 1, a scoring-share attribution at
    /// dop > 1 (`data_time + ml_time` partitions the measured wall time).
    /// Zero for MLtoSQL. On a simulated GPU the tensor model's share is the
    /// device-reported (modeled) time instead, see `ml_time_modeled`.
    pub ml_time: Duration,
    /// End-to-end time (optimization excluded), using the device-reported
    /// time for simulated GPUs.
    pub total_time: Duration,
    /// Number of result rows.
    pub output_rows: usize,
    /// Whether `ml_time` comes from a simulated device model.
    pub ml_time_modeled: bool,
    /// Partitions skipped without scanning because their min/max statistics
    /// could not satisfy the query's input predicates (data-induced compute
    /// pruning, §4.2). Always 0 when `enable_data_induced` is off.
    pub pruned_partitions: usize,
    /// Table partitions the data side scanned, join build sides included;
    /// with `pruned_partitions` they cover every partition of every scanned
    /// table.
    pub streamed_partitions: usize,
    /// Full batch copies performed between pipeline stages (filters
    /// materializing surviving rows). Zero with selection vectors: filters
    /// produce zero-copy selection views and surviving rows are gathered
    /// exactly once, at the output boundary. The session always runs
    /// selection vectors, so this reads zero unless a copy crept back in.
    pub intermediate_materializations: usize,
    /// Rows materialized into hash-join build tables across the data side.
    /// With cost-based build-side selection this is the estimated-smaller
    /// input of every join; with `cost_based_joins` off it is always the
    /// right input as written.
    pub join_build_rows: usize,
    /// Partition batches that probed a join hash table on the data side.
    pub join_probe_batches: usize,
}

/// The result of executing a prediction query.
#[derive(Debug, Clone)]
pub struct PredictionOutput {
    /// The result rows.
    pub batch: Batch,
    /// The optimizer / execution report.
    pub report: ExecutionReport,
}

/// Per-partition models compiled at prepare time (data-induced §4.2),
/// packaged so a serving tier can cache them independently of (and with a
/// longer lifetime than) the plan cache. Since PR 5 the cache entry carries
/// the fully compiled [`CompiledPipeline`]s — flattened tree arenas *and*
/// the fused featurizer plan (lane programs, category tables) — so a
/// model-cache hit skips every per-partition compilation step, not just the
/// statistics-driven pruning.
#[derive(Debug, Clone)]
pub struct CompiledModels {
    /// One specialized, fully compiled pipeline per partition of the
    /// scanned table.
    pub pipelines: Arc<Vec<CompiledPipeline>>,
    /// The compilation report (partition-model count, pruned columns).
    pub report: DataInducedReport,
}

/// Storage hooks a serving tier provides so per-partition compiled models are
/// reused across prepared statements. The key is derived *inside* the session
/// — scanned tables, catalog/registry epochs, and a structural hash of the
/// optimized pipeline — so a hit is guaranteed to be byte-compatible with
/// what compilation would have produced, and any registration invalidates it.
pub struct ModelCacheHooks<'a> {
    /// Look a compiled artifact up by key.
    pub lookup: &'a mut dyn FnMut(&str) -> Option<CompiledModels>,
    /// Store a freshly compiled artifact under its key.
    pub store: &'a mut dyn FnMut(&str, &CompiledModels),
}

/// How the drive scores one stream element: the logical-to-physical
/// transformation (§5), resolved once at prepare time. Every scorer takes a
/// `(batch, selection)` element and appends the prediction as a full-length
/// `Float64` column (NaN on deselected rows), so the selection keeps flowing
/// to the one gather at the output.
#[derive(Debug, Clone)]
enum Scorer {
    /// The ML runtime and the §7 baselines: one compiled pipeline shared by
    /// every partition, or — with partition models — one per table
    /// partition, picked by the element's source partition index.
    /// Executions (serving-tier plan-cache hits included) run only the
    /// kernels compiled at prepare time.
    Compiled(Arc<Vec<CompiledPipeline>>),
    /// MLtoSQL: the pipeline as one relational expression, evaluated on the
    /// selected rows only. It is relational work, charged as data time.
    Expr(Arc<Expr>),
    /// MLtoDNN: featurizers on the ML runtime, then the tensor model on the
    /// configured device. The drive hands it the whole data side as one
    /// element, because a simulated GPU charges its launch overhead on every
    /// call.
    Tensor(Arc<DnnPlan>),
}

impl Scorer {
    /// The EXPLAIN header line: which runtime scores, and over how many
    /// partition-specialized models.
    fn describe(&self) -> String {
        let (name, partition_models) = match self {
            Scorer::Compiled(models) if models.len() > 1 => ("Compiled (ML runtime)", models.len()),
            Scorer::Compiled(_) => ("Compiled (ML runtime)", 0),
            Scorer::Expr(_) => ("Expr (MLtoSQL)", 0),
            Scorer::Tensor(_) => ("Tensor (MLtoDNN)", 0),
        };
        format!("Scorer: {name}, partition models: {partition_models}")
    }

    /// Append the `prediction` column to one stream element. ML-runtime and
    /// DNN scoring time goes to `clock`; the §7 baselines and the tensor
    /// model score a compacted element.
    fn score(
        &self,
        mut item: StreamBatch,
        prediction: &str,
        runtime: &MlRuntime,
        baseline: BaselineMode,
        clock: &ScoreClock,
    ) -> Result<StreamBatch> {
        let t0 = Instant::now();
        match self {
            Scorer::Compiled(models) => {
                let compiled = match models.as_slice() {
                    [shared] => shared,
                    per_partition => per_partition.get(item.partition).ok_or_else(|| {
                        RavenError::Ml(format!(
                            "no compiled model for partition {} ({} partition models)",
                            item.partition,
                            per_partition.len()
                        ))
                    })?,
                };
                item.batch = if baseline == BaselineMode::Vectorized {
                    runtime.score_batch_into_selected(
                        compiled,
                        &item.batch,
                        item.selection.as_ref(),
                        prediction,
                    )?
                } else {
                    item = item.compact()?;
                    let scores = score_batch(baseline, runtime, compiled.pipeline(), &item.batch)?;
                    attach_scores(&item.batch, prediction, scores)?
                };
                clock.charge(t0.elapsed(), t0.elapsed());
            }
            Scorer::Expr(expr) => {
                let values = match &item.selection {
                    None => evaluate(expr, &item.batch)?,
                    Some(sel) => evaluate_selected(expr, &item.batch, sel)?,
                };
                let values = match Arc::try_unwrap(values) {
                    Ok(Column::Float64(v)) => v,
                    Ok(other) => other.to_f64_vec()?,
                    Err(shared) => shared.to_f64_vec()?,
                };
                let scores = match item.selection.as_ref().and_then(|s| s.indices()) {
                    None => values,
                    Some(rows) => {
                        let mut full = vec![f64::NAN; item.batch.num_rows()];
                        for (&row, v) in rows.iter().zip(values) {
                            full[row as usize] = v;
                        }
                        full
                    }
                };
                item.batch = attach_scores(&item.batch, prediction, scores)?;
            }
            Scorer::Tensor(dnn) => {
                item = item.compact()?;
                // the featurizer's buffers are freed inside the measured
                // span, so a modeled device's total excludes them
                let (featurize_time, run) = {
                    let inputs = bind_batch(&dnn.featurizer, &item.batch)?;
                    let features = runtime.run(&dnn.featurizer, &inputs)?;
                    let featurize_time = t0.elapsed();
                    (featurize_time, dnn.model.run(features.as_numeric()?)?)
                };
                clock.charge(t0.elapsed(), featurize_time + run.reported);
                item.batch = attach_scores(&item.batch, prediction, run.scores)?;
            }
        }
        Ok(item)
    }
}

/// Scoring time a drive's workers accumulate.
#[derive(Debug, Default)]
struct ScoreClock {
    /// Wall time measured inside ML-runtime and DNN scoring calls, summed
    /// across workers.
    measured_nanos: AtomicU64,
    /// The same calls as the device reports them: the measured time, except
    /// for a simulated GPU's modeled time.
    reported_nanos: AtomicU64,
}

impl ScoreClock {
    fn charge(&self, measured: Duration, reported: Duration) {
        self.measured_nanos
            .fetch_add(measured.as_nanos() as u64, Ordering::Relaxed);
        self.reported_nanos
            .fetch_add(reported.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The per-partition operators after the data side: the scorer, then the
/// output predicates, then the final projection. A filter refines the
/// selection; no row is copied. The projection replaces the columns
/// row-aligned with the source, so the selection survives it untouched.
struct ScoringChain {
    scorer: Scorer,
    prediction: String,
    runtime: MlRuntime,
    baseline: BaselineMode,
    output_preds: Vec<Expr>,
    projection: Vec<Expr>,
    clock: ScoreClock,
}

impl ScoringChain {
    fn run(&self, item: StreamBatch) -> Result<StreamBatch> {
        let mut item = self.scorer.score(
            item,
            &self.prediction,
            &self.runtime,
            self.baseline,
            &self.clock,
        )?;
        for p in &self.output_preds {
            let mask = evaluate_predicate(p, &item.batch)?;
            item.refine_selection(&mask)?;
        }
        if !self.projection.is_empty() {
            let mut columns = Vec::with_capacity(self.projection.len());
            let mut fields = Vec::with_capacity(self.projection.len());
            for e in &self.projection {
                let c = evaluate(e, &item.batch)?;
                fields.push(Field::new(e.output_name(), c.data_type()));
                columns.push(c);
            }
            item.batch = Batch::new(Arc::new(raven_columnar::Schema::new(fields)?), columns)?;
        }
        Ok(item)
    }
}

/// A prediction query prepared once — parsed, cross-optimized, and lowered to
/// its physical artifact — and executable many times via
/// [`RavenSession::execute_prepared`]. This is the unit the serving layer's
/// plan cache stores: every per-request cost that does not depend on the data
/// actually scanned (parsing, the Raven optimizer, SQL generation, relational
/// optimization, DNN compilation, per-partition model compilation) is paid
/// here exactly once.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    plan: Arc<UnifiedPlan>,
    point_pipeline: Arc<Pipeline>,
    point_compiled: Arc<CompiledPipeline>,
    transform: TransformChoice,
    fallback: bool,
    cross: CrossOptReport,
    data_induced: DataInducedReport,
    optimization_time: Duration,
    catalog_epoch: u64,
    registry_epoch: u64,
    /// The optimized relational data-side plan the drive streams.
    data: Arc<LogicalPlan>,
    /// How the drive scores each partition of it.
    scorer: Scorer,
}

impl PreparedStatement {
    /// The optimized unified plan.
    pub fn plan(&self) -> &Arc<UnifiedPlan> {
        &self.plan
    }

    /// The pipeline to score *out-of-table* rows with (point-prediction
    /// serving): the query's pipeline with predicate-derived
    /// cross-optimizations applied but **without** data-induced pruning.
    /// Data-induced optimizations assume inputs stay inside the registered
    /// table's observed min/max domains, which a point request need not obey
    /// — this pipeline is exact for any row that satisfies the query's input
    /// predicates.
    pub fn point_pipeline(&self) -> &Arc<Pipeline> {
        &self.point_pipeline
    }

    /// [`PreparedStatement::point_pipeline`] with its flattened scoring
    /// kernels compiled at prepare time — what the serving tier's point
    /// micro-batches score with, so plan-cache hits run only compiled
    /// kernels.
    pub fn point_scorer(&self) -> &Arc<CompiledPipeline> {
        &self.point_compiled
    }

    /// The chosen logical-to-physical transformation (after resolving
    /// applicability: a transform that fell back reports
    /// [`TransformChoice::None`]).
    pub fn transform(&self) -> TransformChoice {
        if self.fallback {
            TransformChoice::None
        } else {
            self.transform
        }
    }

    /// Time spent preparing (parse excluded; optimizer + lowering).
    pub fn optimization_time(&self) -> Duration {
        self.optimization_time
    }

    /// Catalog epoch this statement was prepared against.
    pub fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }

    /// Registry epoch this statement was prepared against.
    pub fn registry_epoch(&self) -> u64 {
        self.registry_epoch
    }

    /// Whether this statement was prepared against the session's *current*
    /// catalog and registry. `false` means a table or model was re-registered
    /// since: the statement may embed stale statistics, pruned models, or
    /// pre-compiled artifacts and must not serve.
    pub fn is_fresh(&self, session: &RavenSession) -> bool {
        self.catalog_epoch == session.catalog().epoch()
            && self.registry_epoch == session.registry().epoch()
    }
}

/// An end-to-end Raven session (the `RavenSession` of Fig. 5).
///
/// The catalog and the model registry are held behind [`Arc`]s: sessions are
/// cheap to clone, and a serving tier can hand the same immutable snapshot to
/// many concurrent executions. Registration goes through
/// [`Arc::make_mut`] — copy-on-write, so in-flight executions holding the old
/// snapshot are unaffected — and bumps the catalog/registry epoch counters
/// that invalidate prepared statements.
#[derive(Debug, Clone, Default)]
pub struct RavenSession {
    catalog: Arc<Catalog>,
    registry: Arc<ModelRegistry>,
    config: RavenConfig,
    /// Durable-catalog backend. When set, every registration / drop is
    /// journaled (fsync'd) *before* it is applied in memory, so a crash at
    /// any point either replays the mutation or never acknowledged it.
    store: Option<Arc<DurableStore>>,
}

/// What [`RavenSession::open_durable`] recovered from the data directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Whether a snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Size of the loaded snapshot in bytes (0 without one).
    pub snapshot_bytes: u64,
    /// Journal records replayed over the snapshot.
    pub journal_records_replayed: usize,
    /// Whether a torn journal tail was found and truncated.
    pub journal_tail_truncated: bool,
    /// Hot plan fingerprints (canonical SQL, most-recently-used first)
    /// persisted at snapshot time, for serving-tier cache pre-warm.
    pub plan_fingerprints: Vec<String>,
}

impl RavenSession {
    /// Create a session with the default configuration.
    pub fn new() -> Self {
        RavenSession::default()
    }

    /// Create a session with an explicit configuration.
    pub fn with_config(config: RavenConfig) -> Self {
        RavenSession {
            config,
            ..RavenSession::default()
        }
    }

    /// The session configuration (mutable, so harnesses can toggle rules).
    pub fn config_mut(&mut self) -> &mut RavenConfig {
        &mut self.config
    }

    /// The session configuration.
    pub fn config(&self) -> &RavenConfig {
        &self.config
    }

    /// Open a session backed by a durable data directory (`RAVEN_DATA_DIR`
    /// in serving): recovers the catalog and model registry from the last
    /// snapshot plus the journal (truncating any torn tail), resumes the
    /// pre-crash epoch counters, and journals every subsequent mutation.
    pub fn open_durable(
        dir: impl Into<std::path::PathBuf>,
        config: RavenConfig,
    ) -> Result<(RavenSession, RecoveryInfo)> {
        let (store, recovered) = DurableStore::open(dir)?;
        let session = RavenSession {
            catalog: Arc::new(recovered.catalog),
            registry: Arc::new(recovered.registry),
            config,
            store: Some(Arc::new(store)),
        };
        let info = RecoveryInfo {
            snapshot_loaded: recovered.snapshot_loaded,
            snapshot_bytes: recovered.snapshot_bytes,
            journal_records_replayed: recovered.journal_records_replayed,
            journal_tail_truncated: recovered.journal_tail_truncated,
            plan_fingerprints: recovered.plan_fingerprints,
        };
        Ok((session, info))
    }

    /// The durable store backing this session, if any.
    pub fn durable_store(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// Register a table.
    ///
    /// On a durable session the registration is journaled first; a journal
    /// failure here is fail-stop (the in-memory state must never run ahead
    /// of what a restart would recover). Serving tiers use
    /// [`RavenSession::try_register_table`] to surface the error instead.
    pub fn register_table(&mut self, table: Table) {
        self.try_register_table(table)
            .expect("journal write failed; refusing to diverge from durable state");
    }

    /// Register a trained pipeline (fail-stop on journal errors, like
    /// [`RavenSession::register_table`]).
    pub fn register_model(&mut self, pipeline: Pipeline) {
        self.try_register_model(pipeline)
            .expect("journal write failed; refusing to diverge from durable state");
    }

    /// Register a table, journaling it first when the session is durable.
    pub fn try_register_table(&mut self, table: Table) -> Result<()> {
        if let Some(store) = &self.store {
            store.log_register_table(
                table.name(),
                &table,
                self.catalog.epoch() + 1,
                self.registry.epoch(),
            )?;
        }
        Arc::make_mut(&mut self.catalog).register(table);
        Ok(())
    }

    /// Register a trained pipeline, journaling it first when durable.
    pub fn try_register_model(&mut self, pipeline: Pipeline) -> Result<()> {
        if let Some(store) = &self.store {
            store.log_register_model(
                &pipeline.name,
                &pipeline,
                self.catalog.epoch(),
                self.registry.epoch() + 1,
            )?;
        }
        Arc::make_mut(&mut self.registry).register(pipeline);
        Ok(())
    }

    /// Drop a table (journaled first when durable; errors if missing).
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        if !self.catalog.contains(name) {
            return Err(RavenError::Relational(format!("unknown table '{name}'")));
        }
        if let Some(store) = &self.store {
            store.log_drop_table(name, self.catalog.epoch() + 1, self.registry.epoch())?;
        }
        Arc::make_mut(&mut self.catalog)
            .drop_table(name)
            .map_err(|e| RavenError::Relational(e.to_string()))?;
        Ok(())
    }

    /// Drop a model by its exact registered name (journaled first when
    /// durable; errors if missing).
    pub fn drop_model(&mut self, name: &str) -> Result<()> {
        if !self.registry.model_names().iter().any(|n| n == name) {
            return Err(RavenError::Ir(format!("unknown model '{name}'")));
        }
        if let Some(store) = &self.store {
            store.log_drop_model(name, self.catalog.epoch(), self.registry.epoch() + 1)?;
        }
        Arc::make_mut(&mut self.registry)
            .drop_model(name)
            .map_err(|e| RavenError::Ir(e.to_string()))?;
        Ok(())
    }

    /// Snapshot the current catalog + registry (plus the given hot-plan
    /// fingerprints for restart cache pre-warm) and compact the journal.
    /// Returns the snapshot size in bytes; errors on a non-durable session.
    pub fn snapshot_with_plans(&self, plan_fingerprints: &[String]) -> Result<u64> {
        let store = self.store.as_ref().ok_or_else(|| {
            RavenError::Storage("session has no durable store (no data directory)".into())
        })?;
        Ok(store.snapshot(&self.catalog, &self.registry, plan_fingerprints)?)
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// A shared handle to the catalog snapshot (cheap; used by serving-side
    /// caches and concurrent executors).
    pub fn catalog_handle(&self) -> Arc<Catalog> {
        self.catalog.clone()
    }

    /// A shared handle to the registry snapshot.
    pub fn registry_handle(&self) -> Arc<ModelRegistry> {
        self.registry.clone()
    }

    /// Parse, optimize, and execute a prediction query written with the
    /// `PREDICT` syntax.
    pub fn sql(&self, query: &str) -> Result<PredictionOutput> {
        let plan = parse_prediction_query(query, &self.registry, &self.catalog)?;
        self.execute(&plan)
    }

    /// Parse and prepare a prediction query: run the Raven optimizer and
    /// lower the result to its physical artifact, once. The returned
    /// statement can be executed repeatedly with
    /// [`RavenSession::execute_prepared`].
    pub fn prepare(&self, query: &str) -> Result<PreparedStatement> {
        self.prepare_hooked(query, None)
    }

    /// [`RavenSession::prepare`] with serving-tier model-cache hooks.
    pub fn prepare_hooked(
        &self,
        query: &str,
        hooks: Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<PreparedStatement> {
        let plan = parse_prediction_query(query, &self.registry, &self.catalog)?;
        self.prepare_plan_hooked(&plan, hooks)
    }

    /// Prepare an already-parsed unified plan (see [`RavenSession::prepare`]).
    pub fn prepare_plan(&self, plan: &UnifiedPlan) -> Result<PreparedStatement> {
        self.prepare_plan_hooked(plan, None)
    }

    /// [`RavenSession::prepare_plan`] with serving-tier model-cache hooks.
    pub fn prepare_plan_hooked(
        &self,
        plan: &UnifiedPlan,
        mut hooks: Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<PreparedStatement> {
        let opt_start = Instant::now();
        let (optimized, transform, cross, mut data_induced, point_pipeline) =
            self.optimize_stages(plan)?;
        let point_pipeline = Arc::new(point_pipeline);
        let point_compiled = Arc::new(
            CompiledPipeline::from_arc(point_pipeline.clone())
                .map_err(|e| RavenError::Ml(e.to_string()))?,
        );
        let (scorer, fallback) =
            self.lower_scorer(&optimized, transform, &mut data_induced, &mut hooks)?;
        let data = self
            .relational_optimizer()
            .optimize(&self.data_side_plan(&optimized), &self.catalog)?;
        Ok(PreparedStatement {
            plan: Arc::new(optimized),
            point_pipeline,
            point_compiled,
            transform,
            fallback,
            cross,
            data_induced,
            optimization_time: opt_start.elapsed(),
            catalog_epoch: self.catalog.epoch(),
            registry_epoch: self.registry.epoch(),
            data: Arc::new(data),
            scorer,
        })
    }

    /// Optimize a unified plan without executing it (returns the optimized
    /// plan, the chosen transform, and the reports).
    pub fn optimize(
        &self,
        plan: &UnifiedPlan,
    ) -> Result<(
        UnifiedPlan,
        TransformChoice,
        CrossOptReport,
        DataInducedReport,
    )> {
        let (plan, transform, cross, data_induced, _) = self.optimize_stages(plan)?;
        Ok((plan, transform, cross, data_induced))
    }

    /// The optimizer pipeline with a snapshot of the cross-optimized (but
    /// not yet data-induced-pruned) pipeline, taken in passing — feeds
    /// [`PreparedStatement::point_pipeline`] without a second optimizer run.
    #[allow(clippy::type_complexity)]
    fn optimize_stages(
        &self,
        plan: &UnifiedPlan,
    ) -> Result<(
        UnifiedPlan,
        TransformChoice,
        CrossOptReport,
        DataInducedReport,
        Pipeline,
    )> {
        let mut plan = plan.clone();
        let mut cross = CrossOptReport::default();
        if self.config.enable_predicate_pruning && self.config.enable_projection_pushdown {
            cross = apply_cross_optimizations(&mut plan)?;
        } else if self.config.enable_predicate_pruning {
            cross.predicate_pruning_applied = predicate_based_model_pruning(&mut plan)?;
        } else if self.config.enable_projection_pushdown {
            cross.removed_inputs = model_projection_pushdown(&mut plan)?;
            cross.projection_pushdown_applied = !cross.removed_inputs.is_empty();
        }
        let point_pipeline = plan.pipeline.clone();
        let mut data_induced = DataInducedReport::default();
        if self.config.enable_data_induced {
            let report = apply_global_data_induced(&mut plan, &self.catalog)?;
            // columns pruned by data-induced statistics also leave the scan
            data_induced = report;
        }
        let transform = self.choose_transform(&plan);
        Ok((plan, transform, cross, data_induced, point_pipeline))
    }

    /// Optimize and execute a unified plan. Equivalent to
    /// [`RavenSession::prepare_plan`] followed by
    /// [`RavenSession::execute_prepared`] — prepared execution is the *only*
    /// execution path, so cached statements are byte-identical to ad-hoc SQL
    /// by construction.
    pub fn execute(&self, plan: &UnifiedPlan) -> Result<PredictionOutput> {
        let prepared = self.prepare_plan(plan)?;
        self.execute_prepared(&prepared)
    }

    /// Render the prepared statement EXPLAIN-style. The first line names the
    /// scorer and its partition-model count; the rest is the relational
    /// data-side plan with every node annotated with the cost model's
    /// estimated output cardinality (`rows≈`). The plan shown is exactly what
    /// executes: after model-projection pushdown, PK-FK join elimination,
    /// and cost-based join reordering, so dropped dimension joins and the
    /// chosen join order are directly observable.
    pub fn explain_prepared(&self, prepared: &PreparedStatement) -> String {
        format!(
            "{}\n{}",
            prepared.scorer.describe(),
            raven_relational::explain_with_estimates(&prepared.data, &self.catalog)
        )
    }

    /// Execute a prepared statement. Only the residual, data-dependent work
    /// runs: scans, filters, scoring, post-processing. The report's
    /// `optimization_time` is the statement's one-time prepare cost.
    ///
    /// Every transform runs the same drive: the data-side plan streams
    /// partition by partition through the score op, the output predicates
    /// and the final projection, fused per partition on the process-wide
    /// work-stealing pool (bounded by this query's `degree_of_parallelism`).
    /// The surviving rows are gathered once: by the final aggregate, the one
    /// pipeline breaker after scoring, or else by one concat at the output
    /// boundary.
    ///
    /// Fails with [`RavenError::Config`] when the statement is stale — a
    /// table or model was registered after it was prepared. Its artifacts
    /// (statistics-pruned models, partition-aligned model vectors, lowered
    /// plans) may no longer match the catalog, and executing them could
    /// silently return wrong results; re-prepare instead.
    pub fn execute_prepared(&self, prepared: &PreparedStatement) -> Result<PredictionOutput> {
        if !prepared.is_fresh(self) {
            return Err(RavenError::Config(format!(
                "prepared statement is stale (prepared at catalog epoch {} / registry epoch {}, \
                 session is at {} / {}); re-prepare the query",
                prepared.catalog_epoch,
                prepared.registry_epoch,
                self.catalog.epoch(),
                self.registry.epoch()
            )));
        }
        let plan = &prepared.plan;
        let ctx = self.execution_context();
        let dop = ctx.degree_of_parallelism;
        let wall = Instant::now();

        // 1. the data side as a partition stream; the tensor model takes the
        //    whole data side as one element
        let exec = Executor::new();
        let mut stream = exec.execute_stream(&prepared.data, &self.catalog, &ctx)?;
        if let Scorer::Tensor(_) = prepared.scorer {
            stream = BatchStream::once(stream.concat(dop)?);
        }
        let source_schema = stream.schema().clone();

        // 2. score and post-process each partition, fused into the stream
        let chain = Arc::new(ScoringChain {
            scorer: prepared.scorer.clone(),
            prediction: plan.prediction_column.clone(),
            runtime: MlRuntime::with_config(self.config.ml_runtime.clone()),
            baseline: self.config.baseline,
            output_preds: plan.output_predicates().into_iter().cloned().collect(),
            projection: plan.projection.clone(),
            clock: ScoreClock::default(),
        });
        let mut items = stream
            .map({
                let chain = chain.clone();
                move |item| chain.run(item).map(Some).map_err(stream_err)
            })
            .collect(dop)?;
        if items.is_empty() {
            // every partition pruned or empty: push one empty batch of the
            // source schema through the same chain so the output schema
            // (score column, projection, aggregate) is still correct
            items.push(chain.run(StreamBatch::new(Batch::empty(source_schema)?, 0))?);
        }

        // 3. the one gather of surviving rows
        let batch = match &plan.aggregate {
            Some((group_by, aggs)) => {
                aggregate_items(items[0].batch.schema(), &items, group_by, aggs)?
            }
            None if items.len() == 1 => items.swap_remove(0).compact()?.batch,
            None => {
                let parts: Vec<_> = items
                    .iter()
                    .map(|i| (&i.batch, i.selection.as_ref()))
                    .collect();
                Batch::concat_selected(&parts)?
            }
        };

        // Per-partition scoring durations accumulate across concurrent
        // workers, so at dop > 1 the sum is CPU time, not wall time. Cap at
        // the wall clock so `data_time + ml_time` always partitions the
        // measured total: exact at dop 1, a scoring-share attribution above.
        // A simulated GPU reports modeled time instead, and the end-to-end
        // total becomes data time + modeled ML time.
        let wall_time = wall.elapsed();
        let measured =
            Duration::from_nanos(chain.clock.measured_nanos.load(Ordering::Relaxed)).min(wall_time);
        let ml_time_modeled =
            matches!(&prepared.scorer, Scorer::Tensor(dnn) if dnn.model.device.is_simulated());
        let ml_time = if ml_time_modeled {
            Duration::from_nanos(chain.clock.reported_nanos.load(Ordering::Relaxed))
        } else {
            measured
        };
        let data_time = wall_time - measured;
        let metrics = exec.metrics();
        let report = ExecutionReport {
            cross: prepared.cross.clone(),
            data_induced: prepared.data_induced.clone(),
            transform: prepared.transform(),
            transform_fallback: prepared.fallback,
            optimization_time: prepared.optimization_time,
            data_time,
            ml_time,
            total_time: if ml_time_modeled {
                data_time + ml_time
            } else {
                wall_time
            },
            output_rows: batch.num_rows(),
            ml_time_modeled,
            pruned_partitions: metrics.partitions_pruned(),
            streamed_partitions: metrics.partitions_scanned(),
            intermediate_materializations: metrics.intermediate_materializations(),
            join_build_rows: metrics.join_build_rows(),
            join_probe_batches: metrics.join_probe_batches(),
        };
        Ok(PredictionOutput { batch, report })
    }

    // ---------------------------------------------------------------------
    // runtime selection
    // ---------------------------------------------------------------------

    fn choose_transform(&self, plan: &UnifiedPlan) -> TransformChoice {
        match &self.config.runtime_policy {
            RuntimePolicy::NoTransform => TransformChoice::None,
            RuntimePolicy::Force(c) => *c,
            RuntimePolicy::Learned(strategy) => {
                strategy.choose(&PipelineStats::from_pipeline(&plan.pipeline))
            }
            RuntimePolicy::Heuristic => {
                let stats = PipelineStats::from_pipeline(&plan.pipeline);
                let gpu_available = self.config.device.is_simulated();
                // The §5.2 example rule, adapted to this engine's calibration:
                // very large ensembles benefit from the DNN runtime (on GPU),
                // small/medium models with manageable generated SQL go to SQL,
                // everything else stays on the ML runtime.
                if gpu_available && stats.n_tree_nodes > 20_000.0 {
                    TransformChoice::MlToDnn
                } else if stats.is_linear_model == 1.0 || stats.sql_expression_nodes <= 4_000.0 {
                    TransformChoice::MlToSql
                } else {
                    TransformChoice::None
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // lowering
    // ---------------------------------------------------------------------

    /// The scorer of the chosen transform. A transform whose rule does not
    /// apply falls back to the ML runtime, resolved once at prepare time;
    /// the returned flag says whether it did.
    fn lower_scorer(
        &self,
        plan: &UnifiedPlan,
        transform: TransformChoice,
        data_induced: &mut DataInducedReport,
        hooks: &mut Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<(Scorer, bool)> {
        let attempt = match transform {
            TransformChoice::MlToSql => {
                pipeline_to_sql(&plan.pipeline).map(|e| Some(Scorer::Expr(Arc::new(e))))
            }
            TransformChoice::MlToDnn => apply_ml_to_dnn(
                &plan.pipeline,
                self.config.dnn_strategy,
                self.config.device.clone(),
            )
            .map(|dnn| Some(Scorer::Tensor(Arc::new(dnn)))),
            TransformChoice::None => Ok(None),
        };
        match attempt {
            Ok(Some(scorer)) => Ok((scorer, false)),
            Ok(None) => Ok((self.compiled_scorer(plan, data_induced, hooks)?, false)),
            Err(RavenError::RuleNotApplicable(_)) => {
                Ok((self.compiled_scorer(plan, data_induced, hooks)?, true))
            }
            Err(e) => Err(e),
        }
    }

    /// The relational plan computing the model's input data: the query's data
    /// part with input-side predicates applied and projected to the columns
    /// the (optimized) pipeline and the rest of the query still need.
    fn data_side_plan(&self, plan: &UnifiedPlan) -> LogicalPlan {
        let mut data = plan.data.clone();
        let input_preds: Vec<Expr> = plan.input_predicates().into_iter().cloned().collect();
        if !input_preds.is_empty() {
            data = data.filter(Expr::conjunction(input_preds));
        }
        let mut needed: Vec<String> = plan
            .pipeline
            .input_names()
            .into_iter()
            .map(|s| s.to_string())
            .collect();
        for c in plan.externally_required_columns() {
            if !needed.contains(&c) {
                needed.push(c);
            }
        }
        if !needed.is_empty() {
            data = data.project(needed.iter().map(col).collect());
        }
        data
    }

    /// The relational optimizer configured per the session: join reordering
    /// follows the `cost_based_joins` knob, every other rule stays on.
    fn relational_optimizer(&self) -> Optimizer {
        Optimizer::with_options(raven_relational::OptimizerOptions {
            join_reordering: self.config.cost_based_joins,
            ..Default::default()
        })
    }

    /// The execution context handed to the relational engine. Statistics
    /// partition pruning is data-induced compute pruning (§4.2), so it
    /// follows `enable_data_induced`; filters always produce selection
    /// vectors.
    fn execution_context(&self) -> ExecutionContext {
        ExecutionContext {
            degree_of_parallelism: self.config.degree_of_parallelism.max(1),
            batch_size: self.config.ml_runtime.batch_size.max(1),
            partition_pruning: self.config.enable_data_induced,
            selection_vectors: true,
            cost_based_build_side: self.config.cost_based_joins,
        }
    }

    /// The ML-runtime scorer, every scoring pipeline compiled once, at
    /// prepare time — flattened tree arenas plus the fused featurizer plan.
    /// With partition models on and the query scanning one partitioned
    /// table directly, it holds one pipeline per table partition,
    /// specialized to that partition's statistics (data-induced §4.2); the
    /// scan keeps table partition indices under pruning, so the drive can
    /// pick each element's model by its source partition. When serving-tier
    /// hooks are present, those models are looked up and stored under a key
    /// derived from the scanned tables, the catalog/registry epochs, and a
    /// structural hash of the optimized pipeline — identical key ⇒ identical
    /// compilation input.
    fn compiled_scorer(
        &self,
        plan: &UnifiedPlan,
        data_induced: &mut DataInducedReport,
        hooks: &mut Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<Scorer> {
        let compile_all = |models: &[Pipeline]| -> Result<Arc<Vec<CompiledPipeline>>> {
            models
                .iter()
                .map(|p| CompiledPipeline::compile(p).map_err(|e| RavenError::Ml(e.to_string())))
                .collect::<Result<Vec<_>>>()
                .map(Arc::new)
        };
        if self.config.enable_partition_models && matches!(plan.data, LogicalPlan::Scan { .. }) {
            let key = hooks.as_ref().map(|_| self.model_cache_key(plan));
            let cached = match (hooks.as_mut(), key.as_deref()) {
                (Some(h), Some(k)) => (h.lookup)(k),
                _ => None,
            };
            let compiled = match cached {
                // a hit reuses the fully compiled artifacts — pruned
                // pipelines, flat ensembles, and fused featurizer plans
                Some(c) if c.pipelines.len() > 1 => Some(c),
                _ => {
                    let (models, report) = compile_partition_models(plan, &self.catalog)?;
                    if models.len() > 1 {
                        let compiled = CompiledModels {
                            pipelines: compile_all(&models)?,
                            report,
                        };
                        if let (Some(h), Some(k)) = (hooks.as_mut(), key.as_deref()) {
                            (h.store)(k, &compiled);
                        }
                        Some(compiled)
                    } else {
                        None
                    }
                }
            };
            if let Some(c) = compiled {
                data_induced.partition_models = c.report.partition_models;
                data_induced.avg_pruned_columns_per_partition =
                    c.report.avg_pruned_columns_per_partition;
                return Ok(Scorer::Compiled(c.pipelines));
            }
        }
        Ok(Scorer::Compiled(compile_all(std::slice::from_ref(
            &plan.pipeline,
        ))?))
    }

    /// The compiled-model cache key for a plan's partition models. Includes
    /// everything compilation reads: which tables feed the scan (and their
    /// registration epoch, which covers statistics), the registry epoch, and
    /// a structural hash of the optimized pipeline (which already reflects
    /// the query's cross-optimizations).
    fn model_cache_key(&self, plan: &UnifiedPlan) -> String {
        let hash = raven_ir::fnv1a(format!("{:?}", plan.pipeline).as_bytes());
        format!(
            "{}@c{}r{}#p{hash:016x}",
            plan.data.referenced_tables().join(","),
            self.catalog.epoch(),
            self.registry.epoch()
        )
    }
}

/// Score a compacted batch the way a non-vectorized §7 baseline does:
/// row-at-a-time interpreted (SparkML-style), or one operator at a time with
/// every intermediate result materialized (MADlib-style). Vectorized scoring
/// goes through [`MlRuntime::score_batch_into_selected`] instead.
fn score_batch(
    baseline: BaselineMode,
    runtime: &MlRuntime,
    pipeline: &Pipeline,
    batch: &Batch,
) -> Result<Vec<f64>> {
    if baseline == BaselineMode::RowInterpreted {
        return Ok(runtime.run_batch_row_interpreted(pipeline, batch)?);
    }
    // MADlib-style: evaluate the pipeline one operator at a time,
    // materializing every intermediate result into fresh columnar buffers
    // (two extra copies per operator), single threaded.
    let mut inputs = bind_batch(pipeline, batch)?;
    let mut partial = Pipeline {
        name: pipeline.name.clone(),
        inputs: pipeline.inputs.clone(),
        nodes: vec![],
        output: pipeline.output.clone(),
    };
    for node in &pipeline.nodes {
        partial.nodes.push(node.clone());
        partial.output = node.output.clone();
        let out = runtime.run(&partial, &inputs)?;
        // materialize: round-trip the value through owned buffers
        let materialized = match out {
            raven_ml::FrameValue::Numeric(m) => {
                let copied = raven_ml::Matrix::new(m.rows(), m.cols(), m.data().to_vec())
                    .map_err(|e| RavenError::Ml(e.to_string()))?;
                raven_ml::FrameValue::Numeric(copied)
            }
            other => other,
        };
        // expose the materialized value as a new pipeline input so later
        // operators read from "storage"
        inputs.insert(node.output.clone(), materialized);
        partial.inputs.push(raven_ml::PipelineInput {
            name: node.output.clone(),
            kind: raven_ml::InputKind::Numeric,
        });
        partial.nodes.clear();
    }
    let out = inputs
        .remove(&pipeline.output)
        .ok_or_else(|| RavenError::Ml("materialized output missing".into()))?;
    let m = out
        .as_numeric()
        .map_err(|e| RavenError::Ml(e.to_string()))?;
    Ok(m.column(0))
}

fn attach_scores(batch: &Batch, name: &str, scores: Vec<f64>) -> Result<Batch> {
    Ok(batch.with_column(
        Field::new(name, DataType::Float64),
        Arc::new(Column::Float64(scores)),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use raven_columnar::TableBuilder;
    use raven_ml::{train_pipeline, ModelType, PipelineSpec};

    /// Build a small hospital-like scenario: one table, a trained DT pipeline,
    /// and the running-example style query.
    fn session(model: ModelType) -> (RavenSession, String) {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 400;
        let age: Vec<f64> = (0..n).map(|_| rng.gen_range(20.0..90.0)).collect();
        let bmi: Vec<f64> = (0..n).map(|_| rng.gen_range(15.0..45.0)).collect();
        let asthma: Vec<i64> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let rcount: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let label: Vec<f64> = (0..n)
            .map(|i| {
                let risk = 0.04 * (age[i] - 55.0) + 0.08 * (bmi[i] - 30.0) + asthma[i] as f64;
                if risk > 0.3 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let table = TableBuilder::new("patients")
            .add_i64("id", (0..n as i64).collect())
            .add_f64("age", age)
            .add_f64("bmi", bmi)
            .add_i64("asthma", asthma)
            .add_i64("rcount", rcount)
            .build()
            .unwrap();
        let train_batch = table
            .to_batch()
            .unwrap()
            .with_column(
                Field::new("label", DataType::Float64),
                Arc::new(Column::Float64(label)),
            )
            .unwrap();
        let pipeline = train_pipeline(
            &train_batch,
            &PipelineSpec {
                name: "risk_model".into(),
                numeric_inputs: vec!["age".into(), "bmi".into()],
                categorical_inputs: vec!["asthma".into()],
                label: "label".into(),
                model,
                seed: 4,
            },
        )
        .unwrap();
        let mut session = RavenSession::new();
        session.register_table(table);
        session.register_model(pipeline);
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.asthma = 1 AND p.risk >= 0.5"
            .to_string();
        (session, query)
    }

    fn ids(batch: &Batch) -> Vec<i64> {
        let mut v = batch
            .column_by_name("id")
            .unwrap()
            .as_i64()
            .unwrap()
            .to_vec();
        v.sort();
        v
    }

    /// Sorted `(id, risk bits)` rows: bitwise result identity.
    fn id_risk_bits(batch: &Batch) -> Vec<(i64, u64)> {
        let ids = batch.column_by_name("id").unwrap().as_i64().unwrap();
        let risk = batch.column_by_name("risk").unwrap().as_f64().unwrap();
        let mut rows: Vec<(i64, u64)> = ids
            .iter()
            .zip(risk)
            .map(|(id, r)| (*id, r.to_bits()))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// The running-example session with `patients` split into 8 age ranges.
    fn age_partitioned_session(model: ModelType) -> RavenSession {
        use raven_columnar::{partition_by_column, PartitionSpec};
        let (mut session, _) = session(model);
        let table = session.catalog().table("patients").unwrap();
        let partitioned = partition_by_column(
            &table,
            &PartitionSpec::ByRange {
                column: "age".into(),
                partitions: 8,
            },
        )
        .unwrap();
        session.register_table(partitioned);
        session
    }

    #[test]
    fn optimized_and_unoptimized_results_agree() {
        for model in [
            ModelType::DecisionTree { max_depth: 6 },
            ModelType::LogisticRegression { l1_alpha: 0.01 },
            ModelType::GradientBoosting {
                n_estimators: 8,
                max_depth: 3,
                learning_rate: 0.2,
            },
        ] {
            let (mut session, query) = session(model);
            let optimized = session.sql(&query).unwrap();
            *session.config_mut() = RavenConfig::no_opt();
            let baseline = session.sql(&query).unwrap();
            assert_eq!(
                ids(&optimized.batch),
                ids(&baseline.batch),
                "result mismatch between optimized and unoptimized execution"
            );
            assert!(optimized.report.output_rows > 0);
        }
    }

    #[test]
    fn transforms_are_selected_and_reported() {
        let (mut session, query) = session(ModelType::DecisionTree { max_depth: 5 });
        // heuristic should choose MLtoSQL for a small decision tree
        let out = session.sql(&query).unwrap();
        assert_eq!(out.report.transform, TransformChoice::MlToSql);
        assert!(out.report.ml_time.is_zero());

        // force the ML runtime
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let out = session.sql(&query).unwrap();
        assert_eq!(out.report.transform, TransformChoice::None);
        assert!(
            out.report.cross.projection_pushdown_applied
                || out.report.cross.predicate_pruning_applied
        );

        // force MLtoDNN on the simulated GPU
        session.config_mut().runtime_policy = RuntimePolicy::Force(TransformChoice::MlToDnn);
        session.config_mut().device = Device::SimulatedGpu(raven_tensor::GpuProfile::tesla_k80());
        let out = session.sql(&query).unwrap();
        assert_eq!(out.report.transform, TransformChoice::MlToDnn);
        assert!(out.report.ml_time_modeled);
    }

    #[test]
    fn all_execution_paths_agree() {
        let (mut session, query) = session(ModelType::GradientBoosting {
            n_estimators: 6,
            max_depth: 3,
            learning_rate: 0.2,
        });
        let mut results = Vec::new();
        for choice in [
            TransformChoice::None,
            TransformChoice::MlToSql,
            TransformChoice::MlToDnn,
        ] {
            session.config_mut().runtime_policy = RuntimePolicy::Force(choice);
            let out = session.sql(&query).unwrap();
            results.push(ids(&out.batch));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn baselines_agree_with_vectorized() {
        let (mut session, query) = session(ModelType::DecisionTree { max_depth: 4 });
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let vectorized = session.sql(&query).unwrap();
        session.config_mut().baseline = BaselineMode::RowInterpreted;
        let row = session.sql(&query).unwrap();
        session.config_mut().baseline = BaselineMode::Materialized;
        let mat = session.sql(&query).unwrap();
        assert_eq!(ids(&vectorized.batch), ids(&row.batch));
        assert_eq!(ids(&vectorized.batch), ids(&mat.batch));
    }

    #[test]
    fn streaming_prunes_partitions_and_matches_unpruned() {
        let mut session = age_partitioned_session(ModelType::DecisionTree { max_depth: 5 });
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        session.config_mut().degree_of_parallelism = 4;
        // age >= 80 only touches the top range partition(s)
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 80 AND p.risk >= 0.0";

        let pruned = session.sql(query).unwrap();
        assert!(
            pruned.report.pruned_partitions >= 4,
            "expected most range partitions pruned, got {}",
            pruned.report.pruned_partitions
        );
        assert!(pruned.report.streamed_partitions >= 1);
        assert_eq!(
            pruned.report.pruned_partitions + pruned.report.streamed_partitions,
            8
        );

        session.config_mut().enable_data_induced = false;
        let unpruned = session.sql(query).unwrap();
        assert_eq!(unpruned.report.pruned_partitions, 0);
        assert_eq!(unpruned.report.streamed_partitions, 8);
        assert_eq!(id_risk_bits(&pruned.batch), id_risk_bits(&unpruned.batch));
        assert!(pruned.report.output_rows > 0, "predicate should keep rows");
    }

    #[test]
    fn streaming_partition_models_stay_aligned_under_pruning() {
        // each age range gets a model specialized to that range, so a
        // partition scored by another partition's model changes its scores
        let mut session = age_partitioned_session(ModelType::DecisionTree { max_depth: 6 });
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        session.config_mut().enable_partition_models = true;
        session.config_mut().degree_of_parallelism = 2;
        // age >= 60 prunes the lower range partitions entirely
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 60 AND p.risk >= 0.0";

        let pruned = session.sql(query).unwrap();
        assert!(pruned.report.data_induced.partition_models >= 2);
        assert!(pruned.report.pruned_partitions >= 1);

        // without pruning every partition is scored by its own model, so a
        // misaligned model vector would change the surviving rows' scores
        session.config_mut().enable_data_induced = false;
        let unpruned = session.sql(query).unwrap();
        assert!(unpruned.report.data_induced.partition_models >= 2);
        assert_eq!(unpruned.report.pruned_partitions, 0);
        assert_eq!(id_risk_bits(&pruned.batch), id_risk_bits(&unpruned.batch));

        // and a partition's specialized model scores its rows exactly like
        // the one shared model
        session.config_mut().enable_partition_models = false;
        let shared = session.sql(query).unwrap();
        assert_eq!(shared.report.data_induced.partition_models, 0);
        assert_eq!(id_risk_bits(&pruned.batch), id_risk_bits(&shared.batch));
    }

    /// Statistics partition pruning is data-induced compute pruning (§4.2):
    /// on each execution path it happens exactly when `enable_data_induced`
    /// is on, and never changes the result rows.
    fn assert_pruning_follows_data_induced(policy: RuntimePolicy) {
        let mut session = age_partitioned_session(ModelType::DecisionTree { max_depth: 4 });
        session.config_mut().runtime_policy = policy;
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 80 AND p.risk >= 0.0";
        session.config_mut().enable_data_induced = false;
        let unpruned = session.sql(query).unwrap();
        assert_eq!(unpruned.report.pruned_partitions, 0);
        session.config_mut().enable_data_induced = true;
        let pruned = session.sql(query).unwrap();
        assert!(pruned.report.pruned_partitions > 0);
        assert_eq!(pruned.report.transform, unpruned.report.transform);
        assert!(!ids(&pruned.batch).is_empty());
        assert_eq!(ids(&pruned.batch), ids(&unpruned.batch));
    }

    #[test]
    fn ml_runtime_pruning_follows_data_induced() {
        assert_pruning_follows_data_induced(RuntimePolicy::NoTransform);
    }

    #[test]
    fn ml_to_sql_pruning_follows_data_induced() {
        assert_pruning_follows_data_induced(RuntimePolicy::Force(TransformChoice::MlToSql));
    }

    #[test]
    fn ml_to_dnn_pruning_follows_data_induced() {
        assert_pruning_follows_data_induced(RuntimePolicy::Force(TransformChoice::MlToDnn));
    }

    #[test]
    fn streaming_ml_time_never_exceeds_wall_time() {
        use raven_columnar::{partition_by_column, PartitionSpec};
        let (mut session, query) = session(ModelType::GradientBoosting {
            n_estimators: 8,
            max_depth: 3,
            learning_rate: 0.2,
        });
        let table = session.catalog().table("patients").unwrap();
        let partitioned =
            partition_by_column(&table, &PartitionSpec::RoundRobin { partitions: 6 }).unwrap();
        session.register_table(partitioned);
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        session.config_mut().degree_of_parallelism = 4;
        let out = session.sql(&query).unwrap();
        // scoring time is summed across workers but capped at the wall
        // clock, so the data/ML split always partitions the total
        assert!(out.report.ml_time <= out.report.total_time + out.report.optimization_time);
        assert!(out.report.data_time + out.report.ml_time <= out.report.total_time * 2);
    }

    /// The three scorers, forced: the ML runtime, MLtoSQL and MLtoDNN.
    fn every_scorer() -> [RuntimePolicy; 3] {
        [
            RuntimePolicy::NoTransform,
            RuntimePolicy::Force(TransformChoice::MlToSql),
            RuntimePolicy::Force(TransformChoice::MlToDnn),
        ]
    }

    #[test]
    fn streaming_empty_result_keeps_output_schema() {
        let (mut session, _) = session(ModelType::DecisionTree { max_depth: 4 });
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age > 1000 AND p.risk >= 0.0";
        for policy in every_scorer() {
            session.config_mut().runtime_policy = policy.clone();
            let out = session.sql(query).unwrap();
            assert!(!out.report.transform_fallback, "{policy:?}");
            assert_eq!(out.batch.num_rows(), 0, "{policy:?}");
            assert_eq!(out.batch.schema().names(), vec!["id", "risk"], "{policy:?}");
            let risk = out.batch.schema().field_by_name("risk").unwrap();
            assert_eq!(risk.data_type(), DataType::Float64, "{policy:?}");
        }
    }

    /// A partition index with no compiled model is an execution error, not
    /// a silent fallback to another partition's model (which was pruned
    /// with that partition's statistics).
    #[test]
    fn compiled_scorer_rejects_partition_without_model() {
        let (session, _) = session(ModelType::DecisionTree { max_depth: 4 });
        let model =
            CompiledPipeline::compile(&session.registry().get("risk_model").unwrap()).unwrap();
        let scorer = Scorer::Compiled(Arc::new(vec![model.clone(), model]));
        let batch = session
            .catalog()
            .table("patients")
            .unwrap()
            .to_batch()
            .unwrap();
        let score = |partition| {
            scorer.score(
                StreamBatch::new(batch.clone(), partition),
                "risk",
                &MlRuntime::new(),
                BaselineMode::Vectorized,
                &ScoreClock::default(),
            )
        };
        assert!(score(1).unwrap().batch.column_by_name("risk").is_ok());
        let err = score(2).unwrap_err();
        assert!(err.to_string().contains("partition 2"), "{err}");
    }

    #[test]
    fn prepared_statements_replay_and_refuse_stale_catalogs() {
        let (session, query) = session(ModelType::DecisionTree { max_depth: 5 });
        let prepared = session.prepare(&query).unwrap();
        let direct = session.sql(&query).unwrap();
        let replayed = session.execute_prepared(&prepared).unwrap();
        assert_eq!(ids(&direct.batch), ids(&replayed.batch));
        assert!(prepared.is_fresh(&session));

        // registering anything bumps an epoch; the stale statement must
        // error instead of silently executing over the changed catalog
        let mut session = session;
        let table = session.catalog().table("patients").unwrap();
        session.register_table(table.as_ref().clone());
        assert!(!prepared.is_fresh(&session));
        let err = session.execute_prepared(&prepared).unwrap_err();
        assert!(matches!(err, RavenError::Config(_)), "{err}");
        assert!(err.to_string().contains("stale"));
    }

    /// A star-shaped scenario: the model's declared inputs include a
    /// dimension column it never actually uses. Model-projection pushdown
    /// removes the input, the data side stops requiring the dimension table,
    /// and the optimizer's PK-FK join elimination drops the dimension join
    /// entirely — observable in the EXPLAIN output and the join counters.
    #[test]
    fn model_pruning_eliminates_dimension_join() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 240;
        let age: Vec<f64> = (0..n).map(|_| rng.gen_range(20.0..90.0)).collect();
        let bmi: Vec<f64> = (0..n).map(|_| rng.gen_range(15.0..45.0)).collect();
        let label: Vec<f64> = (0..n)
            .map(|i| {
                if 0.04 * (age[i] - 55.0) + 0.08 * (bmi[i] - 30.0) > 0.2 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let fact = TableBuilder::new("fact")
            .add_i64("id", (0..n as i64).collect())
            .add_f64("age", age)
            .add_f64("bmi", bmi)
            .add_i64("dim_id", (0..n as i64).map(|i| i % 8).collect())
            .build()
            .unwrap();
        let dim = TableBuilder::new("dim")
            .add_i64("did", (0..8).collect())
            .add_f64("dim_val", (0..8).map(|i| i as f64 * 1.5).collect())
            .build()
            .unwrap();
        let train_batch = fact
            .to_batch()
            .unwrap()
            .with_column(
                Field::new("dim_val", DataType::Float64),
                Arc::new(Column::Float64(
                    (0..n).map(|i| (i % 8) as f64 * 1.5).collect(),
                )),
            )
            .unwrap()
            .with_column(
                Field::new("label", DataType::Float64),
                Arc::new(Column::Float64(label)),
            )
            .unwrap();
        let mut pipeline = train_pipeline(
            &train_batch,
            &PipelineSpec {
                name: "star_model".into(),
                numeric_inputs: vec!["age".into(), "bmi".into(), "dim_val".into()],
                categorical_inputs: vec![],
                label: "label".into(),
                model: ModelType::LogisticRegression { l1_alpha: 0.01 },
                seed: 11,
            },
        )
        .unwrap();
        // make the model provably ignore the dimension feature: zero its
        // weight so `used_features` excludes it (model sparsity, §2.1)
        for node in &mut pipeline.nodes {
            if let raven_ml::Operator::LogisticRegression(m) = &mut node.op {
                m.weights[2] = 0.0;
            }
        }

        let mut session = RavenSession::new();
        session.register_table(fact);
        session.register_table(dim);
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let data = LogicalPlan::scan("fact").join(LogicalPlan::scan("dim"), "dim_id", "did");
        let mut plan =
            raven_ir::UnifiedPlan::new(data, pipeline, "risk", session.catalog()).unwrap();
        plan.projection = vec![col("id"), col("risk")];

        // optimized: the unused dim_val input is pruned, so the dimension
        // join disappears and no hash table is ever built
        let prepared = session.prepare_plan(&plan).unwrap();
        let explain = session.explain_prepared(&prepared);
        assert!(
            explain.starts_with("Scorer: Compiled (ML runtime), partition models: 0\n"),
            "{explain}"
        );
        assert!(!explain.contains("Join:"), "join survived:\n{explain}");
        assert!(explain.contains("rows≈"), "{explain}");
        let out = session.execute_prepared(&prepared).unwrap();
        assert!(out
            .report
            .cross
            .removed_inputs
            .iter()
            .any(|i| i == "dim_val"));
        assert_eq!(out.report.join_build_rows, 0);

        // control: with projection pushdown disabled the dimension column
        // stays required, the join executes, and the build side is the
        // 8-row dimension table
        session.config_mut().enable_projection_pushdown = false;
        let prepared = session.prepare_plan(&plan).unwrap();
        let explain = session.explain_prepared(&prepared);
        assert!(explain.contains("Join:"), "{explain}");
        let control = session.execute_prepared(&prepared).unwrap();
        assert_eq!(control.report.join_build_rows, 8);
        assert!(control.report.join_probe_batches >= 1);
        assert_eq!(ids(&out.batch), ids(&control.batch));
        assert_eq!(out.batch.num_rows(), n);
    }

    #[test]
    fn aggregate_queries_work() {
        let (mut session, _) = session(ModelType::DecisionTree { max_depth: 4 });
        let plan = parse_prediction_query(
            "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (risk float) AS p",
            session.registry(),
            session.catalog(),
        )
        .unwrap();
        let mut plan = plan;
        plan.projection = vec![];
        plan.aggregate = Some((
            vec![],
            vec![raven_relational::AggregateExpr {
                func: raven_relational::AggregateFunction::Avg,
                arg: col("risk"),
                alias: "avg_risk".into(),
            }],
        ));
        for policy in every_scorer() {
            session.config_mut().runtime_policy = policy.clone();
            let out = session.execute(&plan).unwrap();
            assert!(!out.report.transform_fallback, "{policy:?}");
            assert_eq!(out.batch.num_rows(), 1, "{policy:?}");
            let avg = out
                .batch
                .column_by_name("avg_risk")
                .unwrap()
                .as_f64()
                .unwrap()[0];
            assert!((0.0..=1.0).contains(&avg), "{policy:?}: {avg}");
        }
    }
}
