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
use crate::mltodnn::apply_ml_to_dnn;
use crate::mltosql::pipeline_to_sql;
use crate::stats::PipelineStats;
use crate::strategy::{OptimizationStrategy, TransformChoice};
use raven_columnar::{
    Batch, BatchStream, Column, ColumnarError, DataType, Field, StreamBatch, Table,
};
use raven_ir::{parse_prediction_query, ModelRegistry, UnifiedPlan};
use raven_ml::{bind_batch, CompiledPipeline, MlRuntime, Pipeline, RuntimeConfig};
use raven_relational::{
    col, evaluate, evaluate_predicate, may_satisfy_all, selection_vectors_default, Catalog,
    ExecutionContext, Executor, Expr, LogicalPlan, Optimizer,
};
use raven_storage::DurableStore;
use raven_tensor::{Device, Strategy};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// selection at execution time. Defaults to on;
    /// `RAVEN_JOIN_ORDER=asis` pins the as-written order process-wide as the
    /// parity baseline. Harnesses toggle this field for in-process A/B runs
    /// (the env knob is read once per process).
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
            cost_based_joins: raven_relational::cost_based_joins_default(),
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
    /// Time spent in the data engine.
    pub data_time: Duration,
    /// Time spent in the ML / DNN runtime (zero for MLtoSQL). On the
    /// ML-runtime path this is the per-partition scoring time summed across
    /// workers and capped at the wall clock — exact at dop 1, a
    /// scoring-share attribution at dop > 1 (`data_time + ml_time` always
    /// partitions the measured wall time).
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
    /// Partitions that flowed through the streaming scoring pipeline.
    pub streamed_partitions: usize,
    /// Full batch copies performed between pipeline stages (filters
    /// materializing surviving rows). Zero with selection vectors: filters
    /// produce zero-copy selection views and surviving rows are gathered
    /// exactly once, at the output boundary. Under
    /// `RAVEN_SELECTION=materialize` every filter's copy is counted here.
    pub intermediate_materializations: usize,
    /// Rows materialized into hash-join build tables across the data side.
    /// With cost-based build-side selection this is the estimated-smaller
    /// input of every join; under `RAVEN_JOIN_ORDER=asis` it is always the
    /// right input as written.
    pub join_build_rows: usize,
    /// Partition batches that probed a join hash table on the data side.
    pub join_probe_batches: usize,
}

/// Internal result of one execution path (ML runtime / MLtoSQL / MLtoDNN),
/// folded into the public [`ExecutionReport`].
#[derive(Debug)]
struct PathOutcome {
    batch: Batch,
    data_time: Duration,
    ml_time: Duration,
    ml_time_modeled: bool,
    fallback: bool,
    partition_report: Option<DataInducedReport>,
    pruned_partitions: usize,
    streamed_partitions: usize,
    intermediate_materializations: usize,
    join_build_rows: usize,
    join_probe_batches: usize,
}

impl PathOutcome {
    fn new(batch: Batch) -> Self {
        PathOutcome {
            batch,
            data_time: Duration::ZERO,
            ml_time: Duration::ZERO,
            ml_time_modeled: false,
            fallback: false,
            partition_report: None,
            pruned_partitions: 0,
            streamed_partitions: 0,
            intermediate_materializations: 0,
            join_build_rows: 0,
            join_probe_batches: 0,
        }
    }

    /// Fold one executor-counter snapshot into this outcome (additive, so
    /// paths that run several relational plans accumulate).
    fn apply_counters(&mut self, c: EngineCounters) {
        self.pruned_partitions += c.pruned_partitions;
        self.streamed_partitions += c.streamed_partitions;
        self.intermediate_materializations += c.intermediate_materializations;
        self.join_build_rows += c.join_build_rows;
        self.join_probe_batches += c.join_probe_batches;
    }
}

/// Snapshot of the relational executor's counters after one plan run, folded
/// into the [`ExecutionReport`].
#[derive(Debug, Clone, Copy)]
struct EngineCounters {
    pruned_partitions: usize,
    streamed_partitions: usize,
    intermediate_materializations: usize,
    join_build_rows: usize,
    join_probe_batches: usize,
}

impl EngineCounters {
    fn from_metrics(metrics: &raven_relational::ExecutionMetrics) -> Self {
        EngineCounters {
            pruned_partitions: metrics.partitions_pruned(),
            streamed_partitions: metrics.partitions_scanned(),
            intermediate_materializations: metrics.intermediate_materializations(),
            join_build_rows: metrics.join_build_rows(),
            join_probe_batches: metrics.join_probe_batches(),
        }
    }
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

/// The physical artifact a [`PreparedStatement`] replays on execution — the
/// expensive, per-query-shape work (relational optimization, SQL generation,
/// tensor compilation, per-partition model compilation) done exactly once at
/// prepare time.
#[derive(Debug, Clone)]
enum PreparedArtifact {
    /// MLtoSQL: the whole query lowered to one optimized relational plan.
    Sql { relational: Arc<LogicalPlan> },
    /// MLtoDNN: compiled tensor model + the optimized data-side plan.
    Dnn {
        dnn: Arc<crate::mltodnn::DnnPlan>,
        data: Arc<LogicalPlan>,
    },
    /// ML-runtime path (and the §7 baselines).
    MlRuntime(MlRuntimePlan),
}

/// Lowered form of the ML-runtime execution path.
#[derive(Debug, Clone)]
struct MlRuntimePlan {
    /// The optimized relational data-side plan. `None` on the per-partition
    /// compiled-models path, which streams the scanned table directly so
    /// partition indices stay aligned with the model vector.
    data: Option<Arc<LogicalPlan>>,
    /// The scanned table, on the per-partition compiled-models path.
    scan_table: Option<String>,
    /// The pipeline(s) to score with, each carrying its flattened
    /// struct-of-arrays scoring kernels compiled at prepare time: one per
    /// partition on the partition-models path, a single shared pipeline
    /// otherwise. Executions (including serving-tier plan-cache hits) run
    /// only the compiled kernels; `RAVEN_SCORER=interpreted` pins the
    /// interpreted parity baseline at scoring time.
    models: Arc<Vec<CompiledPipeline>>,
    /// Partition-model compilation report (folded into the execution report).
    partition_report: Option<DataInducedReport>,
    /// Schema of the data side's output (drives the empty boundary batch).
    schema: raven_columnar::SchemaRef,
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
    artifact: PreparedArtifact,
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
        let (optimized, transform, cross, data_induced, point_pipeline) =
            self.optimize_stages(plan)?;
        let point_pipeline = Arc::new(point_pipeline);
        let point_compiled = Arc::new(
            CompiledPipeline::from_arc(point_pipeline.clone())
                .map_err(|e| RavenError::Ml(e.to_string()))?,
        );
        let (artifact, fallback) = self.lower(&optimized, transform, &mut hooks)?;
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
            artifact,
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

    /// Render the prepared statement's relational data-side plan
    /// EXPLAIN-style, annotating every node with the cost model's estimated
    /// output cardinality (`rows≈`). The plan shown is exactly what executes:
    /// after model-projection pushdown, PK-FK join elimination, and
    /// cost-based join reordering, so dropped dimension joins and the chosen
    /// join order are directly observable. Returns `None` for prepared
    /// artifacts with no relational plan (per-partition compiled models
    /// stream their table directly).
    pub fn explain_prepared(&self, prepared: &PreparedStatement) -> Option<String> {
        let plan = match &prepared.artifact {
            PreparedArtifact::Sql { relational } => relational,
            PreparedArtifact::Dnn { data, .. } => data,
            PreparedArtifact::MlRuntime(lowered) => lowered.data.as_ref()?,
        };
        Some(raven_relational::explain_with_estimates(
            plan,
            &self.catalog,
        ))
    }

    /// Execute a prepared statement. Only the residual, data-dependent work
    /// runs: scans, filters, scoring, post-processing. The report's
    /// `optimization_time` is the statement's one-time prepare cost.
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
        let exec_start = Instant::now();
        let outcome = match &prepared.artifact {
            PreparedArtifact::Sql { relational } => self.run_ml_to_sql(relational)?,
            PreparedArtifact::Dnn { dnn, data } => self.run_ml_to_dnn(&prepared.plan, dnn, data)?,
            PreparedArtifact::MlRuntime(lowered) => self.run_ml_runtime(&prepared.plan, lowered)?,
        };
        let mut data_induced = prepared.data_induced.clone();
        if let Some(p) = &outcome.partition_report {
            data_induced.partition_models = p.partition_models;
            data_induced.avg_pruned_columns_per_partition = p.avg_pruned_columns_per_partition;
        }
        let measured_total = exec_start.elapsed();
        let intermediate_materializations = outcome.intermediate_materializations;
        // When the ML time is modeled (simulated GPU) the end-to-end total is
        // data time + modeled ML time rather than the measured wall clock.
        let total_time = if outcome.ml_time_modeled {
            outcome.data_time + outcome.ml_time
        } else {
            measured_total
        };
        let fallback = prepared.fallback || outcome.fallback;
        let report = ExecutionReport {
            cross: prepared.cross.clone(),
            data_induced,
            transform: if fallback {
                TransformChoice::None
            } else {
                prepared.transform
            },
            transform_fallback: fallback,
            optimization_time: prepared.optimization_time,
            data_time: outcome.data_time,
            ml_time: outcome.ml_time,
            total_time,
            output_rows: outcome.batch.num_rows(),
            ml_time_modeled: outcome.ml_time_modeled,
            pruned_partitions: outcome.pruned_partitions,
            streamed_partitions: outcome.streamed_partitions,
            intermediate_materializations,
            join_build_rows: outcome.join_build_rows,
            join_probe_batches: outcome.join_probe_batches,
        };
        Ok(PredictionOutput {
            batch: outcome.batch,
            report,
        })
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
    // execution paths
    // ---------------------------------------------------------------------

    /// Lower the optimized plan to its physical artifact for the chosen
    /// transform, resolving applicability (a transform whose rule does not
    /// apply falls back to the ML-runtime artifact) once at prepare time.
    fn lower(
        &self,
        plan: &UnifiedPlan,
        transform: TransformChoice,
        hooks: &mut Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<(PreparedArtifact, bool)> {
        let attempt = match transform {
            TransformChoice::MlToSql => self.lower_ml_to_sql(plan).map(Some),
            TransformChoice::MlToDnn => self.lower_ml_to_dnn(plan).map(Some),
            TransformChoice::None => Ok(None),
        };
        match attempt {
            Ok(Some(artifact)) => Ok((artifact, false)),
            Ok(None) => Ok((
                PreparedArtifact::MlRuntime(self.lower_ml_runtime(plan, hooks)?),
                false,
            )),
            Err(RavenError::RuleNotApplicable(_)) => Ok((
                PreparedArtifact::MlRuntime(self.lower_ml_runtime(plan, hooks)?),
                true,
            )),
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
    /// follows `enable_data_induced`; selection vectors follow only the
    /// `RAVEN_SELECTION` pin.
    fn execution_context(&self) -> ExecutionContext {
        ExecutionContext {
            degree_of_parallelism: self.config.degree_of_parallelism.max(1),
            batch_size: self.config.ml_runtime.batch_size.max(1),
            partition_pruning: self.config.enable_data_induced,
            selection_vectors: selection_vectors_default(),
            cost_based_build_side: self.config.cost_based_joins,
        }
    }

    /// Run an already-optimized relational plan, returning the result plus a
    /// snapshot of the executor's counters (partitions pruned via statistics
    /// / scanned, intermediate materializations, join build/probe work).
    fn run_optimized(&self, plan: &LogicalPlan) -> Result<(Batch, EngineCounters)> {
        let exec = Executor::new();
        let batch = exec.execute(plan, &self.catalog, &self.execution_context())?;
        Ok((batch, EngineCounters::from_metrics(&exec.metrics())))
    }

    /// MLtoSQL lowering: the entire query (featurization, model, predicates,
    /// projection, aggregate) becomes one relational plan, optimized once.
    fn lower_ml_to_sql(&self, plan: &UnifiedPlan) -> Result<PreparedArtifact> {
        let score_expr = pipeline_to_sql(&plan.pipeline)?;
        let mut data = plan.data.clone();
        let input_preds: Vec<Expr> = plan.input_predicates().into_iter().cloned().collect();
        if !input_preds.is_empty() {
            data = data.filter(Expr::conjunction(input_preds));
        }
        // project the prediction plus every column the rest of the query needs
        let mut exprs: Vec<Expr> = plan
            .externally_required_columns()
            .into_iter()
            .map(|c| col(&c))
            .collect();
        exprs.push(score_expr.alias(&plan.prediction_column));
        data = data.project(exprs);
        let output_preds: Vec<Expr> = plan.output_predicates().into_iter().cloned().collect();
        if !output_preds.is_empty() {
            data = data.filter(Expr::conjunction(output_preds));
        }
        if !plan.projection.is_empty() {
            data = data.project(plan.projection.clone());
        }
        if let Some((group_by, aggs)) = &plan.aggregate {
            data = data.aggregate(group_by.clone(), aggs.clone());
        }
        let optimized = self.relational_optimizer().optimize(&data, &self.catalog)?;
        Ok(PreparedArtifact::Sql {
            relational: Arc::new(optimized),
        })
    }

    /// MLtoSQL execution: run the pre-optimized relational plan on the
    /// streaming partition-parallel engine.
    fn run_ml_to_sql(&self, relational: &LogicalPlan) -> Result<PathOutcome> {
        let start = Instant::now();
        let (batch, counters) = self.run_optimized(relational)?;
        let mut outcome = PathOutcome::new(batch);
        outcome.data_time = start.elapsed();
        outcome.apply_counters(counters);
        Ok(outcome)
    }

    /// ML-runtime lowering: compile per-partition models once (data-induced
    /// §4.2, bare scans only) and pre-optimize the relational data side.
    /// When serving-tier hooks are present, compiled models are looked up and
    /// stored under a key derived from the scanned tables, the
    /// catalog/registry epochs, and a structural hash of the optimized
    /// pipeline — identical key ⇒ identical compilation input.
    fn lower_ml_runtime(
        &self,
        plan: &UnifiedPlan,
        hooks: &mut Option<&mut ModelCacheHooks<'_>>,
    ) -> Result<MlRuntimePlan> {
        // Compile every scoring pipeline once, at prepare time — flattened
        // tree arenas plus the fused featurizer plan: executions replay only
        // the compiled block-at-a-time kernels.
        let compile_all = |models: &[Pipeline]| -> Result<Arc<Vec<CompiledPipeline>>> {
            models
                .iter()
                .map(|p| CompiledPipeline::compile(p).map_err(|e| RavenError::Ml(e.to_string())))
                .collect::<Result<Vec<_>>>()
                .map(Arc::new)
        };
        let partition_models = if self.config.enable_partition_models {
            let key = hooks.as_ref().map(|_| self.model_cache_key(plan));
            let cached = match (hooks.as_mut(), key.as_deref()) {
                (Some(h), Some(k)) => (h.lookup)(k),
                _ => None,
            };
            match cached {
                // a hit reuses the fully compiled artifacts — pruned
                // pipelines, flat ensembles, and fused featurizer plans
                Some(c) if c.pipelines.len() > 1 => Some((c.pipelines, c.report)),
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
                        Some((compiled.pipelines, compiled.report))
                    } else {
                        None
                    }
                }
            }
        } else {
            None
        };
        match partition_models {
            Some((models, report)) if matches!(plan.data, LogicalPlan::Scan { .. }) => {
                // per-partition compiled models: the table is streamed
                // directly at execution time so partition indices stay
                // aligned with the model vector even under pruning
                let table_name = match &plan.data {
                    LogicalPlan::Scan { table, .. } => table.clone(),
                    _ => unreachable!(),
                };
                let schema = self.catalog.table(&table_name)?.schema().clone();
                Ok(MlRuntimePlan {
                    data: None,
                    scan_table: Some(table_name),
                    models,
                    partition_report: Some(report),
                    schema,
                })
            }
            _ => {
                let data_plan = self.data_side_plan(plan);
                let optimized = self
                    .relational_optimizer()
                    .optimize(&data_plan, &self.catalog)?;
                let schema = Arc::new(optimized.schema(&self.catalog)?);
                Ok(MlRuntimePlan {
                    data: Some(Arc::new(optimized)),
                    scan_table: None,
                    models: compile_all(std::slice::from_ref(&plan.pipeline))?,
                    partition_report: None,
                    schema,
                })
            }
        }
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

    /// ML-runtime path (and the SparkML / MADlib-style baselines): the
    /// relational plan compiles to a [`BatchStream`], each partition flows
    /// through scan filters, statistics pruning (when data-induced
    /// optimizations are on), ML scoring, output predicates, and the final
    /// projection as one fused per-partition task on the process-wide
    /// work-stealing pool (bounded by this query's `degree_of_parallelism`),
    /// and partitions are concatenated exactly once at the output boundary
    /// (aggregates being the one remaining pipeline breaker).
    fn run_ml_runtime(&self, plan: &UnifiedPlan, lowered: &MlRuntimePlan) -> Result<PathOutcome> {
        let runtime = MlRuntime::with_config(self.config.ml_runtime.clone());
        let ctx = self.execution_context();
        let dop = ctx.degree_of_parallelism;
        let wall = Instant::now();

        // 1. the relational side as a partition stream
        let exec = Executor::new();
        let partition_report = lowered.partition_report.clone();
        let manual_pruned = Arc::new(AtomicUsize::new(0));
        let manual_copies = Arc::new(AtomicUsize::new(0));
        let models = lowered.models.clone();
        let source_schema = lowered.schema.clone();
        let selection_vectors = ctx.selection_vectors;
        let partition_pruning = ctx.partition_pruning;
        let stream = match (&lowered.data, &lowered.scan_table) {
            (None, Some(table_name)) => {
                // per-partition compiled models: stream the table directly so
                // partition indices stay aligned with the model vector even
                // when statistics prune some partitions
                let table = self.catalog.table(table_name)?;
                let preds: Vec<Expr> = plan.input_predicates().into_iter().cloned().collect();
                let pruned = manual_pruned.clone();
                let copies = manual_copies.clone();
                BatchStream::from_table(&table).map(move |mut item| {
                    let prunable = partition_pruning
                        && item
                            .stats
                            .as_ref()
                            .is_some_and(|s| !may_satisfy_all(&preds, s));
                    if prunable {
                        pruned.fetch_add(1, Ordering::Relaxed);
                        return Ok(None);
                    }
                    for p in &preds {
                        let mask = evaluate_predicate(p, &item.batch).map_err(stream_err)?;
                        if item.apply_mask(&mask, selection_vectors)? {
                            copies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(Some(item))
                })
            }
            (Some(data), _) => exec.execute_stream(data, &self.catalog, &ctx)?,
            (None, None) => {
                return Err(RavenError::Ml(
                    "lowered ML-runtime plan has neither a data plan nor a scan table".into(),
                ))
            }
        };

        // 2. per-partition scoring and post-processing, fused into the
        //    stream. Scoring consumes (batch, selection): selected rows are
        //    gathered straight from the source columns into the runtime's
        //    inputs (zero-copy filter→score) and the scores scatter back as
        //    one full-length column, so the selection keeps flowing. The §7
        //    baselines instead compact the partition and score it whole, as
        //    the systems they stand in for do.
        let ml_nanos = Arc::new(AtomicU64::new(0));
        let score_op: raven_columnar::StreamOp = {
            let prediction = plan.prediction_column.clone();
            let ml_nanos = ml_nanos.clone();
            let baseline = self.config.baseline;
            Arc::new(move |mut item: StreamBatch| {
                let t0 = Instant::now();
                let compiled = if models.len() > 1 {
                    models.get(item.partition).unwrap_or(&models[0])
                } else {
                    &models[0]
                };
                let scored = if baseline == BaselineMode::Vectorized {
                    runtime
                        .score_batch_into_selected(
                            compiled,
                            &item.batch,
                            item.selection.as_ref(),
                            &prediction,
                        )
                        .map_err(stream_err)?
                } else {
                    item = item.compact()?;
                    let scores = score_batch(baseline, &runtime, compiled.pipeline(), &item.batch)
                        .map_err(stream_err)?;
                    attach_scores(&item.batch, &prediction, scores).map_err(stream_err)?
                };
                item.batch = scored;
                ml_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(Some(item))
            })
        };
        let post_op = post_scoring_op(plan, selection_vectors, manual_copies.clone());

        // 3. drive the pipeline partition-parallel; the single gather of
        //    surviving rows happens at the final output boundary, fused into
        //    the concat
        let scored = stream
            .map({
                let op = score_op.clone();
                move |item| op(item)
            })
            .map({
                let op = post_op.clone();
                move |item| op(item)
            });
        let items = scored.collect(dop)?;
        let streamed_partitions = items.len();
        let mut batch = if items.is_empty() {
            // every partition pruned/filtered away: push one empty batch of
            // the source schema through the same operator chain so the output
            // schema (score column, projection) is still correct
            let empty = StreamBatch::new(Batch::empty(source_schema)?, 0);
            let item = score_op(empty)?.and_then(|item| post_op(item).transpose());
            match item {
                Some(item) => item?.compact()?.batch,
                None => {
                    return Err(RavenError::Ml(
                        "streaming pipeline dropped the boundary batch".into(),
                    ))
                }
            }
        } else {
            let parts: Vec<(&Batch, Option<&raven_columnar::SelectionVector>)> = items
                .iter()
                .map(|i| (&i.batch, i.selection.as_ref()))
                .collect();
            Batch::concat_selected(&parts)?
        };

        // 4. the final aggregate is a pipeline breaker over the concatenated
        //    result
        batch = self.apply_aggregate(plan, batch)?;

        // Per-partition scoring durations accumulate across concurrent
        // workers, so at dop > 1 the sum is CPU time, not wall time. Cap at
        // the wall clock so `data_time + ml_time` always partitions the
        // measured total: exact at dop 1, a scoring-share attribution above.
        let wall_time = wall.elapsed();
        let ml_time = Duration::from_nanos(ml_nanos.load(Ordering::Relaxed)).min(wall_time);
        let mut outcome = PathOutcome::new(batch);
        outcome.data_time = wall_time.saturating_sub(ml_time);
        outcome.ml_time = ml_time;
        outcome.partition_report = partition_report;
        outcome.pruned_partitions =
            exec.metrics().partitions_pruned() + manual_pruned.load(Ordering::Relaxed);
        outcome.streamed_partitions = streamed_partitions;
        outcome.intermediate_materializations =
            exec.metrics().intermediate_materializations() + manual_copies.load(Ordering::Relaxed);
        outcome.join_build_rows = exec.metrics().join_build_rows();
        outcome.join_probe_batches = exec.metrics().join_probe_batches();
        Ok(outcome)
    }

    /// MLtoDNN lowering: compile the model node to a tensor model bound to
    /// the configured device, and pre-optimize the data-side plan.
    fn lower_ml_to_dnn(&self, plan: &UnifiedPlan) -> Result<PreparedArtifact> {
        let dnn = apply_ml_to_dnn(
            &plan.pipeline,
            self.config.dnn_strategy,
            self.config.device.clone(),
        )?;
        let data_plan = self.data_side_plan(plan);
        let optimized = self
            .relational_optimizer()
            .optimize(&data_plan, &self.catalog)?;
        Ok(PreparedArtifact::Dnn {
            dnn: Arc::new(dnn),
            data: Arc::new(optimized),
        })
    }

    /// MLtoDNN execution: data engine → featurizers on the ML runtime →
    /// compiled tensor model on the configured device → the post-scoring
    /// chain. The tensor model consumes one dense feature matrix, so the data
    /// side materializes at the featurization boundary (the relational plan
    /// itself still streams).
    fn run_ml_to_dnn(
        &self,
        plan: &UnifiedPlan,
        dnn: &crate::mltodnn::DnnPlan,
        data: &LogicalPlan,
    ) -> Result<PathOutcome> {
        let runtime = MlRuntime::with_config(self.config.ml_runtime.clone());

        let d0 = Instant::now();
        let (batch, counters) = self.run_optimized(data)?;
        let mut data_time = d0.elapsed();

        let m0 = Instant::now();
        let inputs = bind_batch(&dnn.featurizer, &batch)?;
        let features = runtime.run(&dnn.featurizer, &inputs)?;
        let features = features
            .as_numeric()
            .map_err(|e| RavenError::Ml(e.to_string()))?;
        let featurize_time = m0.elapsed();
        let run = dnn.model.run(features)?;
        let modeled = dnn.model.device.is_simulated();
        let ml_time = featurize_time + run.reported;

        let d1 = Instant::now();
        let scored = attach_scores(&batch, &plan.prediction_column, run.scores)?;
        let copies = Arc::new(AtomicUsize::new(0));
        let post_op = post_scoring_op(plan, selection_vectors_default(), copies.clone());
        let item = post_op(StreamBatch::new(scored, 0))?
            .ok_or_else(|| RavenError::Ml("post-scoring chain dropped the batch".into()))?;
        let batch = self.apply_aggregate(plan, item.compact()?.batch)?;
        data_time += d1.elapsed();
        let mut outcome = PathOutcome::new(batch);
        outcome.data_time = data_time;
        outcome.ml_time = ml_time;
        outcome.ml_time_modeled = modeled;
        outcome.apply_counters(counters);
        outcome.intermediate_materializations += copies.load(Ordering::Relaxed);
        Ok(outcome)
    }

    /// Apply the plan's final aggregate (if any) by registering the scored
    /// batch with the relational executor — the one pipeline breaker after
    /// scoring, shared by the ML-runtime and MLtoDNN paths.
    fn apply_aggregate(&self, plan: &UnifiedPlan, batch: Batch) -> Result<Batch> {
        let Some((group_by, aggs)) = &plan.aggregate else {
            return Ok(batch);
        };
        let mut catalog = Catalog::new();
        catalog.register(Table::from_batch("__scored", batch)?);
        let agg_plan = LogicalPlan::scan("__scored").aggregate(group_by.clone(), aggs.clone());
        let exec = Executor::new();
        Ok(exec.execute(&agg_plan, &catalog, &ExecutionContext::default())?)
    }
}

/// The post-scoring chain over one scored partition: the output predicates,
/// then the final projection. A filter refines the selection, or copies the
/// surviving rows when `selection_vectors` is off, each copy counted in
/// `copies`. The projection replaces the columns row-aligned with the source,
/// so the selection survives it untouched.
fn post_scoring_op(
    plan: &UnifiedPlan,
    selection_vectors: bool,
    copies: Arc<AtomicUsize>,
) -> raven_columnar::StreamOp {
    let output_preds: Vec<Expr> = plan.output_predicates().into_iter().cloned().collect();
    let projection = plan.projection.clone();
    Arc::new(move |mut item: StreamBatch| {
        for p in &output_preds {
            let mask = evaluate_predicate(p, &item.batch).map_err(stream_err)?;
            if item.apply_mask(&mask, selection_vectors)? {
                copies.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !projection.is_empty() {
            let mut columns = Vec::with_capacity(projection.len());
            let mut fields = Vec::with_capacity(projection.len());
            for e in &projection {
                let c = evaluate(e, &item.batch).map_err(stream_err)?;
                fields.push(Field::new(e.output_name(), c.data_type()));
                columns.push(c);
            }
            item.batch = Batch::new(Arc::new(raven_columnar::Schema::new(fields)?), columns)?;
        }
        Ok(Some(item))
    })
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

    #[test]
    fn streaming_empty_result_keeps_output_schema() {
        let (mut session, _) = session(ModelType::DecisionTree { max_depth: 4 });
        session.config_mut().runtime_policy = RuntimePolicy::NoTransform;
        let query = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age > 1000 AND p.risk >= 0.0";
        let out = session.sql(query).unwrap();
        assert_eq!(out.batch.num_rows(), 0);
        assert_eq!(out.batch.schema().names(), vec!["id", "risk"]);
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
        let explain = session.explain_prepared(&prepared).unwrap();
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
        let explain = session.explain_prepared(&prepared).unwrap();
        assert!(explain.contains("Join:"), "{explain}");
        let control = session.execute_prepared(&prepared).unwrap();
        assert_eq!(control.report.join_build_rows, 8);
        assert!(control.report.join_probe_batches >= 1);
        assert_eq!(ids(&out.batch), ids(&control.batch));
        assert_eq!(out.batch.num_rows(), n);
    }

    #[test]
    fn aggregate_queries_work() {
        let (session, _) = session(ModelType::DecisionTree { max_depth: 4 });
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
        let out = session.execute(&plan).unwrap();
        assert_eq!(out.batch.num_rows(), 1);
        let avg = out
            .batch
            .column_by_name("avg_risk")
            .unwrap()
            .as_f64()
            .unwrap()[0];
        assert!((0.0..=1.0).contains(&avg));
    }
}
