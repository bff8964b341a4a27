//! Physical (vectorized, streaming) execution of logical plans.
//!
//! Execution is partition-parallel and streaming: every plan compiles to a
//! [`BatchStream`] whose per-partition operator chain (scan → filter →
//! project) is fused and driven on the process-wide work-stealing worker
//! pool (`raven_columnar::pool`) with up to
//! [`ExecutionContext::degree_of_parallelism`] concurrent executors per
//! drive, mirroring how the paper's host engines parallelize (Spark tasks,
//! SQL Server DOP) — concurrent queries interleave their partition tasks on
//! one fixed thread set instead of spawning threads per drive. Scans
//! prune partitions whose min/max statistics cannot satisfy the pushed-down
//! filters (the paper's data-induced compute pruning, §4.2) without touching
//! their data. Pipeline breakers — join build sides, aggregation, and limit —
//! are the only operators that gather their whole input; everything else
//! flows one partition at a time, and [`Batch::concat`] happens only at the
//! final output boundary inside [`Executor::execute`].

use crate::catalog::Catalog;
use crate::domain;
use crate::error::{RelationalError, Result};
use crate::eval::{evaluate, evaluate_predicate};
use crate::expr::{AggregateFunction, Expr};
use crate::logical::{AggregateExpr, LogicalPlan};
use raven_columnar::{
    fast_hash, Batch, BatchStream, Column, ColumnRef, ColumnarError, DataType, FastMap, Schema,
    SelectionVector, StreamBatch, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Execution-time configuration.
#[derive(Debug, Clone)]
pub struct ExecutionContext {
    /// Maximum number of worker threads used for partition-parallel stages
    /// (the "DOP" knob of the paper's SQL Server experiments).
    pub degree_of_parallelism: usize,
    /// Target rows per batch for chunked operators.
    pub batch_size: usize,
    /// Skip partitions whose min/max statistics cannot satisfy the scan's
    /// pushed-down filters (the paper's data-induced compute pruning, §4.2).
    /// Disabled by baseline plans that model engines without
    /// statistics-driven pruning.
    pub partition_pruning: bool,
    /// Filters produce zero-copy [`SelectionVector`] views that downstream
    /// kernels consume; rows are gathered once at the final output boundary.
    /// When disabled (the copying reference the filter-parity tests compare
    /// against), every filter deep-copies the surviving rows via `Batch::filter`, and
    /// each copy is counted in
    /// [`ExecutionMetrics::intermediate_materializations`].
    pub selection_vectors: bool,
    /// Hash joins build on the estimated-smaller input (per the
    /// [`crate::cost::CostModel`]) instead of always on the right, and
    /// pre-size their hash table from build-side NDV statistics. When
    /// disabled (the as-written parity baseline), the right input is always
    /// the build side, as written.
    pub cost_based_build_side: bool,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        ExecutionContext {
            degree_of_parallelism: 1,
            batch_size: 10_000,
            partition_pruning: true,
            selection_vectors: true,
            cost_based_build_side: true,
        }
    }
}

impl ExecutionContext {
    /// Context with an explicit degree of parallelism.
    pub fn with_dop(dop: usize) -> Self {
        ExecutionContext {
            degree_of_parallelism: dop.max(1),
            ..Default::default()
        }
    }
}

/// Carry a relational error through the columnar stream driver.
fn stream_err(e: RelationalError) -> ColumnarError {
    ColumnarError::Execution(e.to_string())
}

/// Metrics collected during execution, used by the experiment harnesses to
/// report data volumes (e.g. how much scanning model-projection pushdown
/// saved) and partition-pruning effectiveness.
#[derive(Debug, Default)]
pub struct ExecutionMetrics {
    rows_scanned: AtomicUsize,
    bytes_scanned: AtomicUsize,
    rows_joined: AtomicUsize,
    output_rows: AtomicUsize,
    partitions_scanned: AtomicUsize,
    partitions_pruned: AtomicUsize,
    intermediate_materializations: AtomicUsize,
    join_build_rows: AtomicUsize,
    join_probe_batches: AtomicUsize,
    parked_drives: AtomicUsize,
}

impl ExecutionMetrics {
    /// Rows read from scans (after scan-level filters).
    pub fn rows_scanned(&self) -> usize {
        self.rows_scanned.load(Ordering::Relaxed)
    }
    /// Bytes read from scans (post projection).
    pub fn bytes_scanned(&self) -> usize {
        self.bytes_scanned.load(Ordering::Relaxed)
    }
    /// Rows produced by join operators.
    pub fn rows_joined(&self) -> usize {
        self.rows_joined.load(Ordering::Relaxed)
    }
    /// Rows in the final result.
    pub fn output_rows(&self) -> usize {
        self.output_rows.load(Ordering::Relaxed)
    }
    /// Partitions whose data was actually scanned.
    pub fn partitions_scanned(&self) -> usize {
        self.partitions_scanned.load(Ordering::Relaxed)
    }
    /// Partitions skipped entirely because their min/max statistics could not
    /// satisfy the scan's pushed-down filters.
    pub fn partitions_pruned(&self) -> usize {
        self.partitions_pruned.load(Ordering::Relaxed)
    }
    /// Full batch copies performed **between** pipeline stages (a filter
    /// materializing surviving rows instead of producing a selection-vector
    /// view). Zero on the selection-vector path: filtered rows are gathered
    /// exactly once, at the final output boundary.
    pub fn intermediate_materializations(&self) -> usize {
        self.intermediate_materializations.load(Ordering::Relaxed)
    }
    /// Rows materialized into hash-join build tables — the observable trace
    /// of build-side selection (building on the estimated-smaller input makes
    /// this drop).
    pub fn join_build_rows(&self) -> usize {
        self.join_build_rows.load(Ordering::Relaxed)
    }
    /// Probe-side batches streamed through hash joins.
    pub fn join_probe_batches(&self) -> usize {
        self.join_probe_batches.load(Ordering::Relaxed)
    }
    /// Top-level drives that ran in parked mode (the calling thread slept on
    /// a completion latch while the shared pool executed every partition —
    /// the serving tier's non-blocking scheduler path). Participating and
    /// scoped drives leave this at zero.
    pub fn parked_drives(&self) -> usize {
        self.parked_drives.load(Ordering::Relaxed)
    }
}

/// The physical executor.
#[derive(Debug, Default)]
pub struct Executor {
    metrics: Arc<ExecutionMetrics>,
}

impl Executor {
    /// New executor with fresh metrics.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Metrics handle (shared across executions of this executor).
    pub fn metrics(&self) -> Arc<ExecutionMetrics> {
        self.metrics.clone()
    }

    /// Execute a logical plan, returning a single result batch. This is the
    /// final output boundary: the streaming pipeline built by
    /// [`Executor::execute_stream`] is driven to completion and its surviving
    /// partitions are concatenated exactly once.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        ctx: &ExecutionContext,
    ) -> Result<Batch> {
        let stream = self.execute_stream(plan, catalog, ctx)?;
        if raven_columnar::pool::parked_drive_active() {
            self.metrics.parked_drives.fetch_add(1, Ordering::Relaxed);
        }
        let out = stream.concat(ctx.degree_of_parallelism)?;
        self.metrics
            .output_rows
            .store(out.num_rows(), Ordering::Relaxed);
        Ok(out)
    }

    /// Compile a logical plan into a streaming, partition-parallel pipeline.
    ///
    /// Scan, filter, and projection become fused per-partition operators on
    /// the returned [`BatchStream`]; the scan operator additionally prunes
    /// partitions whose statistics cannot satisfy the pushed-down filters
    /// before reading any data. Join build sides, aggregates, and limits are
    /// pipeline breakers: they drive their input stream to completion (with
    /// `ctx.degree_of_parallelism` workers) and re-emit a stream.
    pub fn execute_stream(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        ctx: &ExecutionContext,
    ) -> Result<BatchStream> {
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filters,
            } => {
                let t = catalog.table(table)?;
                let out_schema = Arc::new(plan.schema(catalog)?);
                let projection = projection.clone();
                let filters = filters.clone();
                let metrics = self.metrics.clone();
                let pruning = ctx.partition_pruning;
                let selection = ctx.selection_vectors;
                Ok(BatchStream::from_table(&t)
                    .with_schema(out_schema)
                    .map(move |mut item| {
                        // Data-induced partition pruning (§4.2): skip the
                        // partition without scanning when its min/max
                        // statistics prove every filter row-empty.
                        if let (true, Some(stats)) = (pruning, &item.stats) {
                            if !domain::may_satisfy_all(&filters, stats) {
                                metrics.partitions_pruned.fetch_add(1, Ordering::Relaxed);
                                return Ok(None);
                            }
                        }
                        metrics.partitions_scanned.fetch_add(1, Ordering::Relaxed);
                        for f in &filters {
                            apply_filter(&mut item, f, selection, &metrics).map_err(stream_err)?;
                        }
                        if let Some(cols) = &projection {
                            let names: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
                            item.batch = item.batch.project_names(&names)?;
                        }
                        let selected = item.num_selected();
                        metrics.rows_scanned.fetch_add(selected, Ordering::Relaxed);
                        let bytes = item.batch.byte_size();
                        let rows = item.batch.num_rows().max(1);
                        metrics
                            .bytes_scanned
                            .fetch_add(bytes * selected / rows, Ordering::Relaxed);
                        Ok(Some(item))
                    }))
            }
            LogicalPlan::Filter { predicate, input } => {
                let stream = self.execute_stream(input, catalog, ctx)?;
                let predicate = predicate.clone();
                let metrics = self.metrics.clone();
                let selection = ctx.selection_vectors;
                Ok(stream.map(move |mut item| {
                    apply_filter(&mut item, &predicate, selection, &metrics).map_err(stream_err)?;
                    Ok(Some(item))
                }))
            }
            LogicalPlan::Projection { exprs, input } => {
                let stream = self.execute_stream(input, catalog, ctx)?;
                let exprs = exprs.clone();
                let out_schema = Arc::new(plan.schema(catalog)?);
                let op_schema = out_schema.clone();
                Ok(stream.with_schema(out_schema).map(move |mut item| {
                    item.batch =
                        project_batch(&exprs, &op_schema, &item.batch).map_err(stream_err)?;
                    Ok(Some(item))
                }))
            }
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => {
                // Pipeline breaker: the build side materializes fully before
                // the probe side streams through it partition by partition.
                // Cost-based build-side selection: build on the estimated-
                // smaller input (strictly smaller, so the as-written right
                // build is also the tie-break) instead of always the right.
                let cost = crate::cost::CostModel::new(catalog);
                let build_is_left = ctx.cost_based_build_side
                    && cost.estimate_rows(left) < cost.estimate_rows(right);
                let (build_plan, probe_plan, build_key, probe_key) = if build_is_left {
                    (left, right, left_key, right_key)
                } else {
                    (right, left, right_key, left_key)
                };
                let build_all = self
                    .execute_stream(build_plan, catalog, ctx)?
                    .concat(ctx.degree_of_parallelism)?;
                let out_schema = Arc::new(plan.schema(catalog)?);
                // Pre-size the table from build-side NDV statistics: under
                // duplicate keys the distinct count, not the row count,
                // bounds the entry count.
                let capacity = cost
                    .key_ndv(build_plan, build_key)
                    .map(|n| (n as usize).min(build_all.num_rows()))
                    .unwrap_or_else(|| build_all.num_rows());
                self.metrics
                    .join_build_rows
                    .fetch_add(build_all.num_rows(), Ordering::Relaxed);
                let build = Arc::new(JoinTable::build(&build_all, build_key, capacity)?);
                let build_all = Arc::new(build_all);
                let probe_key = probe_key.clone();
                let metrics = self.metrics.clone();
                let op_schema = out_schema.clone();
                let stream = self.execute_stream(probe_plan, catalog, ctx)?;
                Ok(stream.with_schema(out_schema).map(move |mut item| {
                    // the probe gathers matching rows directly, so the probe
                    // side's selection composes for free (deselected rows
                    // are simply never probed)
                    metrics.join_probe_batches.fetch_add(1, Ordering::Relaxed);
                    let joined = probe_hash_join(
                        &item.batch,
                        item.selection.as_ref(),
                        &build_all,
                        &build,
                        &probe_key,
                        op_schema.clone(),
                        build_is_left,
                    )
                    .map_err(stream_err)?;
                    metrics
                        .rows_joined
                        .fetch_add(joined.num_rows(), Ordering::Relaxed);
                    item.batch = joined;
                    item.selection = None;
                    // Source statistics no longer describe the joined rows.
                    item.stats = None;
                    Ok(Some(item))
                }))
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                input,
            } => {
                // Pipeline breaker: aggregation needs every input row — but
                // not a concatenated copy of it. States are folded one
                // partition at a time, consuming each element's
                // (batch, selection) pair directly.
                let stream = self.execute_stream(input, catalog, ctx)?;
                let in_schema = stream.schema().clone();
                let items = stream.collect(ctx.degree_of_parallelism)?;
                let out = aggregate_items(&in_schema, &items, group_by, aggregates)?;
                Ok(BatchStream::once(out))
            }
            LogicalPlan::Limit { n, input } => {
                // Pipeline breaker: "first n rows" is an inherently sequential
                // cut across the partition order. The cut itself is zero-copy:
                // each surviving element keeps a truncated selection.
                let stream = self.execute_stream(input, catalog, ctx)?;
                let schema = stream.schema().clone();
                let items = stream.collect(ctx.degree_of_parallelism)?;
                let mut out = Vec::new();
                let mut remaining = *n;
                for mut item in items {
                    if remaining == 0 {
                        break;
                    }
                    let selected = item.num_selected();
                    let take = remaining.min(selected);
                    if take < selected {
                        let sel = item
                            .selection
                            .take()
                            .unwrap_or_else(|| SelectionVector::all(item.batch.num_rows()));
                        item.selection = Some(sel.truncate(take));
                    }
                    remaining -= take;
                    out.push(item);
                }
                Ok(BatchStream::from_items(schema, out))
            }
        }
    }
}

/// Apply one filter to a stream element: refine its selection (zero copy) or,
/// on the materializing baseline, deep-copy the surviving rows and count the
/// copy in [`ExecutionMetrics::intermediate_materializations`].
fn apply_filter(
    item: &mut StreamBatch,
    predicate: &Expr,
    selection_vectors: bool,
    metrics: &ExecutionMetrics,
) -> Result<()> {
    let mask = evaluate_predicate(predicate, &item.batch)?;
    if item.apply_mask(&mask, selection_vectors)? {
        metrics
            .intermediate_materializations
            .fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

fn project_batch(exprs: &[Expr], out_schema: &Schema, batch: &Batch) -> Result<Batch> {
    let mut columns = Vec::with_capacity(exprs.len());
    for (e, field) in exprs.iter().zip(out_schema.fields()) {
        let col = evaluate(e, batch)?;
        // Align column type with the planned schema when cheap to do so.
        let col = if col.data_type() != field.data_type() {
            coerce(col, field.data_type())?
        } else {
            col
        };
        columns.push(col);
    }
    Ok(Batch::new(Arc::new(out_schema.clone()), columns)?)
}

fn coerce(col: raven_columnar::ColumnRef, to: DataType) -> Result<raven_columnar::ColumnRef> {
    let out = match (col.as_ref(), to) {
        (c, t) if c.data_type() == t => return Ok(col),
        (c, DataType::Float64) => Column::Float64(c.to_f64_vec()?),
        (c, DataType::Int64) => {
            Column::Int64(c.to_f64_vec()?.into_iter().map(|x| x as i64).collect())
        }
        (c, DataType::Boolean) => Column::Boolean(
            c.to_f64_vec()?
                .into_iter()
                .map(|x| x != 0.0 && !x.is_nan())
                .collect(),
        ),
        (Column::Float64(v), DataType::Utf8) => {
            Column::Utf8(v.iter().map(|x| x.to_string()).collect())
        }
        (Column::Int64(v), DataType::Utf8) => {
            Column::Utf8(v.iter().map(|x| x.to_string()).collect())
        }
        (c, t) => {
            return Err(RelationalError::Evaluation(format!(
                "cannot coerce {} to {}",
                c.data_type(),
                t
            )))
        }
    };
    Ok(Arc::new(out))
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// End of a [`JoinTable`] chain.
const NO_ROW: usize = usize::MAX;

/// The build side of a hash join: for each key, the chain of build rows
/// holding it, in ascending row order. A [`FastMap`] maps each key's 64-bit
/// code (see [`key_code`]) to its chain head, and chains are threaded
/// through one `next` array of build-row indices, so no key owns an
/// allocation. NULL keys (the empty string, NaN) are never linked, so they
/// never match.
#[derive(Debug)]
struct JoinTable {
    heads: FastMap<u64, usize>,
    /// `next[i]`: the next build row after `i` on `i`'s chain, or [`NO_ROW`].
    next: Vec<usize>,
    /// The build key column: Utf8 key codes are hashes, so a probe compares
    /// the strings of the rows on the chain.
    key: ColumnRef,
}

/// The key code of row `i`, or `None` for a NULL key. Int64 and Boolean
/// codes are the value; Float64 codes are the bit pattern, so equality is
/// bitwise (`0.0` and `-0.0` differ; NaN is NULL). These three are exact.
/// A Utf8 code is the string's [`fast_hash`], so equal codes still compare
/// the strings themselves.
#[inline]
fn key_code(col: &Column, i: usize) -> Option<u64> {
    match col {
        Column::Int64(v) => Some(v[i] as u64),
        Column::Float64(v) => (!v[i].is_nan()).then(|| v[i].to_bits()),
        Column::Boolean(v) => Some(v[i] as u64),
        Column::Utf8(v) => (!v[i].is_empty()).then(|| fast_hash(v[i].as_str())),
    }
}

impl JoinTable {
    /// Build the table over `build`'s `build_key` column. `capacity` sizes
    /// the map (the NDV estimate: under duplicate keys the distinct count,
    /// not the row count, bounds the entry count).
    fn build(build: &Batch, build_key: &str, capacity: usize) -> Result<JoinTable> {
        let key = build.column_by_name(build_key)?.clone();
        let rows = key.len();
        let mut next = vec![NO_ROW; rows];
        let mut heads = FastMap::with_capacity_and_hasher(capacity.min(rows), Default::default());
        // Rows are pushed onto chain heads last to first, so every chain
        // runs in ascending build-row order.
        for i in (0..rows).rev() {
            if let Some(code) = key_code(&key, i) {
                let head = heads.entry(code).or_insert(NO_ROW);
                next[i] = *head;
                *head = i;
            }
        }
        Ok(JoinTable { heads, next, key })
    }

    /// Append `(probe row, build row)` for every match of the probe rows
    /// `rows` (ascending) against the table, in probe-row order and within
    /// one probe row in ascending build-row order. The key types match:
    /// [`LogicalPlan::schema`] rejects a join whose key types differ.
    fn probe(
        &self,
        probe_key: &Column,
        rows: impl Iterator<Item = usize>,
        probe_idx: &mut Vec<usize>,
        build_idx: &mut Vec<usize>,
    ) {
        debug_assert_eq!(probe_key.data_type(), self.key.data_type());
        let next = &self.next;
        let head = |i| key_code(probe_key, i).and_then(|c| self.heads.get(&c).copied());
        match (probe_key, self.key.as_ref()) {
            // Utf8 codes are hashes: compare the strings on the chain
            (Column::Utf8(p), Column::Utf8(b)) => {
                for i in rows {
                    if let Some(head) = head(i) {
                        walk_chain(next, head, |j| b[j] == p[i], i, probe_idx, build_idx);
                    }
                }
            }
            _ => {
                for i in rows {
                    if let Some(head) = head(i) {
                        walk_chain(next, head, |_| true, i, probe_idx, build_idx);
                    }
                }
            }
        }
    }
}

/// Append `(i, j)` for every build row `j` on the chain from `head` that
/// `hit` accepts, in chain (ascending build-row) order.
#[inline(always)]
fn walk_chain(
    next: &[usize],
    head: usize,
    hit: impl Fn(usize) -> bool,
    i: usize,
    probe_idx: &mut Vec<usize>,
    build_idx: &mut Vec<usize>,
) {
    let mut j = head;
    while j != NO_ROW {
        if hit(j) {
            probe_idx.push(i);
            build_idx.push(j);
        }
        j = next[j];
    }
}

/// Probe one batch against the build table. `build_is_left` records which
/// logical side the build input came from so output columns always assemble
/// left-then-right regardless of build-side selection.
fn probe_hash_join(
    probe: &Batch,
    probe_selection: Option<&SelectionVector>,
    build_batch: &Batch,
    build: &JoinTable,
    probe_key: &str,
    out_schema: Arc<Schema>,
    build_is_left: bool,
) -> Result<Batch> {
    let key_col = probe.column_by_name(probe_key)?;
    // per-thread scratch: the match index vectors are reused across probe
    // batches instead of growing from empty on every batch
    thread_local! {
        static SCRATCH: std::cell::RefCell<(Vec<usize>, Vec<usize>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }
    SCRATCH.with(|scratch| {
        let (probe_idx, build_idx) = &mut *scratch.borrow_mut();
        probe_idx.clear();
        build_idx.clear();
        match probe_selection {
            None => build.probe(key_col, 0..probe.num_rows(), probe_idx, build_idx),
            Some(sel) => build.probe(key_col, sel.iter(), probe_idx, build_idx),
        }
        let probe_out = probe.take(probe_idx)?;
        let build_out = build_batch.take(build_idx)?;
        let mut columns = Vec::with_capacity(out_schema.len());
        if build_is_left {
            columns.extend(build_out.columns().iter().cloned());
            columns.extend(probe_out.columns().iter().cloned());
        } else {
            columns.extend(probe_out.columns().iter().cloned());
            columns.extend(build_out.columns().iter().cloned());
        }
        Ok(Batch::new(out_schema, columns)?)
    })
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct AggState {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
    fn update(&mut self, v: f64) {
        self.count += 1;
        if !v.is_nan() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }
    fn finish(&self, func: AggregateFunction) -> Value {
        match func {
            AggregateFunction::Count => Value::Int64(self.count as i64),
            AggregateFunction::Sum => Value::Float64(self.sum),
            AggregateFunction::Avg => Value::Float64(if self.count == 0 {
                f64::NAN
            } else {
                self.sum / self.count as f64
            }),
            AggregateFunction::Min => Value::Float64(self.min),
            AggregateFunction::Max => Value::Float64(self.max),
        }
    }
}

/// One component of a grouped-aggregation key. Structured (typed) rather than
/// stringly: the old `format!("{v}|")` keys collided across types —
/// `Utf8("1")` and `Int64(1)` rendered identically — and allocated a string
/// per row. Floats key on their bit pattern (every NaN payload is its own
/// group, matching the old formatted-NaN behavior of one "NaN" group for the
/// standard NaN).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKeyPart {
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
}

fn group_key_part(col: &Column, row: usize) -> GroupKeyPart {
    match col {
        Column::Int64(v) => GroupKeyPart::Int(v[row]),
        Column::Float64(v) => GroupKeyPart::Float(v[row].to_bits()),
        Column::Utf8(v) => GroupKeyPart::Str(v[row].clone()),
        Column::Boolean(v) => GroupKeyPart::Bool(v[row]),
    }
}

/// Grouped/global aggregation over collected stream elements of schema
/// `in_schema`, folding states one partition at a time and reading only each
/// element's selected rows — no concatenated input copy exists. Group output
/// order is first appearance across elements in source-partition order, and
/// every state folds its rows in that order, so the result is bitwise what
/// aggregating the concatenated batch produces.
pub fn aggregate_items(
    in_schema: &raven_columnar::SchemaRef,
    items: &[StreamBatch],
    group_by: &[String],
    aggregates: &[AggregateExpr],
) -> Result<Batch> {
    let out_schema = Arc::new(crate::logical::aggregate_schema(
        in_schema, group_by, aggregates,
    )?);
    // Aggregating zero surviving partitions must behave exactly like
    // aggregating an empty batch (argument type errors included), so run the
    // fold over one synthesized empty element.
    let empty_items;
    let items = if items.is_empty() {
        empty_items = [StreamBatch::new(Batch::empty(in_schema.clone())?, 0)];
        &empty_items[..]
    } else {
        items
    };

    let mut global: Vec<AggState> = vec![AggState::new(); aggregates.len()];
    let mut groups: HashMap<Vec<GroupKeyPart>, usize> = HashMap::new();
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut group_states: Vec<Vec<AggState>> = Vec::new();

    for item in items {
        // Gather the element's selected rows first (the aggregate is a
        // pipeline breaker, so this is its input's output boundary — one
        // per-partition gather replaces the old whole-stream concat).
        // Evaluating the argument expressions on the compacted rows keeps a
        // selective filter from paying full-partition expression work for
        // rows the fold would never read; an unfiltered element compacts for
        // free.
        let item = item.clone().compact()?;
        // Evaluate aggregate arguments once per element. A non-numeric
        // argument is a type error for every aggregate except COUNT, which
        // only counts rows and never reads the values (NaN placeholders keep
        // the row count intact).
        let rows = item.batch.num_rows();
        let args: Vec<Vec<f64>> = aggregates
            .iter()
            .map(|a| {
                let col = evaluate(&a.arg, &item.batch)?;
                match col.to_f64_vec() {
                    Ok(values) => Ok(values),
                    Err(_) if a.func == AggregateFunction::Count => Ok(vec![f64::NAN; rows]),
                    Err(e) => Err(RelationalError::Evaluation(format!(
                        "aggregate {}({}) requires a numeric argument: {e}",
                        a.func,
                        a.arg.output_name()
                    ))),
                }
            })
            .collect::<Result<Vec<_>>>()?;

        if group_by.is_empty() {
            for row in 0..rows {
                for (a, arg) in global.iter_mut().zip(args.iter()) {
                    a.update(arg[row]);
                }
            }
            continue;
        }

        let group_cols: Vec<_> = group_by
            .iter()
            .map(|g| item.batch.column_by_name(g).cloned())
            .collect::<std::result::Result<Vec<_>, _>>()?;
        for row in 0..rows {
            let key: Vec<GroupKeyPart> =
                group_cols.iter().map(|c| group_key_part(c, row)).collect();
            let idx = match groups.get(&key) {
                Some(&idx) => idx,
                None => {
                    let key_vals: Vec<Value> = group_cols
                        .iter()
                        .map(|c| c.value(row))
                        .collect::<std::result::Result<Vec<_>, _>>()?;
                    group_keys.push(key_vals);
                    group_states.push(vec![AggState::new(); aggregates.len()]);
                    groups.insert(key, group_states.len() - 1);
                    group_states.len() - 1
                }
            };
            for (a, arg) in group_states[idx].iter_mut().zip(args.iter()) {
                a.update(arg[row]);
            }
        }
    }

    if group_by.is_empty() {
        let mut columns = Vec::with_capacity(aggregates.len());
        for (state, agg) in global.iter().zip(aggregates) {
            columns.push(Arc::new(Column::from_values(&[state.finish(agg.func)])?));
        }
        return Ok(Batch::new(out_schema, columns)?);
    }

    let mut columns: Vec<Vec<Value>> = vec![Vec::new(); group_by.len() + aggregates.len()];
    for (key_vals, states) in group_keys.iter().zip(group_states.iter()) {
        for (i, v) in key_vals.iter().enumerate() {
            columns[i].push(v.clone());
        }
        for (i, (state, agg)) in states.iter().zip(aggregates).enumerate() {
            columns[group_by.len() + i].push(state.finish(agg.func));
        }
    }
    let columns = columns
        .iter()
        .map(|vals| Column::from_values(vals).map(Arc::new))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok(Batch::new(out_schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::optimizer::Optimizer;
    use proptest::prelude::*;
    use raven_columnar::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("patient_info")
                .add_i64("id", vec![1, 2, 3, 4])
                .add_f64("age", vec![30.0, 70.0, 50.0, 65.0])
                .add_i64("asthma", vec![1, 0, 1, 1])
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("blood_test")
                .add_i64("id", vec![1, 2, 3, 4])
                .add_f64("bpm", vec![60.0, 90.0, 72.0, 55.0])
                .build()
                .unwrap(),
        );
        c
    }

    fn run(plan: &LogicalPlan, catalog: &Catalog) -> Batch {
        Executor::new()
            .execute(plan, catalog, &ExecutionContext::default())
            .unwrap()
    }

    #[test]
    fn scan_filter_project() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .filter(col("asthma").eq(lit(1i64)))
            .project(vec![col("age"), col("age").mul(lit(2.0)).alias("age2")]);
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema().names(), vec!["age", "age2"]);
        assert_eq!(
            out.column_by_name("age2").unwrap().as_f64().unwrap(),
            &[60.0, 100.0, 130.0]
        );
    }

    #[test]
    fn hash_join_inner() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("bpm").gt(lit(60.0)))
            .project(vec![col("id"), col("age"), col("bpm")]);
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 2);
        let ids = out.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(sorted, vec![2, 3]);
    }

    #[test]
    fn join_duplicates_on_fk_side() {
        let mut c = catalog();
        c.register(
            TableBuilder::new("visits")
                .add_i64("pid", vec![1, 1, 2])
                .add_f64("cost", vec![10.0, 20.0, 30.0])
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::scan("visits")
            .join(LogicalPlan::scan("patient_info"), "pid", "id")
            .project(vec![col("pid"), col("cost"), col("age")]);
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn global_aggregate() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").aggregate(
            vec![],
            vec![
                AggregateExpr {
                    func: AggregateFunction::Count,
                    arg: col("id"),
                    alias: "n".into(),
                },
                AggregateExpr {
                    func: AggregateFunction::Avg,
                    arg: col("age"),
                    alias: "avg_age".into(),
                },
            ],
        );
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column_by_name("n").unwrap().as_i64().unwrap(), &[4]);
        assert!((out.column_by_name("avg_age").unwrap().as_f64().unwrap()[0] - 53.75).abs() < 1e-9);
    }

    #[test]
    fn non_numeric_aggregate_argument_is_an_error_except_count() {
        let mut c = catalog();
        c.register(
            TableBuilder::new("labeled")
                .add_i64("id", vec![1, 2, 3])
                .add_utf8("tag", vec!["a".into(), "b".into(), "".into()])
                .build()
                .unwrap(),
        );
        // SUM over a string column must surface the type mismatch, not
        // silently aggregate zeros
        let plan = LogicalPlan::scan("labeled").aggregate(
            vec![],
            vec![AggregateExpr {
                func: AggregateFunction::Sum,
                arg: col("tag"),
                alias: "s".into(),
            }],
        );
        let err = Executor::new()
            .execute(&plan, &c, &ExecutionContext::default())
            .unwrap_err();
        assert!(err.to_string().contains("numeric argument"), "{err}");
        // COUNT never reads the values, so counting a string column works
        let plan = LogicalPlan::scan("labeled").aggregate(
            vec![],
            vec![AggregateExpr {
                func: AggregateFunction::Count,
                arg: col("tag"),
                alias: "n".into(),
            }],
        );
        let out = run(&plan, &c);
        assert_eq!(out.column_by_name("n").unwrap().as_i64().unwrap(), &[3]);
    }

    /// Group keys are structured per column, so textual collisions of the
    /// old `format!("{v}|")` concatenation cannot merge distinct groups:
    /// neither values spanning the separator (`("a|", "b")` vs `("a", "|b")`)
    /// nor same-rendering values of different columns (`("1", 2)` vs
    /// `("1|2", …)`).
    #[test]
    fn group_keys_do_not_collide_across_columns_or_types() {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("tricky")
                .add_utf8("a", vec!["a|".into(), "a".into(), "1".into(), "1|2".into()])
                .add_utf8("b", vec!["b".into(), "|b".into(), "2|".into(), "".into()])
                .add_f64("x", vec![1.0, 2.0, 4.0, 8.0])
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::scan("tricky").aggregate(
            vec!["a".into(), "b".into()],
            vec![AggregateExpr {
                func: AggregateFunction::Sum,
                arg: col("x"),
                alias: "sx".into(),
            }],
        );
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 4, "all four rows are distinct groups");
        let sums = out.column_by_name("sx").unwrap().as_f64().unwrap().to_vec();
        let mut sorted = sums.clone();
        sorted.sort_by(|p, q| p.partial_cmp(q).unwrap());
        assert_eq!(
            sorted,
            vec![1.0, 2.0, 4.0, 8.0],
            "no group absorbed another"
        );
    }

    /// Selection-vector execution and the materializing baseline
    /// (`selection_vectors: false`) must produce identical results, and only
    /// the baseline performs intermediate batch copies.
    #[test]
    fn selection_vectors_match_materializing_filters() {
        let c = range_partitioned_catalog();
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").gt_eq(lit(100.0)))
            .filter(col("x").lt(lit(400.0)))
            .project(vec![col("id"), col("x")]);
        let run_with = |selection: bool| {
            let exec = Executor::new();
            let ctx = ExecutionContext {
                selection_vectors: selection,
                ..ExecutionContext::with_dop(2)
            };
            let out = exec.execute(&plan, &c, &ctx).unwrap();
            (out, exec.metrics().intermediate_materializations())
        };
        let (sel_out, sel_copies) = run_with(true);
        let (mat_out, mat_copies) = run_with(false);
        assert_eq!(sel_out.num_rows(), 300);
        assert_eq!(sel_copies, 0, "selection vectors must not copy batches");
        assert!(mat_copies > 0, "the baseline materializes per filter");
        let ids = |b: &Batch| {
            let mut v = b.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
            v.sort();
            v
        };
        assert_eq!(ids(&sel_out), ids(&mat_out));
    }

    /// Limit over a filtered stream composes with selections (zero-copy cut).
    #[test]
    fn limit_over_filtered_selection() {
        let c = range_partitioned_catalog();
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").gt_eq(lit(500.0)))
            .limit(7);
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 7);
        assert!(out
            .column_by_name("x")
            .unwrap()
            .as_f64()
            .unwrap()
            .iter()
            .all(|&x| x >= 500.0));
    }

    #[test]
    fn grouped_aggregate() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").aggregate(
            vec!["asthma".into()],
            vec![AggregateExpr {
                func: AggregateFunction::Max,
                arg: col("age"),
                alias: "max_age".into(),
            }],
        );
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn limit_truncates() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info").limit(2);
        assert_eq!(run(&plan, &c).num_rows(), 2);
        let plan = LogicalPlan::scan("patient_info").limit(100);
        assert_eq!(run(&plan, &c).num_rows(), 4);
    }

    #[test]
    fn dop_parallel_matches_serial() {
        let mut c = Catalog::new();
        // multi-partition table
        let t = TableBuilder::new("wide")
            .add_i64("id", (0..1000).collect())
            .add_f64("x", (0..1000).map(|i| i as f64).collect())
            .build()
            .unwrap();
        let t = raven_columnar::partition_by_column(
            &t,
            &raven_columnar::PartitionSpec::RoundRobin { partitions: 8 },
        )
        .unwrap();
        c.register(t);
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").gt_eq(lit(500.0)))
            .project(vec![col("id")]);
        let serial = Executor::new()
            .execute(&plan, &c, &ExecutionContext::with_dop(1))
            .unwrap();
        let parallel = Executor::new()
            .execute(&plan, &c, &ExecutionContext::with_dop(4))
            .unwrap();
        assert_eq!(serial.num_rows(), 500);
        assert_eq!(parallel.num_rows(), 500);
        let mut a = serial
            .column_by_name("id")
            .unwrap()
            .as_i64()
            .unwrap()
            .to_vec();
        let mut b = parallel
            .column_by_name("id")
            .unwrap()
            .as_i64()
            .unwrap()
            .to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// Cost-based build-side selection builds on the estimated-smaller input
    /// (observable via `join_build_rows`) and produces the same rows as the
    /// as-written baseline that always builds right.
    #[test]
    fn build_side_selection_builds_on_smaller_input() {
        let mut c = Catalog::new();
        c.register(
            TableBuilder::new("small_dim")
                .add_i64("dim_id", (0..10).collect())
                .add_f64("w", (0..10).map(|i| i as f64).collect())
                .build()
                .unwrap(),
        );
        c.register(
            TableBuilder::new("big_fact")
                .add_i64("dim_id", (0..1000).map(|i| i % 10).collect())
                .add_f64("x", (0..1000).map(|i| i as f64).collect())
                .build()
                .unwrap(),
        );
        // the small dim is written on the LEFT, so the as-written baseline
        // builds on the big right side
        let plan =
            LogicalPlan::scan("small_dim").join(LogicalPlan::scan("big_fact"), "dim_id", "dim_id");
        let run_with = |cost_based: bool| {
            let exec = Executor::new();
            let ctx = ExecutionContext {
                cost_based_build_side: cost_based,
                ..ExecutionContext::default()
            };
            let out = exec.execute(&plan, &c, &ctx).unwrap();
            let m = exec.metrics();
            (out, m.join_build_rows(), m.join_probe_batches())
        };
        let (a, asis_build, asis_probes) = run_with(false);
        let (b, cost_build, cost_probes) = run_with(true);
        assert_eq!(asis_build, 1000, "as-written always builds the right side");
        assert_eq!(
            cost_build, 10,
            "cost-based selection must build on the smaller side"
        );
        assert!(asis_probes >= 1 && cost_probes >= 1);
        assert_eq!(a.num_rows(), 1000);
        assert_eq!(b.num_rows(), 1000);
        assert_eq!(a.schema().names(), b.schema().names());
        let key = |batch: &Batch| {
            let mut v: Vec<(u64, u64)> = batch
                .column_by_name("x")
                .unwrap()
                .as_f64()
                .unwrap()
                .iter()
                .zip(batch.column_by_name("w").unwrap().as_f64().unwrap())
                .map(|(x, w)| (x.to_bits(), w.to_bits()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(key(&a), key(&b), "both build sides join the same rows");
    }

    #[test]
    fn metrics_collected() {
        let c = catalog();
        let exec = Executor::new();
        let plan = LogicalPlan::scan("patient_info").project(vec![col("age")]);
        let plan = Optimizer::new().optimize(&plan, &c).unwrap();
        exec.execute(&plan, &c, &ExecutionContext::default())
            .unwrap();
        let m = exec.metrics();
        assert_eq!(m.rows_scanned(), 4);
        assert!(m.bytes_scanned() > 0);
        assert_eq!(m.output_rows(), 4);
    }

    #[test]
    fn optimized_plan_same_result() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .join(LogicalPlan::scan("blood_test"), "id", "id")
            .filter(col("asthma").eq(lit(1i64)).and(col("bpm").lt(lit(80.0))))
            .project(vec![col("age"), col("bpm")]);
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let a = run(&plan, &c);
        let b = run(&optimized, &c);
        assert_eq!(a.num_rows(), b.num_rows());
        let mut ax = a.column_by_name("age").unwrap().as_f64().unwrap().to_vec();
        let mut bx = b.column_by_name("age").unwrap().as_f64().unwrap().to_vec();
        ax.sort_by(|p, q| p.partial_cmp(q).unwrap());
        bx.sort_by(|p, q| p.partial_cmp(q).unwrap());
        assert_eq!(ax, bx);
    }

    fn range_partitioned_catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = TableBuilder::new("wide")
            .add_i64("id", (0..1000).collect())
            .add_f64("x", (0..1000).map(|i| i as f64).collect())
            .build()
            .unwrap();
        let t = raven_columnar::partition_by_column(
            &t,
            &raven_columnar::PartitionSpec::ByRange {
                column: "x".into(),
                partitions: 8,
            },
        )
        .unwrap();
        c.register(t);
        c
    }

    #[test]
    fn scan_prunes_partitions_via_stats() {
        let c = range_partitioned_catalog();
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").gt_eq(lit(900.0)))
            .project(vec![col("id")]);
        // predicate pushdown moves the filter into the scan, enabling pruning
        let plan = Optimizer::new().optimize(&plan, &c).unwrap();
        for dop in [1, 4] {
            let exec = Executor::new();
            let out = exec
                .execute(&plan, &c, &ExecutionContext::with_dop(dop))
                .unwrap();
            assert_eq!(out.num_rows(), 100);
            let m = exec.metrics();
            assert!(
                m.partitions_pruned() >= 6,
                "expected most partitions pruned, got {}",
                m.partitions_pruned()
            );
            assert!(m.partitions_scanned() >= 1);
            assert_eq!(m.partitions_scanned() + m.partitions_pruned(), 8);
            // pruned partitions were never scanned
            assert!(m.rows_scanned() <= 2 * 125);
        }
    }

    #[test]
    fn pruned_and_unpruned_results_agree() {
        let c = range_partitioned_catalog();
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").lt(lit(130.0)))
            .project(vec![col("id"), col("x")]);
        // unoptimized: filter above the scan, nothing pruned
        let exec_a = Executor::new();
        let a = exec_a
            .execute(&plan, &c, &ExecutionContext::with_dop(2))
            .unwrap();
        assert_eq!(exec_a.metrics().partitions_pruned(), 0);
        // optimized: filter pushed into the scan, partitions pruned
        let optimized = Optimizer::new().optimize(&plan, &c).unwrap();
        let exec_b = Executor::new();
        let b = exec_b
            .execute(&optimized, &c, &ExecutionContext::with_dop(2))
            .unwrap();
        assert!(exec_b.metrics().partitions_pruned() > 0);
        let mut ida = a.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
        let mut idb = b.column_by_name("id").unwrap().as_i64().unwrap().to_vec();
        ida.sort();
        idb.sort();
        assert_eq!(ida, idb);
    }

    #[test]
    fn execute_stream_keeps_partition_indices_and_stats() {
        let c = range_partitioned_catalog();
        let plan = LogicalPlan::scan("wide");
        let exec = Executor::new();
        let items = exec
            .execute_stream(&plan, &c, &ExecutionContext::with_dop(2))
            .unwrap()
            .collect(2)
            .unwrap();
        assert_eq!(items.len(), 8);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.partition, i);
            assert!(item.stats.is_some(), "scan items carry partition stats");
        }
    }

    #[test]
    fn streaming_join_prunes_probe_side() {
        let mut c = range_partitioned_catalog();
        c.register(
            TableBuilder::new("dim")
                .add_i64("id", (0..1000).collect())
                .add_f64("w", (0..1000).map(|i| i as f64 * 0.5).collect())
                .build()
                .unwrap(),
        );
        let plan = LogicalPlan::scan("wide")
            .filter(col("x").gt_eq(lit(875.0)))
            .join(LogicalPlan::scan("dim"), "id", "id")
            .project(vec![col("id"), col("w")]);
        let plan = Optimizer::new().optimize(&plan, &c).unwrap();
        let exec = Executor::new();
        let out = exec
            .execute(&plan, &c, &ExecutionContext::with_dop(2))
            .unwrap();
        assert_eq!(out.num_rows(), 125);
        assert!(exec.metrics().partitions_pruned() >= 6);
    }

    /// Keys of different types must not match on bit patterns: Int64
    /// Utf8 key codes are hashes, so a chain can hold strings other than the
    /// probe's: a table whose chain for "a"'s code also holds "b" (a forced
    /// collision) still matches "a" only with "a".
    #[test]
    fn utf8_probe_compares_strings_on_the_chain() {
        let key: ColumnRef = Arc::new(Column::Utf8(vec!["a".into(), "b".into(), "a".into()]));
        let mut heads = FastMap::default();
        heads.insert(fast_hash("a"), 0);
        let table = JoinTable {
            heads,
            next: vec![1, 2, NO_ROW],
            key,
        };
        let probe = Column::Utf8(vec!["a".into(), "b".into()]);
        let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
        table.probe(&probe, 0..2, &mut probe_idx, &mut build_idx);
        assert_eq!((probe_idx, build_idx), (vec![0, 0], vec![0, 2]));
    }

    /// `4607182418800017408` is the bit pattern of Float64 `1.0`, and Int64
    /// `1` is a Boolean `true`. Both pairs are plan errors.
    #[test]
    fn join_keys_of_different_types_are_a_plan_error() {
        let pairs = [
            (
                TableBuilder::new("l").add_i64("k", vec![4_607_182_418_800_017_408]),
                TableBuilder::new("r").add_f64("k2", vec![1.0]),
            ),
            (
                TableBuilder::new("l").add_i64("k", vec![1]),
                TableBuilder::new("r").add_bool("k2", vec![true]),
            ),
        ];
        for (left, right) in pairs {
            let mut c = Catalog::new();
            c.register(left.build().unwrap());
            c.register(right.build().unwrap());
            let plan = LogicalPlan::scan("l").join(LogicalPlan::scan("r"), "k", "k2");
            let err = plan.schema(&c).unwrap_err();
            assert!(matches!(err, RelationalError::Plan(_)), "{err}");
            let err = Executor::new()
                .execute(&plan, &c, &ExecutionContext::default())
                .unwrap_err();
            assert!(err.to_string().contains("join key types differ"), "{err}");
        }
    }

    /// Reference join table: one SipHash `HashMap<JoinKey, Vec<usize>>`
    /// entry per build key, Float64 keyed by its bits and Boolean as 0/1,
    /// empty strings and NaN never matching. [`JoinTable`] must match it
    /// bitwise, row order included.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum JoinKey {
        Int(i64),
        Str(String),
    }

    fn reference_key(col: &Column, i: usize) -> Option<JoinKey> {
        match col {
            Column::Int64(v) => Some(JoinKey::Int(v[i])),
            Column::Utf8(v) => (!v[i].is_empty()).then(|| JoinKey::Str(v[i].clone())),
            Column::Float64(v) => (!v[i].is_nan()).then(|| JoinKey::Int(v[i].to_bits() as i64)),
            Column::Boolean(v) => Some(JoinKey::Int(v[i] as i64)),
        }
    }

    fn reference_join(
        probe: &Batch,
        selection: Option<&SelectionVector>,
        build: &Batch,
        out_schema: Arc<Schema>,
        build_is_left: bool,
    ) -> Batch {
        let build_key = build.column_by_name("bk").unwrap();
        let mut table: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        for i in 0..build_key.len() {
            if let Some(k) = reference_key(build_key, i) {
                table.entry(k).or_default().push(i);
            }
        }
        let probe_key = probe.column_by_name("pk").unwrap();
        let rows: Vec<usize> = match selection {
            None => (0..probe.num_rows()).collect(),
            Some(sel) => sel.iter().collect(),
        };
        let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
        for i in rows {
            if let Some(matches) = reference_key(probe_key, i).and_then(|k| table.get(&k)) {
                for &j in matches {
                    probe_idx.push(i);
                    build_idx.push(j);
                }
            }
        }
        let (probe_out, build_out) = (
            probe.take(&probe_idx).unwrap(),
            build.take(&build_idx).unwrap(),
        );
        let (first, second) = if build_is_left {
            (build_out, probe_out)
        } else {
            (probe_out, build_out)
        };
        let columns = first.columns().iter().chain(second.columns()).cloned();
        Batch::new(out_schema, columns.collect()).unwrap()
    }

    /// Every cell with floats as bit patterns, column by column.
    fn cell_bits(batch: &Batch) -> Vec<Vec<String>> {
        batch
            .columns()
            .iter()
            .map(|c| {
                (0..c.len())
                    .map(|r| match c.as_ref() {
                        Column::Int64(v) => format!("i{}", v[r]),
                        Column::Float64(v) => format!("f{:016x}", v[r].to_bits()),
                        Column::Utf8(v) => format!("s{}", v[r]),
                        Column::Boolean(v) => format!("b{}", v[r]),
                    })
                    .collect()
            })
            .collect()
    }

    /// One random key column of the given kind: 0 dense Int64 (range below
    /// the row count, based anywhere from `i64::MIN` to `i64::MAX`), 1
    /// sparse Int64 (spanning `i64::MIN..=i64::MAX` once `rows >= 2`), 2
    /// Utf8 with empty strings, 3 Float64 with NaN, `0.0` and `-0.0`, 4
    /// Boolean. Probe columns (`probe: true`) also reach keys just outside
    /// the build side's dense range.
    fn random_keys(rng: &mut TestRng, kind: u64, base: i64, rows: usize, probe: bool) -> Column {
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        match kind {
            0 => {
                let range = rows.max(1);
                let (width, shift) = if probe { (range + 4, 2) } else { (range, 0) };
                Column::Int64(
                    (0..rows)
                        .map(|_| base.wrapping_add(pick(width) as i64 - shift))
                        .collect(),
                )
            }
            1 => {
                let pool = [i64::MIN, i64::MAX, -1, 0, 1, 7, 1 << 40, -(1 << 40)];
                Column::Int64(
                    (0..rows)
                        .map(|i| match (probe, i) {
                            (false, 0) => i64::MIN,
                            (false, 1) => i64::MAX,
                            _ => pool[pick(pool.len())],
                        })
                        .collect(),
                )
            }
            2 => {
                let pool = ["", "a", "b", "ab", "ba", "a longer key past one word"];
                Column::Utf8((0..rows).map(|_| pool[pick(pool.len())].into()).collect())
            }
            3 => {
                let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
                let pool = [f64::NAN, other_nan, 0.0, -0.0, 1.0, -1.5, f64::INFINITY];
                Column::Float64((0..rows).map(|_| pool[pick(pool.len())]).collect())
            }
            _ => Column::Boolean((0..rows).map(|_| pick(2) == 1).collect()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The join table produces bitwise the reference's output, row
        /// order included, for every key type, with duplicate keys on both
        /// sides, under probe selections, building either side.
        #[test]
        fn join_table_matches_reference(seed in 0u64..1_000_000) {
            let mut rng = TestRng::deterministic(&format!("join-{seed}"));
            for kind in 0..5u64 {
                let bases = [0, -37, i64::MIN, i64::MAX - 64];
                let base = bases[(rng.next_u64() % 4) as usize];
                let build_rows = (rng.next_u64() % 40) as usize;
                let probe_rows = (rng.next_u64() % 60) as usize;
                let build_key = random_keys(&mut rng, kind, base, build_rows, false);
                let probe_key = random_keys(&mut rng, kind, base, probe_rows, true);
                let build = Batch::new(
                    Arc::new(Schema::new(vec![
                        raven_columnar::Field::new("bk", build_key.data_type()),
                        raven_columnar::Field::new("bid", DataType::Int64),
                    ]).unwrap()),
                    vec![Arc::new(build_key), Arc::new(Column::Int64((0..build_rows as i64).collect()))],
                ).unwrap();
                let probe = Batch::new(
                    Arc::new(Schema::new(vec![
                        raven_columnar::Field::new("pk", probe_key.data_type()),
                        raven_columnar::Field::new("pid", DataType::Int64),
                    ]).unwrap()),
                    vec![Arc::new(probe_key), Arc::new(Column::Int64((0..probe_rows as i64).collect()))],
                ).unwrap();
                let capacity = (rng.next_u64() % 50) as usize;
                let table = JoinTable::build(&build, "bk", capacity).unwrap();
                let selection = rng.next_u64().is_multiple_of(2).then(|| {
                    let mask: Vec<bool> = (0..probe_rows).map(|_| !rng.next_u64().is_multiple_of(3)).collect();
                    SelectionVector::from_mask(&mask)
                });
                for build_is_left in [false, true] {
                    let out_schema = Arc::new(if build_is_left {
                        build.schema().merge(probe.schema(), "r").unwrap()
                    } else {
                        probe.schema().merge(build.schema(), "r").unwrap()
                    });
                    let got = probe_hash_join(
                        &probe, selection.as_ref(), &build, &table, "pk", out_schema.clone(), build_is_left,
                    ).unwrap();
                    let want = reference_join(&probe, selection.as_ref(), &build, out_schema, build_is_left);
                    prop_assert_eq!(cell_bits(&got), cell_bits(&want), "kind {}", kind);
                }
            }
        }
    }

    #[test]
    fn empty_result_keeps_schema() {
        let c = catalog();
        let plan = LogicalPlan::scan("patient_info")
            .filter(col("age").gt(lit(1000.0)))
            .project(vec![col("age")]);
        let out = run(&plan, &c);
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().names(), vec!["age"]);
    }
}
