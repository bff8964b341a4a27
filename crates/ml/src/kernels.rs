//! Fused featurize→score kernels: the whole prediction pipeline compiled
//! into one block-at-a-time pass.
//!
//! PR 4 vectorized tree scoring, but every featurizer still ran
//! interpreter-shaped: `bind_batch` cloned each source column into a
//! row-major [`crate::Matrix`] (allocating a `String` per row for
//! integer-backed categorical columns), every operator allocated a fresh
//! intermediate `Matrix`, encoders linearly scanned their category lists per
//! row, and the tree kernel finally re-transposed the concatenated result
//! into feature-major lanes. [`FusedPipeline`] compiles all of that away at
//! prepare time:
//!
//! * the operator DAG is **resolved into per-lane programs**: each output
//!   feature lane is traced back to the source column that feeds it plus a
//!   (usually length-0–2) chain of scalar stages — NaN-fill (imputer), the
//!   affine `(x - offset) * scale` (scaler), thresholding (binarizer) —
//!   folded through structural operators (concat, feature extraction,
//!   constants);
//! * one-hot encoders become **lane scatters** with a precomputed
//!   [`CategoryTable`]: per row one hash/binary-search lookup (numeric
//!   categories compare *numerically* — no `format!`, no `String`), the
//!   owned lanes pre-filled with the encoding of "no hit";
//! * execution makes **one pass over the source columns per 64-row block**,
//!   writing finished feature-major lanes straight into the scratch the
//!   model kernels consume — no intermediate `Matrix` exists at any point;
//! * the model runs in the same pass: tree ensembles via
//!   `FlatEnsemble::score_lanes_block` (the perfect-tree walker), linear
//!   models via a dense **lane-major dot-product kernel** that folds
//!   weights in the same per-row order as the interpreted `dot_rows`, so
//!   results stay bit-identical.
//!
//! Pipelines the resolver cannot express (row-wise normalizers, models fed
//! by other models, categorical values consumed as numerics, …) simply
//! don't fuse: `FusedPipeline::compile` returns `None` and the runtime
//! falls back to the per-operator path with flat tree kernels — which
//! also remains the A/B baseline via [`force_fusion`]. The
//! `RAVEN_SCORER=interpreted` oracle disables both tiers.

use crate::error::{MlError, Result};
use crate::ops::featurizer::CategoryTable;
use crate::ops::linear::sigmoid;
use crate::ops::{FlatEnsemble, Operator, BLOCK};
use crate::pipeline::{InputKind, Pipeline};
use raven_columnar::{Batch, Column, ColumnarError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// fusion-mode selection (fused by default, per-operator path as the baseline)
// ---------------------------------------------------------------------------

/// 0 = no override (fused when compiled), 2 = force the per-operator PR 4
/// baseline (interpreted featurizers + flat tree kernels).
static FORCE_FUSION: AtomicU8 = AtomicU8::new(0);

/// Programmatically pin whether compiled fused pipelines are used (benches
/// A/B the fused pass against the per-operator baseline with this). `None`
/// restores the default (fused whenever compilation succeeded). The
/// `RAVEN_SCORER=interpreted` oracle overrides both — it pins the fully
/// interpreted graph.
pub fn force_fusion(enabled: Option<bool>) {
    FORCE_FUSION.store(
        match enabled {
            None | Some(true) => 0,
            Some(false) => 2,
        },
        Ordering::SeqCst,
    );
}

/// Whether fused pipelines are currently in use (given one compiled).
pub fn fusion_active() -> bool {
    FORCE_FUSION.load(Ordering::SeqCst) != 2
}

// ---------------------------------------------------------------------------
// compiled form
// ---------------------------------------------------------------------------

/// A per-lane scalar transform chain, applied in DAG order. Each stage is
/// exactly the interpreted operator's per-cell computation, so a fused lane
/// is bit-identical to the operator chain it replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScalarStage {
    /// Imputer: replace NaN with the per-feature fill value.
    FillNan(f64),
    /// Scaler: `(x - offset) * scale`.
    Affine { offset: f64, scale: f64 },
    /// Binarizer: `1.0` when `x > threshold`, else `0.0`.
    Binarize(f64),
}

impl ScalarStage {
    #[inline(always)]
    fn apply(self, v: f64) -> f64 {
        match self {
            ScalarStage::FillNan(fill) => {
                if v.is_nan() {
                    fill
                } else {
                    v
                }
            }
            ScalarStage::Affine { offset, scale } => (v - offset) * scale,
            ScalarStage::Binarize(t) => {
                if v > t {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

#[inline(always)]
fn apply_stages(stages: &[ScalarStage], mut v: f64) -> f64 {
    for s in stages {
        v = s.apply(v);
    }
    v
}

/// Where a one-hot / label lookup reads its category value from.
#[derive(Debug, Clone)]
enum CatSource {
    /// A categorical pipeline input: looked up by the source column's own
    /// type (strings hash, integers/bools hit the integer table, floats the
    /// numeric table) — the allocation-free equivalent of the runtime's
    /// to-string binding.
    Categorical { input: u32 },
    /// A numeric value (possibly transformed by stages) matched against the
    /// categories with `format_numeric_category` semantics, numerically.
    Numeric {
        input: u32,
        stages: Arc<[ScalarStage]>,
    },
}

/// Per category index: the `(lane, hit value)` writes a one-hot scatter
/// performs when a row lands on that category.
type OneHotWrites = Arc<[Box<[(u32, f64)]>]>;

/// One compiled lane writer. Every op owns a disjoint set of output lanes
/// and (re)writes them completely for each block.
#[derive(Debug, Clone)]
enum FusedOp {
    /// One numeric source column → one lane through a scalar stage chain.
    Numeric {
        input: u32,
        lane: u32,
        stages: Arc<[ScalarStage]>,
    },
    /// A constant lane (constant nodes, with any downstream stages folded).
    Const { lane: u32, value: f64 },
    /// Label-encode a categorical source column into one lane (class index
    /// or -1.0, then any downstream stages).
    Label {
        input: u32,
        lane: u32,
        table: Arc<CategoryTable>,
        stages: Arc<[ScalarStage]>,
    },
    /// One-hot scatter: pre-fill the owned lanes with their "no hit" value
    /// (downstream stages applied to 0.0), compute the row's category index
    /// once, and write the "hit" value (stages applied to 1.0) into the
    /// lane(s) kept for that category.
    OneHot {
        source: CatSource,
        table: Arc<CategoryTable>,
        /// `(lane, stages(0.0))` for every owned output lane.
        fill: Arc<[(u32, f64)]>,
        /// Per category index: the `(lane, stages(1.0))` writes it triggers
        /// (empty when projection dropped that category's lane).
        set: OneHotWrites,
    },
}

/// The model kernel at the end of the fused pass.
#[derive(Debug, Clone)]
enum FusedModel {
    /// Tree ensembles: the PR 4 flattened perfect-tree walker, fed lanes
    /// directly.
    Trees(Arc<FlatEnsemble>),
    /// Linear models: dense lane-major dot product plus link function.
    Linear {
        weights: Arc<[f64]>,
        intercept: f64,
        sigmoid_link: bool,
    },
}

/// A fully compiled featurize→score pipeline. Built once at prepare time by
/// [`crate::CompiledPipeline`]; cloning is cheap (everything is shared).
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    /// Every pipeline input, in declaration order — all must be present in a
    /// scored batch (missing-column errors match `bind_batch`), even ones no
    /// lane reads.
    inputs: Arc<[(String, InputKind)]>,
    ops: Arc<[FusedOp]>,
    n_lanes: usize,
    model: FusedModel,
}

/// Intermediate per-value lane description used during resolution.
#[derive(Debug, Clone)]
enum LaneSpec {
    Numeric {
        input: u32,
        stages: Vec<ScalarStage>,
    },
    Const(f64),
    RawCategorical {
        input: u32,
    },
    Label {
        input: u32,
        enc: usize,
        stages: Vec<ScalarStage>,
    },
    OneHotBit {
        enc: usize,
        bit: u32,
        stages: Vec<ScalarStage>,
    },
}

/// Encoder instance discovered during resolution (`enc` indexes this list).
#[derive(Debug, Clone)]
struct EncoderSpec {
    source: CatSource,
    table: Arc<CategoryTable>,
    width: usize,
}

impl FusedPipeline {
    /// Try to compile `pipeline` into a fused pass. Returns `None` whenever
    /// the pipeline's shape falls outside the fusable operator set — the
    /// caller keeps the per-operator compiled path as the fallback, so
    /// failing to fuse is never an error (and pipelines whose interpreted
    /// evaluation would fail, e.g. width mismatches, intentionally don't
    /// fuse so the interpreted path reports its error).
    pub(crate) fn compile(
        pipeline: &Pipeline,
        flat: &HashMap<String, Arc<FlatEnsemble>>,
    ) -> Option<FusedPipeline> {
        let model_node = pipeline.output_node()?;
        if !model_node.op.is_model() {
            return None;
        }
        let input_idx: HashMap<&str, u32> = pipeline
            .inputs
            .iter()
            .enumerate()
            .map(|(i, inp)| (inp.name.as_str(), i as u32))
            .collect();
        let mut encoders: Vec<EncoderSpec> = Vec::new();
        // Lane programs per value name; `None` marks a value the resolver
        // cannot express (only fatal if the model transitively needs it).
        let mut values: HashMap<&str, Option<Vec<LaneSpec>>> = HashMap::new();
        for inp in &pipeline.inputs {
            let spec = match inp.kind {
                InputKind::Numeric => LaneSpec::Numeric {
                    input: input_idx[inp.name.as_str()],
                    stages: Vec::new(),
                },
                InputKind::Categorical => LaneSpec::RawCategorical {
                    input: input_idx[inp.name.as_str()],
                },
            };
            values.insert(inp.name.as_str(), Some(vec![spec]));
        }
        for node in &pipeline.nodes {
            if node.name == model_node.name {
                continue;
            }
            let resolved = resolve_node(&node.op, &node.inputs, &values, &mut encoders);
            values.insert(node.output.as_str(), resolved);
        }

        // The model consumes the implicit concatenation of its inputs.
        let lanes = numeric_lanes(&model_node.inputs, &values)?;
        let n_lanes = lanes.len();
        let model = match &model_node.op {
            Operator::TreeEnsemble(_) => {
                let scorer = flat.get(model_node.name.as_str())?;
                if scorer.n_features() > n_lanes {
                    return None;
                }
                FusedModel::Trees(scorer.clone())
            }
            Operator::LinearRegression(m) => linear_model(&m.weights, m.intercept, false, n_lanes)?,
            Operator::LogisticRegression(m) => {
                linear_model(&m.weights, m.intercept, true, n_lanes)?
            }
            Operator::LinearSvm(m) => linear_model(&m.weights, m.intercept, false, n_lanes)?,
            _ => return None,
        };

        // Lower lane specs into lane-writer ops; one-hot bits of the same
        // encoder coalesce into a single scatter op.
        let mut ops: Vec<FusedOp> = Vec::new();
        let mut onehot: HashMap<usize, Vec<(u32, u32, Vec<ScalarStage>)>> = HashMap::new();
        for (lane, spec) in lanes.into_iter().enumerate() {
            let lane = lane as u32;
            match spec {
                LaneSpec::Numeric { input, stages } => ops.push(FusedOp::Numeric {
                    input,
                    lane,
                    stages: stages.into(),
                }),
                LaneSpec::Const(value) => ops.push(FusedOp::Const { lane, value }),
                LaneSpec::Label { input, enc, stages } => ops.push(FusedOp::Label {
                    input,
                    lane,
                    table: encoders[enc].table.clone(),
                    stages: stages.into(),
                }),
                LaneSpec::OneHotBit { enc, bit, stages } => {
                    onehot.entry(enc).or_default().push((lane, bit, stages));
                }
                LaneSpec::RawCategorical { .. } => return None,
            }
        }
        let mut encs: Vec<usize> = onehot.keys().copied().collect();
        encs.sort_unstable();
        for enc in encs {
            let members = &onehot[&enc];
            let spec = &encoders[enc];
            let fill: Vec<(u32, f64)> = members
                .iter()
                .map(|(lane, _, stages)| (*lane, apply_stages(stages, 0.0)))
                .collect();
            let mut set: Vec<Vec<(u32, f64)>> = vec![Vec::new(); spec.width];
            for (lane, bit, stages) in members {
                set[*bit as usize].push((*lane, apply_stages(stages, 1.0)));
            }
            ops.push(FusedOp::OneHot {
                source: spec.source.clone(),
                table: spec.table.clone(),
                fill: fill.into(),
                set: set
                    .into_iter()
                    .map(|v| v.into_boxed_slice())
                    .collect::<Vec<_>>()
                    .into(),
            });
        }

        Some(FusedPipeline {
            inputs: pipeline
                .inputs
                .iter()
                .map(|i| (i.name.clone(), i.kind))
                .collect::<Vec<_>>()
                .into(),
            ops: ops.into(),
            n_lanes,
            model,
        })
    }

    /// Number of feature lanes the fused pass produces for the model.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Compiled-artifact validation: every lane program must reference only
    /// real source inputs (`input < inputs.len()`) and write only real lanes
    /// (`lane < n_lanes`), including the one-hot fill/scatter writes, and
    /// the model kernel must agree with the lane count (tree ensembles read
    /// at most `n_lanes` features — and pass their own arena checks — and
    /// linear weights match the lane width exactly).
    ///
    /// `FusedPipeline::compile` establishes all of this by
    /// construction; `verify` re-checks it in debug builds and under
    /// `RAVEN_VERIFY=strict` so a miscompiled pipeline fails at prepare time
    /// instead of reading a stranger's lane at serve time.
    pub fn verify(&self) -> Result<()> {
        let bad = |msg: String| Err(MlError::InvalidModel(format!("fused pipeline: {msg}")));
        let n_inputs = self.inputs.len();
        let check_input = |i: u32, what: &str| -> Result<()> {
            if i as usize >= n_inputs {
                return bad(format!("{what} reads input {i}, pipeline has {n_inputs}"));
            }
            Ok(())
        };
        let check_lane = |l: u32, what: &str| -> Result<()> {
            if l as usize >= self.n_lanes {
                return bad(format!("{what} writes lane {l} of {}", self.n_lanes));
            }
            Ok(())
        };
        for op in self.ops.iter() {
            match op {
                FusedOp::Numeric { input, lane, .. } => {
                    check_input(*input, "numeric op")?;
                    check_lane(*lane, "numeric op")?;
                }
                FusedOp::Const { lane, .. } => check_lane(*lane, "const op")?,
                FusedOp::Label { input, lane, .. } => {
                    check_input(*input, "label op")?;
                    check_lane(*lane, "label op")?;
                }
                FusedOp::OneHot {
                    source, fill, set, ..
                } => {
                    match source {
                        CatSource::Categorical { input } | CatSource::Numeric { input, .. } => {
                            check_input(*input, "one-hot source")?
                        }
                    }
                    for (lane, _) in fill.iter() {
                        check_lane(*lane, "one-hot fill")?;
                    }
                    for writes in set.iter() {
                        for (lane, _) in writes.iter() {
                            check_lane(*lane, "one-hot scatter")?;
                        }
                    }
                }
            }
        }
        match &self.model {
            FusedModel::Trees(scorer) => {
                if scorer.n_features() > self.n_lanes {
                    return bad(format!(
                        "tree model reads {} features from {} lanes",
                        scorer.n_features(),
                        self.n_lanes
                    ));
                }
                scorer.verify()?;
            }
            FusedModel::Linear { weights, .. } => {
                if weights.len() != self.n_lanes {
                    return bad(format!(
                        "linear model has {} weights for {} lanes",
                        weights.len(),
                        self.n_lanes
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resolve the batch columns every pipeline input binds to (by name,
    /// with `bind_batch`-compatible missing-column errors).
    pub(crate) fn bind<'a>(&'a self, batch: &'a Batch) -> Result<BoundFused<'a>> {
        let mut cols = Vec::with_capacity(self.inputs.len());
        for (name, _) in self.inputs.iter() {
            let col = batch
                .column_by_name(name)
                .map_err(|_| MlError::MissingInput(format!("column {name} not in batch")))?;
            cols.push(col.as_ref());
        }
        Ok(BoundFused { fused: self, cols })
    }
}

fn linear_model(
    weights: &[f64],
    intercept: f64,
    sigmoid_link: bool,
    n_lanes: usize,
) -> Option<FusedModel> {
    if weights.len() != n_lanes {
        return None;
    }
    Some(FusedModel::Linear {
        weights: weights.to_vec().into(),
        intercept,
        sigmoid_link,
    })
}

/// Concatenate the lane programs of `inputs`, requiring every lane to carry
/// a numeric value (raw categorical lanes would make the interpreted
/// `as_numeric` fail, so they don't fuse).
fn numeric_lanes(
    inputs: &[String],
    values: &HashMap<&str, Option<Vec<LaneSpec>>>,
) -> Option<Vec<LaneSpec>> {
    let mut out = Vec::new();
    for name in inputs {
        let lanes = values.get(name.as_str())?.as_ref()?;
        if lanes
            .iter()
            .any(|l| matches!(l, LaneSpec::RawCategorical { .. }))
        {
            return None;
        }
        out.extend(lanes.iter().cloned());
    }
    Some(out)
}

/// Append a scalar stage to every lane of a numeric value (folding constants
/// eagerly — the same f64 op the interpreter would run per row).
fn push_stage(lanes: &mut [LaneSpec], stage: impl Fn(usize) -> ScalarStage) {
    for (c, lane) in lanes.iter_mut().enumerate() {
        match lane {
            LaneSpec::Numeric { stages, .. }
            | LaneSpec::Label { stages, .. }
            | LaneSpec::OneHotBit { stages, .. } => stages.push(stage(c)),
            LaneSpec::Const(v) => *v = stage(c).apply(*v),
            LaneSpec::RawCategorical { .. } => unreachable!("checked by numeric_lanes"),
        }
    }
}

fn resolve_node(
    op: &Operator,
    inputs: &[String],
    values: &HashMap<&str, Option<Vec<LaneSpec>>>,
    encoders: &mut Vec<EncoderSpec>,
) -> Option<Vec<LaneSpec>> {
    match op {
        Operator::Scaler(s) => {
            let mut lanes = numeric_lanes(inputs, values)?;
            // a scales/offsets length mismatch makes the interpreted
            // transform error at runtime — decline to fuse so it still does
            if lanes.len() != s.width() || s.scales.len() != s.offsets.len() {
                return None;
            }
            push_stage(&mut lanes, |c| ScalarStage::Affine {
                offset: s.offsets[c],
                scale: s.scales[c],
            });
            Some(lanes)
        }
        Operator::Imputer(imp) => {
            let mut lanes = numeric_lanes(inputs, values)?;
            if lanes.len() != imp.fill.len() {
                return None;
            }
            push_stage(&mut lanes, |c| ScalarStage::FillNan(imp.fill[c]));
            Some(lanes)
        }
        Operator::Binarizer(b) => {
            let mut lanes = numeric_lanes(inputs, values)?;
            push_stage(&mut lanes, |_| ScalarStage::Binarize(b.threshold));
            Some(lanes)
        }
        Operator::OneHotEncoder(e) => {
            let lanes = single_lane(inputs, values)?;
            let source = cat_source(lanes)?;
            let enc = encoders.len();
            encoders.push(EncoderSpec {
                source,
                table: Arc::new(CategoryTable::build(&e.categories)),
                width: e.categories.len(),
            });
            Some(
                (0..e.categories.len())
                    .map(|bit| LaneSpec::OneHotBit {
                        enc,
                        bit: bit as u32,
                        stages: Vec::new(),
                    })
                    .collect(),
            )
        }
        Operator::LabelEncoder(l) => {
            let lanes = single_lane(inputs, values)?;
            // the interpreted label encoder accepts only string inputs
            let LaneSpec::RawCategorical { input } = lanes else {
                return None;
            };
            let enc = encoders.len();
            encoders.push(EncoderSpec {
                source: CatSource::Categorical { input: *input },
                table: Arc::new(CategoryTable::build(&l.classes)),
                width: l.classes.len(),
            });
            Some(vec![LaneSpec::Label {
                input: *input,
                enc,
                stages: Vec::new(),
            }])
        }
        Operator::Concat => numeric_lanes(inputs, values),
        Operator::FeatureExtractor(fe) => {
            let lanes = numeric_lanes(inputs, values)?;
            fe.indices
                .iter()
                .map(|&i| lanes.get(i).cloned())
                .collect::<Option<Vec<_>>>()
        }
        Operator::Constant(c) => Some(c.values.iter().map(|&v| LaneSpec::Const(v)).collect()),
        Operator::Normalizer(_)
        | Operator::LinearRegression(_)
        | Operator::LogisticRegression(_)
        | Operator::LinearSvm(_)
        | Operator::TreeEnsemble(_) => None,
    }
}

/// The single lane of an encoder's single single-column input.
fn single_lane<'v>(
    inputs: &[String],
    values: &'v HashMap<&str, Option<Vec<LaneSpec>>>,
) -> Option<&'v LaneSpec> {
    if inputs.len() != 1 {
        return None;
    }
    let lanes = values.get(inputs[0].as_str())?.as_ref()?;
    if lanes.len() != 1 {
        return None;
    }
    lanes.first()
}

fn cat_source(lane: &LaneSpec) -> Option<CatSource> {
    match lane {
        LaneSpec::RawCategorical { input } => Some(CatSource::Categorical { input: *input }),
        LaneSpec::Numeric { input, stages } => Some(CatSource::Numeric {
            input: *input,
            stages: stages.clone().into(),
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

/// Row addressing for one block: either a contiguous run of batch rows or a
/// gathered selection (the zero-copy filter→score path reads selected rows
/// straight from the source columns).
trait RowIx: Copy {
    fn at(self, i: usize) -> usize;
}

#[derive(Clone, Copy)]
struct Seq(usize);
impl RowIx for Seq {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.0 + i
    }
}

#[derive(Clone, Copy)]
struct Gather<'a>(&'a [u32]);
impl RowIx for Gather<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> usize {
        self.0[i] as usize
    }
}

/// A [`FusedPipeline`] with its input columns resolved against one batch.
#[derive(Debug)]
pub(crate) struct BoundFused<'a> {
    fused: &'a FusedPipeline,
    cols: Vec<&'a Column>,
}

impl BoundFused<'_> {
    /// Score `len` contiguous rows starting at `start`, appending one score
    /// per row to `out`.
    pub(crate) fn score_range(&self, start: usize, len: usize, out: &mut Vec<f64>) -> Result<()> {
        self.score_blocks(len, |offset| Seq(start + offset), out)
    }

    /// Score the gathered rows at `indices`, appending one score per row.
    pub(crate) fn score_gathered(&self, indices: &[u32], out: &mut Vec<f64>) -> Result<()> {
        self.score_blocks(indices.len(), |offset| Gather(&indices[offset..]), out)
    }

    fn score_blocks<R: RowIx>(
        &self,
        total: usize,
        rows_at: impl Fn(usize) -> R,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.reserve(total);
        let lanes = self.fused.n_lanes.max(1);
        let mut feat = vec![0.0f64; lanes * BLOCK];
        let mut block_out = [0.0f64; BLOCK];
        let mut done = 0;
        while done < total {
            let blen = BLOCK.min(total - done);
            let rows = rows_at(done);
            for op in self.fused.ops.iter() {
                self.fill_lanes(op, rows, blen, &mut feat)?;
            }
            match &self.fused.model {
                FusedModel::Trees(scorer) => scorer.score_lanes_block(&feat, blen, &mut block_out),
                FusedModel::Linear {
                    weights,
                    intercept,
                    sigmoid_link,
                } => linear_lanes_block(
                    weights,
                    *intercept,
                    *sigmoid_link,
                    &feat,
                    blen,
                    &mut block_out,
                ),
            }
            out.extend_from_slice(&block_out[..blen]);
            done += blen;
        }
        Ok(())
    }

    /// Run one lane-writer op for a block: read the rows it needs straight
    /// from its source column and write its owned feature-major lanes.
    fn fill_lanes<R: RowIx>(
        &self,
        op: &FusedOp,
        rows: R,
        blen: usize,
        feat: &mut [f64],
    ) -> Result<()> {
        match op {
            FusedOp::Const { lane, value } => {
                feat[*lane as usize * BLOCK..*lane as usize * BLOCK + blen].fill(*value);
            }
            FusedOp::Numeric {
                input,
                lane,
                stages,
            } => {
                let dst = &mut feat[*lane as usize * BLOCK..*lane as usize * BLOCK + blen];
                fill_numeric(self.cols[*input as usize], rows, stages, dst)?;
            }
            FusedOp::Label {
                input,
                lane,
                table,
                stages,
            } => {
                let col = self.cols[*input as usize];
                let dst = &mut feat[*lane as usize * BLOCK..*lane as usize * BLOCK + blen];
                for (i, d) in dst.iter_mut().enumerate() {
                    let idx = categorical_index(col, table, rows.at(i));
                    *d = apply_stages(stages, idx.map(|x| x as f64).unwrap_or(-1.0));
                }
            }
            FusedOp::OneHot {
                source,
                table,
                fill,
                set,
            } => {
                for &(lane, zero) in fill.iter() {
                    feat[lane as usize * BLOCK..lane as usize * BLOCK + blen].fill(zero);
                }
                match source {
                    CatSource::Categorical { input } => {
                        let col = self.cols[*input as usize];
                        for i in 0..blen {
                            if let Some(idx) = categorical_index(col, table, rows.at(i)) {
                                for &(lane, one) in set[idx].iter() {
                                    feat[lane as usize * BLOCK + i] = one;
                                }
                            }
                        }
                    }
                    CatSource::Numeric { input, stages } => {
                        let col = self.cols[*input as usize];
                        for i in 0..blen {
                            let v = apply_stages(stages, numeric_at(col, rows.at(i))?);
                            if let Some(idx) = table.index_of_f64(v) {
                                for &(lane, one) in set[idx].iter() {
                                    feat[lane as usize * BLOCK + i] = one;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Category index of one categorical-kind cell, by source column type — the
/// allocation-free equivalent of the runtime's to-string binding followed by
/// a string match.
#[inline(always)]
fn categorical_index(col: &Column, table: &CategoryTable, row: usize) -> Option<usize> {
    match col {
        Column::Utf8(v) => table.index_of_str(&v[row]),
        Column::Int64(v) => table.index_of_i64(v[row]),
        Column::Boolean(v) => table.index_of_bool(v[row]),
        Column::Float64(v) => table.index_of_f64(v[row]),
    }
}

fn numeric_type_error() -> MlError {
    MlError::from(ColumnarError::TypeMismatch {
        expected: "numeric".into(),
        found: "Utf8".into(),
    })
}

/// One numeric-kind cell (the same conversions as `column_to_frame`).
#[inline(always)]
fn numeric_at(col: &Column, row: usize) -> Result<f64> {
    match col {
        Column::Float64(v) => Ok(v[row]),
        Column::Int64(v) => Ok(v[row] as f64),
        Column::Boolean(v) => Ok(if v[row] { 1.0 } else { 0.0 }),
        Column::Utf8(_) => Err(numeric_type_error()),
    }
}

/// Fill one lane from a numeric source column through a stage chain, with
/// the inner loop monomorphized per column type.
fn fill_numeric<R: RowIx>(
    col: &Column,
    rows: R,
    stages: &[ScalarStage],
    dst: &mut [f64],
) -> Result<()> {
    match col {
        Column::Float64(v) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = apply_stages(stages, v[rows.at(i)]);
            }
        }
        Column::Int64(v) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = apply_stages(stages, v[rows.at(i)] as f64);
            }
        }
        Column::Boolean(v) => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = apply_stages(stages, if v[rows.at(i)] { 1.0 } else { 0.0 });
            }
        }
        Column::Utf8(_) => return Err(numeric_type_error()),
    }
    Ok(())
}

/// Dense lane-major dot product: `out[i] = link(intercept + Σ_f w_f ·
/// lane_f[i])`, folding weights in ascending feature order — the exact
/// per-row operation sequence of the interpreted `dot_rows`, so linear
/// scores are bit-identical.
fn linear_lanes_block(
    weights: &[f64],
    intercept: f64,
    sigmoid_link: bool,
    chunk: &[f64],
    blen: usize,
    out: &mut [f64],
) {
    out[..blen].fill(intercept);
    for (f, &w) in weights.iter().enumerate() {
        let lane = &chunk[f * BLOCK..f * BLOCK + blen];
        for (o, &v) in out[..blen].iter_mut().zip(lane) {
            *o += v * w;
        }
    }
    if sigmoid_link {
        for o in out[..blen].iter_mut() {
            *o = sigmoid(*o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        Binarizer, ConstantNode, FeatureExtractor, Imputer, LabelEncoder, Normalizer,
        OneHotEncoder, Scaler, Tree, TreeEnsemble, TreeNode,
    };
    use crate::pipeline::{PipelineInput, PipelineNode};
    use crate::runtime::{bind_batch, MlRuntime};
    use crate::CompiledPipeline;
    use raven_columnar::TableBuilder;

    fn covid_pipeline() -> Pipeline {
        // imputer → scaler over numerics; one-hot over a categorical; concat;
        // a small tree — the paper's running-example shape
        let tree = Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 3,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Branch {
                    feature: 0,
                    threshold: 1.0,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 0.5 },
            ],
            root: 0,
        };
        Pipeline::new(
            "fused",
            vec![
                PipelineInput {
                    name: "age".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "bmi".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "asthma".into(),
                    kind: InputKind::Categorical,
                },
            ],
            vec![
                PipelineNode {
                    name: "imputer".into(),
                    op: Operator::Imputer(Imputer {
                        fill: vec![40.0, 25.0],
                    }),
                    inputs: vec!["age".into(), "bmi".into()],
                    output: "filled".into(),
                },
                PipelineNode {
                    name: "scaler".into(),
                    op: Operator::Scaler(Scaler {
                        offsets: vec![50.0, 25.0],
                        scales: vec![0.1, 1.0],
                    }),
                    inputs: vec!["filled".into()],
                    output: "scaled".into(),
                },
                PipelineNode {
                    name: "ohe".into(),
                    op: Operator::OneHotEncoder(OneHotEncoder {
                        categories: vec!["0".into(), "1".into()],
                    }),
                    inputs: vec!["asthma".into()],
                    output: "enc".into(),
                },
                PipelineNode {
                    name: "concat".into(),
                    op: Operator::Concat,
                    inputs: vec!["scaled".into(), "enc".into()],
                    output: "features".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree, 4)),
                    inputs: vec!["features".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap()
    }

    fn batch() -> Batch {
        TableBuilder::new("t")
            .add_f64("age", vec![70.0, f64::NAN, 65.0, 30.0, 80.0])
            .add_f64("bmi", vec![22.0, 30.0, f64::NAN, 27.0, 31.0])
            .add_i64("asthma", vec![1, 0, 1, 2, 0])
            .build_batch()
            .unwrap()
    }

    #[test]
    fn fused_pipeline_compiles_and_matches_interpreted() {
        let p = covid_pipeline();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        let fused = compiled.fused().expect("running example fuses");
        assert_eq!(fused.n_lanes(), 4);
        let b = batch();
        let rt = MlRuntime::new();
        let inputs = bind_batch(&p, &b).unwrap();
        let expected = rt.run(&p, &inputs).unwrap();
        let expected = expected.as_numeric().unwrap();
        let bound = fused.bind(&b).unwrap();
        let mut got = Vec::new();
        bound.score_range(0, b.num_rows(), &mut got).unwrap();
        for (r, &g) in got.iter().enumerate() {
            assert_eq!(expected.get(r, 0).to_bits(), g.to_bits(), "row {r}");
        }
        // gathered rows score like the contiguous rows they index
        let mut gathered = Vec::new();
        bound.score_gathered(&[4, 0, 2], &mut gathered).unwrap();
        assert_eq!(gathered.len(), 3);
        for (g, r) in gathered.iter().zip([4usize, 0, 2]) {
            assert_eq!(g.to_bits(), got[r].to_bits());
        }
    }

    #[test]
    fn linear_and_structural_operators_fuse() {
        // binarizer → extractor → constant concat → logistic model
        let p = Pipeline::new(
            "lin",
            vec![
                PipelineInput {
                    name: "x".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "y".into(),
                    kind: InputKind::Numeric,
                },
            ],
            vec![
                PipelineNode {
                    name: "bin".into(),
                    op: Operator::Binarizer(Binarizer { threshold: 0.5 }),
                    inputs: vec!["x".into(), "y".into()],
                    output: "b".into(),
                },
                PipelineNode {
                    name: "fx".into(),
                    op: Operator::FeatureExtractor(FeatureExtractor {
                        indices: vec![1, 0, 1],
                    }),
                    inputs: vec!["b".into()],
                    output: "sel".into(),
                },
                PipelineNode {
                    name: "konst".into(),
                    op: Operator::Constant(ConstantNode { values: vec![2.5] }),
                    inputs: vec![],
                    output: "k".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::LogisticRegression(crate::ops::LogisticRegressionModel {
                        weights: vec![0.5, -1.5, 2.0, 0.25],
                        intercept: 0.1,
                    }),
                    inputs: vec!["sel".into(), "k".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        let fused = compiled.fused().expect("linear pipeline fuses");
        let b = TableBuilder::new("t")
            .add_f64("x", vec![0.2, 0.9, 0.5])
            .add_i64("y", vec![1, 0, 2])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let inputs = bind_batch(&p, &b).unwrap();
        let expected = rt.run(&p, &inputs).unwrap();
        let expected = expected.as_numeric().unwrap();
        let mut got = Vec::new();
        fused.bind(&b).unwrap().score_range(0, 3, &mut got).unwrap();
        for (r, g) in got.iter().enumerate() {
            assert_eq!(expected.get(r, 0).to_bits(), g.to_bits(), "row {r}");
        }
    }

    #[test]
    fn label_encoder_fuses_with_downstream_stages() {
        let p = Pipeline::new(
            "lab",
            vec![PipelineInput {
                name: "cat".into(),
                kind: InputKind::Categorical,
            }],
            vec![
                PipelineNode {
                    name: "label".into(),
                    op: Operator::LabelEncoder(LabelEncoder {
                        classes: vec!["low".into(), "high".into()],
                    }),
                    inputs: vec!["cat".into()],
                    output: "idx".into(),
                },
                PipelineNode {
                    name: "scale".into(),
                    op: Operator::Scaler(Scaler {
                        offsets: vec![0.5],
                        scales: vec![2.0],
                    }),
                    inputs: vec!["idx".into()],
                    output: "scaled".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::LinearRegression(crate::ops::LinearRegressionModel {
                        weights: vec![3.0],
                        intercept: -1.0,
                    }),
                    inputs: vec!["scaled".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        let fused = compiled.fused().expect("label pipeline fuses");
        let b = TableBuilder::new("t")
            .add_utf8("cat", vec!["high".into(), "low".into(), "??".into()])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let inputs = bind_batch(&p, &b).unwrap();
        let expected = rt.run(&p, &inputs).unwrap();
        let expected = expected.as_numeric().unwrap();
        let mut got = Vec::new();
        fused.bind(&b).unwrap().score_range(0, 3, &mut got).unwrap();
        for (r, g) in got.iter().enumerate() {
            assert_eq!(expected.get(r, 0).to_bits(), g.to_bits(), "row {r}");
        }
    }

    #[test]
    fn unfusable_shapes_fall_back_cleanly() {
        // a normalizer on the model path defeats per-lane fusion
        let p = Pipeline::new(
            "norm",
            vec![PipelineInput {
                name: "x".into(),
                kind: InputKind::Numeric,
            }],
            vec![
                PipelineNode {
                    name: "n".into(),
                    op: Operator::Normalizer(Normalizer {
                        norm: crate::ops::Norm::L2,
                    }),
                    inputs: vec!["x".into()],
                    output: "nx".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::LinearRegression(crate::ops::LinearRegressionModel {
                        weights: vec![1.0],
                        intercept: 0.0,
                    }),
                    inputs: vec!["nx".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        assert!(compiled.fused().is_none());

        // ... but a dead unfusable node does not defeat fusion
        let mut p2 = covid_pipeline();
        p2.inputs.push(PipelineInput {
            name: "extra".into(),
            kind: InputKind::Numeric,
        });
        p2.nodes.insert(
            0,
            PipelineNode {
                name: "dead_norm".into(),
                op: Operator::Normalizer(Normalizer {
                    norm: crate::ops::Norm::L1,
                }),
                inputs: vec!["extra".into()],
                output: "dead".into(),
            },
        );
        let compiled = CompiledPipeline::compile(&p2).unwrap();
        assert!(compiled.fused().is_some());
    }

    #[test]
    fn ragged_scaler_declines_to_fuse_instead_of_panicking() {
        // offsets/scales length mismatch passes Pipeline::validate (only
        // tree ensembles have operator-level validation) but errors in the
        // interpreted transform — fusion must bail, not index out of bounds
        let p = Pipeline::new(
            "ragged",
            vec![
                PipelineInput {
                    name: "x".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "y".into(),
                    kind: InputKind::Numeric,
                },
            ],
            vec![
                PipelineNode {
                    name: "scaler".into(),
                    op: Operator::Scaler(Scaler {
                        offsets: vec![1.0, 2.0],
                        scales: vec![0.5],
                    }),
                    inputs: vec!["x".into(), "y".into()],
                    output: "scaled".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::LinearRegression(crate::ops::LinearRegressionModel {
                        weights: vec![1.0, 1.0],
                        intercept: 0.0,
                    }),
                    inputs: vec!["scaled".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        assert!(compiled.fused().is_none());
        // the per-operator path still reports the interpreted error
        let b = TableBuilder::new("t")
            .add_f64("x", vec![1.0])
            .add_f64("y", vec![2.0])
            .build_batch()
            .unwrap();
        assert!(MlRuntime::new().run_batch_compiled(&compiled, &b).is_err());
    }

    #[test]
    fn missing_column_errors_match_bind_batch() {
        let p = covid_pipeline();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        let fused = compiled.fused().unwrap();
        let b = TableBuilder::new("t")
            .add_f64("age", vec![1.0])
            .build_batch()
            .unwrap();
        assert!(matches!(
            fused.bind(&b).unwrap_err(),
            MlError::MissingInput(_)
        ));
    }

    #[test]
    fn numeric_one_hot_source_matches_interpreted() {
        // one-hot over a *numeric* input (format_numeric_category semantics)
        let p = Pipeline::new(
            "numcat",
            vec![PipelineInput {
                name: "v".into(),
                kind: InputKind::Numeric,
            }],
            vec![
                PipelineNode {
                    name: "ohe".into(),
                    op: Operator::OneHotEncoder(OneHotEncoder {
                        categories: vec!["1".into(), "2.5".into(), "NaN".into()],
                    }),
                    inputs: vec!["v".into()],
                    output: "enc".into(),
                },
                PipelineNode {
                    name: "model".into(),
                    op: Operator::LinearRegression(crate::ops::LinearRegressionModel {
                        weights: vec![1.0, 10.0, 100.0],
                        intercept: 0.0,
                    }),
                    inputs: vec!["enc".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();
        let compiled = CompiledPipeline::compile(&p).unwrap();
        let fused = compiled.fused().expect("numeric one-hot fuses");
        let b = TableBuilder::new("t")
            .add_f64("v", vec![1.0, 2.5, f64::NAN, -0.0, 7.0])
            .build_batch()
            .unwrap();
        let rt = MlRuntime::new();
        let inputs = bind_batch(&p, &b).unwrap();
        let expected = rt.run(&p, &inputs).unwrap();
        let expected = expected.as_numeric().unwrap();
        let mut got = Vec::new();
        fused.bind(&b).unwrap().score_range(0, 5, &mut got).unwrap();
        for (r, g) in got.iter().enumerate() {
            assert_eq!(expected.get(r, 0).to_bits(), g.to_bits(), "row {r}");
        }
    }

    #[test]
    fn force_fusion_toggle() {
        assert!(fusion_active());
        force_fusion(Some(false));
        assert!(!fusion_active());
        force_fusion(None);
        assert!(fusion_active());
    }
}
