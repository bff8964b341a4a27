//! The ML runtime: batch evaluation of trained pipelines.
//!
//! Plays the role of ONNX Runtime (and of the Python-UDF boundary that
//! surrounds it in Spark, §6/§7.4). The runtime binds relational batches to
//! pipeline inputs and evaluates the operator DAG node by node, in chunks of
//! `batch_size` rows.

use crate::compiled::CompiledPipeline;
use crate::error::{MlError, Result};
use crate::frame::{FrameValue, Matrix, StringMatrix};
use crate::kernels::FusedPipeline;
use crate::ops::{format_numeric_category, FlatEnsemble, Operator};
use crate::pipeline::{InputKind, Pipeline};
use raven_columnar::{Batch, Column, ColumnarError, DataType, Field, SelectionVector};
use std::collections::HashMap;
use std::sync::Arc;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Rows per batch when evaluating large inputs (the paper's UDF batches
    /// 10k rows by default).
    pub batch_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { batch_size: 10_000 }
    }
}

/// The batch ML runtime.
#[derive(Debug, Clone, Default)]
pub struct MlRuntime {
    config: RuntimeConfig,
}

impl MlRuntime {
    /// Runtime with the default configuration.
    pub fn new() -> Self {
        MlRuntime::default()
    }

    /// Runtime with an explicit configuration.
    pub fn with_config(config: RuntimeConfig) -> Self {
        MlRuntime { config }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Evaluate a pipeline over already-bound input values. All inputs must
    /// have the same row count.
    pub fn run(
        &self,
        pipeline: &Pipeline,
        inputs: &HashMap<String, FrameValue>,
    ) -> Result<FrameValue> {
        let rows = inputs
            .values()
            .next()
            .map(|v| v.rows())
            .or(Some(0))
            .unwrap_or(0);
        for (name, v) in inputs {
            if v.rows() != rows {
                return Err(MlError::ShapeMismatch(format!(
                    "input {name} has {} rows, expected {rows}",
                    v.rows()
                )));
            }
        }
        self.evaluate_graph(pipeline, inputs, rows, None)
    }

    /// Evaluate a pipeline over a relational batch, binding pipeline inputs to
    /// batch columns by name. Large batches are processed in chunks of
    /// `batch_size` rows like the paper's vectorized UDF. Every operator is
    /// interpreted, with no compiled kernel: this is the parity oracle for
    /// [`MlRuntime::run_batch_compiled`].
    pub fn run_batch(&self, pipeline: &Pipeline, batch: &Batch) -> Result<Vec<f64>> {
        self.chunked_scores(pipeline, batch, None)
    }

    /// [`MlRuntime::run_batch`] over a [`CompiledPipeline`]: identical
    /// semantics, but the fused featurize→score pass runs when the pipeline
    /// fused, and tree-ensemble nodes run the flattened block-at-a-time
    /// kernels when it did not.
    pub fn run_batch_compiled(
        &self,
        compiled: &CompiledPipeline,
        batch: &Batch,
    ) -> Result<Vec<f64>> {
        if let Some(fused) = compiled.fused() {
            return self.fused_scores(fused, batch, None);
        }
        self.chunked_scores(compiled.pipeline(), batch, Some(compiled.flat_scorers()))
    }

    /// Score a batch (or its selected rows) through the fused pipeline: one
    /// pass over the source columns per block produces feature-major lanes
    /// the model kernel consumes in place. Chunked by `batch_size`, like the
    /// per-operator path.
    fn fused_scores(
        &self,
        fused: &FusedPipeline,
        batch: &Batch,
        indices: Option<&[u32]>,
    ) -> Result<Vec<f64>> {
        if batch.num_rows() == 0 {
            return Ok(Vec::new());
        }
        let bound = fused.bind(batch)?;
        let step = self.config.batch_size.max(1);
        match indices {
            None => {
                let total = batch.num_rows();
                let mut out = Vec::with_capacity(total);
                let mut start = 0;
                while start < total {
                    let len = step.min(total - start);
                    bound.score_range(start, len, &mut out)?;
                    start += len;
                }
                Ok(out)
            }
            Some(indices) => {
                let mut out = Vec::with_capacity(indices.len());
                for chunk in indices.chunks(step) {
                    bound.score_gathered(chunk, &mut out)?;
                }
                Ok(out)
            }
        }
    }

    fn chunked_scores(
        &self,
        pipeline: &Pipeline,
        batch: &Batch,
        flat: Option<&HashMap<String, Arc<FlatEnsemble>>>,
    ) -> Result<Vec<f64>> {
        if batch.num_rows() == 0 {
            return Ok(Vec::new());
        }
        let mut scores = Vec::with_capacity(batch.num_rows());
        let chunks = batch
            .chunks(self.config.batch_size.max(1))
            .map_err(MlError::from)?;
        for chunk in chunks {
            let inputs = bind_batch(pipeline, &chunk)?;
            self.score_chunk(pipeline, &inputs, chunk.num_rows(), flat, &mut scores)?;
        }
        Ok(scores)
    }

    /// Evaluate the graph over one bound chunk and append its single output
    /// column to `out`.
    fn score_chunk(
        &self,
        pipeline: &Pipeline,
        inputs: &HashMap<String, FrameValue>,
        rows: usize,
        flat: Option<&HashMap<String, Arc<FlatEnsemble>>>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let value = self.evaluate_graph(pipeline, inputs, rows, flat)?;
        let m = value.as_numeric()?;
        if m.cols() != 1 {
            return Err(MlError::ShapeMismatch(format!(
                "pipeline output has {} columns, expected 1",
                m.cols()
            )));
        }
        out.extend_from_slice(m.data());
        Ok(())
    }

    /// Score only the **selected** rows of a batch and append the scores as a
    /// full-length `Float64` column (NaN on deselected rows, which stay
    /// deselected), leaving the batch's columns untouched — the zero-copy
    /// filter→score stage of a selection-vector pipeline. Selected rows are
    /// gathered straight from the source columns into pipeline inputs (the
    /// one unavoidable copy at the engine↔runtime boundary), chunked by
    /// `batch_size`; no
    /// intermediate filtered batch is ever materialized. With no selection
    /// this degrades to whole-batch scoring.
    pub fn score_batch_into_selected(
        &self,
        compiled: &CompiledPipeline,
        batch: &Batch,
        selection: Option<&SelectionVector>,
        score_column: &str,
    ) -> Result<Batch> {
        let scores = match selection.and_then(|s| s.indices()) {
            None => self.run_batch_compiled(compiled, batch)?,
            Some(indices) => {
                let packed = if let Some(fused) = compiled.fused() {
                    // fused gather: selected rows are read straight from the
                    // source columns into feature lanes
                    self.fused_scores(fused, batch, Some(indices))?
                } else {
                    let pipeline = compiled.pipeline();
                    let flat = Some(compiled.flat_scorers());
                    let mut packed = Vec::with_capacity(indices.len());
                    for chunk in indices.chunks(self.config.batch_size.max(1)) {
                        let inputs = bind_batch_gather(pipeline, batch, chunk)?;
                        self.score_chunk(pipeline, &inputs, chunk.len(), flat, &mut packed)?;
                    }
                    packed
                };
                // scatter the packed scores back to source-row positions
                let mut full = vec![f64::NAN; batch.num_rows()];
                for (&row, &score) in indices.iter().zip(packed.iter()) {
                    full[row as usize] = score;
                }
                full
            }
        };
        batch
            .with_column(
                Field::new(score_column, DataType::Float64),
                Arc::new(Column::Float64(scores)),
            )
            .map_err(MlError::from)
    }

    /// Row-at-a-time interpreted evaluation (the SparkML-style baseline used
    /// in §7.1.1's comparison): binds and evaluates the pipeline one row at a
    /// time, paying the full graph-interpretation overhead per row.
    pub fn run_batch_row_interpreted(
        &self,
        pipeline: &Pipeline,
        batch: &Batch,
    ) -> Result<Vec<f64>> {
        let mut scores = Vec::with_capacity(batch.num_rows());
        for row in 0..batch.num_rows() {
            let single = batch.slice(row, 1).map_err(MlError::from)?;
            let inputs = bind_batch(pipeline, &single)?;
            let out = self.evaluate_graph(pipeline, &inputs, 1, None)?;
            scores.push(out.as_numeric()?.get(0, 0));
        }
        Ok(scores)
    }

    fn evaluate_graph(
        &self,
        pipeline: &Pipeline,
        inputs: &HashMap<String, FrameValue>,
        rows: usize,
        flat: Option<&HashMap<String, Arc<FlatEnsemble>>>,
    ) -> Result<FrameValue> {
        pipeline.validate_structure()?;
        let mut values: HashMap<&str, FrameValue> =
            HashMap::with_capacity(pipeline.nodes.len() + inputs.len());
        for input in &pipeline.inputs {
            let v = inputs.get(&input.name).ok_or_else(|| {
                MlError::MissingInput(format!("pipeline input {} not bound", input.name))
            })?;
            values.insert(input.name.as_str(), v.clone());
        }
        for node in &pipeline.nodes {
            let in_values: Vec<&FrameValue> = node
                .inputs
                .iter()
                .map(|name| {
                    values
                        .get(name.as_str())
                        .ok_or_else(|| MlError::MissingInput(name.clone()))
                })
                .collect::<Result<Vec<_>>>()?;
            // A tree-ensemble node with a compiled kernel bypasses the
            // interpreted operator dispatch entirely: the flattened SoA
            // arrays are scored block-at-a-time over the feature matrix.
            let flat_scorer = flat.and_then(|m| m.get(node.name.as_str()));
            let output = if let Some(scorer) = flat_scorer {
                let merged;
                let m: &Matrix = if in_values.len() > 1 {
                    merged = crate::ops::concat(&in_values)?;
                    &merged
                } else {
                    in_values
                        .first()
                        .ok_or_else(|| {
                            MlError::MissingInput(format!("{} input 0", node.op.name()))
                        })?
                        .as_numeric()?
                };
                FrameValue::Numeric(scorer.predict(m)?)
            } else if in_values.len() > 1 && !matches!(node.op, Operator::Concat) {
                // Operators that consume a single numeric matrix accept
                // multiple numeric inputs by implicit horizontal
                // concatenation (this is how e.g. the Scaler of Fig. 3 is
                // fed both `age` and `bpm`).
                let merged = crate::ops::concat(&in_values)?;
                node.op.apply(&[&FrameValue::Numeric(merged)], rows)?
            } else {
                node.op.apply(&in_values, rows)?
            };
            values.insert(node.output.as_str(), output);
        }
        values
            .remove(pipeline.output.as_str())
            .ok_or_else(|| MlError::InvalidPipeline("output value missing".into()))
    }
}

/// Bind the columns of a batch to the inputs of a pipeline (by name).
pub fn bind_batch(pipeline: &Pipeline, batch: &Batch) -> Result<HashMap<String, FrameValue>> {
    let mut out = HashMap::with_capacity(pipeline.inputs.len());
    for input in &pipeline.inputs {
        let col = batch
            .column_by_name(&input.name)
            .map_err(|_| MlError::MissingInput(format!("column {} not in batch", input.name)))?;
        out.insert(input.name.clone(), column_to_frame(col, input.kind)?);
    }
    Ok(out)
}

/// Bind pipeline inputs by gathering only the rows at `indices` straight
/// from the batch's columns — the zero-copy filter→score boundary: no
/// intermediate filtered batch exists, the single copy lands directly in the
/// runtime's input representation.
pub fn bind_batch_gather(
    pipeline: &Pipeline,
    batch: &Batch,
    indices: &[u32],
) -> Result<HashMap<String, FrameValue>> {
    let mut out = HashMap::with_capacity(pipeline.inputs.len());
    for input in &pipeline.inputs {
        let col = batch
            .column_by_name(&input.name)
            .map_err(|_| MlError::MissingInput(format!("column {} not in batch", input.name)))?;
        out.insert(
            input.name.clone(),
            column_to_frame_gather(col, input.kind, indices)?,
        );
    }
    Ok(out)
}

/// [`column_to_frame`] restricted to the rows at `indices`.
pub fn column_to_frame_gather(
    column: &Column,
    kind: InputKind,
    indices: &[u32],
) -> Result<FrameValue> {
    match kind {
        InputKind::Numeric => {
            let values: Vec<f64> = match column {
                Column::Float64(v) => indices.iter().map(|&i| v[i as usize]).collect(),
                Column::Int64(v) => indices.iter().map(|&i| v[i as usize] as f64).collect(),
                Column::Boolean(v) => indices
                    .iter()
                    .map(|&i| if v[i as usize] { 1.0 } else { 0.0 })
                    .collect(),
                Column::Utf8(_) => {
                    return Err(MlError::from(ColumnarError::TypeMismatch {
                        expected: "numeric".into(),
                        found: "Utf8".into(),
                    }))
                }
            };
            Ok(FrameValue::Numeric(Matrix::from_column(&values)))
        }
        InputKind::Categorical => {
            let strings: Vec<String> = match column {
                Column::Utf8(v) => indices.iter().map(|&i| v[i as usize].clone()).collect(),
                Column::Int64(v) => indices.iter().map(|&i| v[i as usize].to_string()).collect(),
                Column::Boolean(v) => indices
                    .iter()
                    .map(|&i| (v[i as usize] as i64).to_string())
                    .collect(),
                Column::Float64(v) => indices
                    .iter()
                    .map(|&i| format_numeric_category(v[i as usize]))
                    .collect(),
            };
            Ok(FrameValue::Strings(StringMatrix::from_column(&strings)))
        }
    }
}

/// Convert one relational column into a pipeline input value.
pub fn column_to_frame(column: &Column, kind: InputKind) -> Result<FrameValue> {
    match kind {
        InputKind::Numeric => Ok(FrameValue::Numeric(Matrix::from_column(
            &column.to_f64_vec()?,
        ))),
        InputKind::Categorical => {
            let strings: Vec<String> = match column {
                Column::Utf8(v) => v.clone(),
                Column::Int64(v) => v.iter().map(|x| x.to_string()).collect(),
                Column::Boolean(v) => v.iter().map(|b| (*b as i64).to_string()).collect(),
                Column::Float64(v) => v.iter().map(|x| format_numeric_category(*x)).collect(),
            };
            Ok(FrameValue::Strings(StringMatrix::from_column(&strings)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{OneHotEncoder, Operator, Scaler, Tree, TreeEnsemble, TreeNode};
    use crate::pipeline::{PipelineInput, PipelineNode};
    use raven_columnar::TableBuilder;

    fn pipeline() -> Pipeline {
        Pipeline::new(
            "m",
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
                    name: "scaler".into(),
                    op: Operator::Scaler(Scaler {
                        offsets: vec![0.0, 0.0],
                        scales: vec![1.0, 1.0],
                    }),
                    inputs: vec!["age".into(), "bmi".into()],
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
                    name: "tree".into(),
                    op: Operator::TreeEnsemble(TreeEnsemble::single_tree(
                        Tree {
                            nodes: vec![
                                TreeNode::Branch {
                                    feature: 3,
                                    threshold: 0.5,
                                    left: 1,
                                    right: 2,
                                },
                                TreeNode::Leaf { value: 0.0 },
                                TreeNode::Branch {
                                    feature: 0,
                                    threshold: 60.0,
                                    left: 3,
                                    right: 4,
                                },
                                TreeNode::Leaf { value: 0.2 },
                                TreeNode::Leaf { value: 0.9 },
                            ],
                            root: 0,
                        },
                        4,
                    )),
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
            .add_f64("age", vec![70.0, 40.0, 65.0])
            .add_f64("bmi", vec![22.0, 30.0, 25.0])
            .add_i64("asthma", vec![1, 0, 1])
            .add_f64("other", vec![0.0, 0.0, 0.0])
            .build_batch()
            .unwrap()
    }

    #[test]
    fn run_batch_scores() {
        let rt = MlRuntime::new();
        let scores = rt.run_batch(&pipeline(), &batch()).unwrap();
        assert_eq!(scores, vec![0.9, 0.0, 0.9]);
    }

    #[test]
    fn run_batch_chunked_matches_unchunked() {
        let cfg = RuntimeConfig { batch_size: 2 };
        let chunked = MlRuntime::with_config(cfg)
            .run_batch(&pipeline(), &batch())
            .unwrap();
        let whole = MlRuntime::new().run_batch(&pipeline(), &batch()).unwrap();
        assert_eq!(chunked, whole);
    }

    #[test]
    fn row_interpreted_matches_vectorized() {
        let rt = MlRuntime::new();
        let a = rt.run_batch(&pipeline(), &batch()).unwrap();
        let b = rt.run_batch_row_interpreted(&pipeline(), &batch()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_batch_scores_empty() {
        let rt = MlRuntime::new();
        let empty = batch().slice(0, 0).unwrap();
        assert_eq!(
            rt.run_batch(&pipeline(), &empty).unwrap(),
            Vec::<f64>::new()
        );
    }

    #[test]
    fn missing_column_is_error() {
        let rt = MlRuntime::new();
        let bad = TableBuilder::new("t")
            .add_f64("age", vec![1.0])
            .build_batch()
            .unwrap();
        assert!(matches!(
            rt.run_batch(&pipeline(), &bad).unwrap_err(),
            MlError::MissingInput(_)
        ));
    }

    #[test]
    fn run_with_prebound_inputs() {
        let rt = MlRuntime::new();
        let b = batch();
        let inputs = bind_batch(&pipeline(), &b).unwrap();
        let out = rt.run(&pipeline(), &inputs).unwrap();
        assert_eq!(out.as_numeric().unwrap().column(0), vec![0.9, 0.0, 0.9]);
    }

    #[test]
    fn mismatched_input_rows_rejected() {
        let rt = MlRuntime::new();
        let mut inputs = bind_batch(&pipeline(), &batch()).unwrap();
        inputs.insert(
            "age".into(),
            FrameValue::Numeric(Matrix::from_column(&[1.0])),
        );
        assert!(rt.run(&pipeline(), &inputs).is_err());
    }

    #[test]
    fn categorical_binding_from_int_and_string() {
        let enc = OneHotEncoder {
            categories: vec!["0".into(), "1".into()],
        };
        let col = Column::Int64(vec![0, 1]);
        let v = column_to_frame(&col, InputKind::Categorical).unwrap();
        let m = enc.transform(&v).unwrap();
        assert_eq!(m.row(1), &[0.0, 1.0]);

        let col = Column::Float64(vec![1.0]);
        let v = column_to_frame(&col, InputKind::Categorical).unwrap();
        assert_eq!(v.as_strings().unwrap().get(0, 0), "1");

        let col = Column::Utf8(vec!["1".into()]);
        let v = column_to_frame(&col, InputKind::Categorical).unwrap();
        assert_eq!(v.as_strings().unwrap().get(0, 0), "1");
    }
}
