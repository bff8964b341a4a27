//! Pipelines with pre-compiled scoring kernels.
//!
//! A [`CompiledPipeline`] pairs a validated [`Pipeline`] with the flattened
//! struct-of-arrays scorer ([`FlatEnsemble`]) of every tree-ensemble node
//! **and**, whenever the pipeline's shape allows it, the fully fused
//! featurize→score pass ([`FusedPipeline`]) — featurizer chain folded into
//! the feature-lane transpose, model kernel fed finished lanes — all
//! compiled once. This is the form a prepared statement carries: the
//! expensive per-query-shape work (validation, feature-bound checking,
//! arena flattening, lane-program resolution, category-table construction)
//! happens at prepare time, and every execution runs only the tight
//! block-at-a-time kernels. The interpreted operator graph remains
//! available as the parity baseline (`MlRuntime::run_batch` over the bare
//! [`Pipeline`]), and the per-operator compiled path as the fusion baseline
//! ([`CompiledPipeline::per_operator`]).

use crate::error::Result;
use crate::kernels::FusedPipeline;
use crate::ops::{FlatEnsemble, Operator};
use crate::pipeline::Pipeline;
use std::collections::HashMap;
use std::sync::Arc;

/// A pipeline plus its compiled kernels: the flattened scorer of each
/// tree-ensemble node (keyed by node name) and the optional fused
/// featurize→score pass. Cloning is cheap (everything is behind `Arc`s).
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    pipeline: Arc<Pipeline>,
    flat: Arc<HashMap<String, Arc<FlatEnsemble>>>,
    fused: Option<Arc<FusedPipeline>>,
}

impl CompiledPipeline {
    /// Validate the pipeline and compile every tree-ensemble node.
    pub fn compile(pipeline: &Pipeline) -> Result<CompiledPipeline> {
        CompiledPipeline::from_arc(Arc::new(pipeline.clone()))
    }

    /// [`CompiledPipeline::compile`] over an already-shared pipeline.
    pub fn from_arc(pipeline: Arc<Pipeline>) -> Result<CompiledPipeline> {
        pipeline.validate()?;
        let mut flat = HashMap::new();
        for node in &pipeline.nodes {
            if let Operator::TreeEnsemble(e) = &node.op {
                flat.insert(node.name.clone(), Arc::new(FlatEnsemble::compile(e)?));
            }
        }
        let fused = FusedPipeline::compile(&pipeline, &flat).map(Arc::new);
        // Artifact verification (debug builds / RAVEN_VERIFY=strict): the
        // fused lane programs must reference only real source inputs and
        // lanes — see FusedPipeline::verify. FlatEnsemble::compile already
        // self-checked each scorer above.
        if let Some(f) = &fused {
            if cfg!(debug_assertions) || raven_columnar::envcfg::verify_strict() {
                f.verify()?;
            }
        }
        Ok(CompiledPipeline {
            pipeline,
            flat: Arc::new(flat),
            fused,
        })
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Arc<Pipeline> {
        &self.pipeline
    }

    /// The flattened scorers, keyed by node name.
    pub fn flat_scorers(&self) -> &HashMap<String, Arc<FlatEnsemble>> {
        &self.flat
    }

    /// The fused featurize→score pass, when the pipeline's shape fused.
    pub fn fused(&self) -> Option<&Arc<FusedPipeline>> {
        self.fused.as_ref()
    }

    /// The same pipeline and flattened scorers without the fused pass, so
    /// scoring takes the per-operator path (featurizers interpreted, tree
    /// nodes on the flat kernels): the fusion A/B baseline.
    pub fn per_operator(&self) -> CompiledPipeline {
        CompiledPipeline {
            fused: None,
            ..self.clone()
        }
    }

    /// How many nodes have a compiled kernel.
    pub fn compiled_nodes(&self) -> usize {
        self.flat.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Tree, TreeEnsemble, TreeNode};
    use crate::pipeline::{InputKind, PipelineInput, PipelineNode};

    #[test]
    fn compile_collects_tree_nodes_and_validates() {
        let tree = Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 1.0 },
            ],
            root: 0,
        };
        let p = Pipeline::new(
            "m",
            vec![PipelineInput {
                name: "x".into(),
                kind: InputKind::Numeric,
            }],
            vec![PipelineNode {
                name: "model".into(),
                op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree.clone(), 1)),
                inputs: vec!["x".into()],
                output: "score".into(),
            }],
            "score",
        )
        .unwrap();
        let c = CompiledPipeline::compile(&p).unwrap();
        assert_eq!(c.compiled_nodes(), 1);
        assert!(c.flat_scorers().contains_key("model"));

        // an out-of-range feature index fails compilation with a typed error
        let mut bad = p.clone();
        bad.nodes[0].op = Operator::TreeEnsemble(TreeEnsemble::single_tree(
            Tree {
                nodes: vec![
                    TreeNode::Branch {
                        feature: 9,
                        threshold: 1.0,
                        left: 1,
                        right: 2,
                    },
                    TreeNode::Leaf { value: 0.0 },
                    TreeNode::Leaf { value: 1.0 },
                ],
                root: 0,
            },
            1,
        ));
        assert!(CompiledPipeline::compile(&bad).is_err());

        // cyclic and dangling node graphs are rejected with a typed error
        // through the real entry point (validation must terminate and fail
        // before any query-path walker can hang or panic on them)
        for (left, right) in [(0usize, 0usize), (5, 5)] {
            let mut invalid = p.clone();
            invalid.nodes[0].op = Operator::TreeEnsemble(TreeEnsemble::single_tree(
                Tree {
                    nodes: vec![TreeNode::Branch {
                        feature: 0,
                        threshold: 0.0,
                        left,
                        right,
                    }],
                    root: 0,
                },
                1,
            ));
            let err = CompiledPipeline::compile(&invalid).unwrap_err();
            assert!(
                matches!(err, crate::error::MlError::InvalidModel(_)),
                "{err}"
            );
        }
    }
}
