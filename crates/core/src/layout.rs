//! Feature layout analysis.
//!
//! Raven's cross-optimizations need to know, for each *pipeline input* (a raw
//! data column), which *feature indices* of the model's input vector it ends
//! up in and through which featurizer it travels. This module derives that
//! mapping from the pipeline graph: it walks the producers of the model's
//! input value (Concat blocks, Scalers, OneHotEncoders, raw pass-throughs)
//! and records, per input, the feature positions and the transformation
//! needed to push predicate constants through (paper §4.1, Step 2).

use crate::error::{RavenError, Result};
use raven_columnar::{Interval, Value};
use raven_ml::{format_numeric_category, Operator, Pipeline};
use raven_relational::ColumnBox;
use std::collections::BTreeMap;

/// How a pipeline input maps to feature positions of the model input vector.
#[derive(Debug, Clone, PartialEq)]
pub enum InputMapping {
    /// The input feeds one numeric feature through an affine scaler:
    /// `feature = (input - offset) * scale`.
    Affine {
        feature: usize,
        offset: f64,
        scale: f64,
    },
    /// The input feeds one numeric feature unchanged.
    Identity { feature: usize },
    /// The input is one-hot encoded: feature `i` is 1 iff the input equals
    /// `categories[i]`.
    OneHot {
        features: Vec<usize>,
        categories: Vec<String>,
    },
    /// The input reaches the model through operators we do not analyze
    /// (normalizers, binarizers, ...); predicate-based pruning skips it.
    Opaque { features: Vec<usize> },
}

impl InputMapping {
    /// All feature indices this input feeds.
    pub fn feature_indices(&self) -> Vec<usize> {
        match self {
            InputMapping::Affine { feature, .. } | InputMapping::Identity { feature } => {
                vec![*feature]
            }
            InputMapping::OneHot { features, .. } | InputMapping::Opaque { features } => {
                features.clone()
            }
        }
    }
}

/// The complete feature layout of a pipeline.
#[derive(Debug, Clone, Default)]
pub struct FeatureLayout {
    /// Per pipeline-input mapping.
    pub inputs: BTreeMap<String, InputMapping>,
    /// Total feature-vector width seen by the model.
    pub width: usize,
}

impl FeatureLayout {
    /// Analyze a pipeline. Returns an error when the pipeline has no model
    /// node; unknown sub-graph shapes yield [`InputMapping::Opaque`] entries.
    pub fn analyze(pipeline: &Pipeline) -> Result<FeatureLayout> {
        let model = pipeline.model_node().ok_or_else(|| {
            RavenError::RuleNotApplicable("pipeline has no model operator".into())
        })?;
        let widths = pipeline.value_widths();
        let mut layout = FeatureLayout::default();
        let mut offset = 0usize;
        for value in &model.inputs {
            let w = widths.get(value).copied().unwrap_or(0);
            analyze_value(pipeline, value, offset, w, &mut layout);
            offset += w;
        }
        layout.width = offset;
        Ok(layout)
    }

    /// The mapping for one input, if known.
    pub fn input(&self, name: &str) -> Option<&InputMapping> {
        self.inputs.get(name)
    }

    /// Map a column box to the model's feature space (paper §4.1 Step 2),
    /// for predicate-based and data-induced pruning alike. An affine or
    /// identity input carries its interval through `(x - offset) * scale`,
    /// NaN flag included (NaN stays NaN); a one-hot input whose value is
    /// known pins its whole block to exact 0/1 constants; opaque inputs and
    /// columns the box does not name stay unconstrained.
    pub fn feature_box(&self, columns: &ColumnBox) -> BTreeMap<usize, Interval> {
        let mut features = BTreeMap::new();
        for (input, mapping) in &self.inputs {
            let Some(domain) = columns.get(input) else {
                continue;
            };
            match mapping {
                InputMapping::Affine {
                    feature,
                    offset,
                    scale,
                } => {
                    let Interval { lo, hi, may_be_nan } = domain.interval;
                    let (a, b) = ((lo - offset) * scale, (hi - offset) * scale);
                    // a negative scale reverses the bounds; an empty
                    // interval stays empty
                    let (lo, hi) = if *scale < 0.0 { (b, a) } else { (a, b) };
                    features.insert(*feature, Interval { lo, hi, may_be_nan });
                }
                InputMapping::Identity { feature } => {
                    features.insert(*feature, domain.interval);
                }
                InputMapping::OneHot {
                    features: block,
                    categories,
                } => {
                    let Some(value) = &domain.value else {
                        continue;
                    };
                    let category = match value {
                        Value::Utf8(s) => s.clone(),
                        other => other
                            .as_f64()
                            .map(format_numeric_category)
                            .unwrap_or_default(),
                    };
                    for (feature, c) in block.iter().zip(categories) {
                        let v = if *c == category { 1.0 } else { 0.0 };
                        let point = Interval {
                            lo: v,
                            hi: v,
                            may_be_nan: false,
                        };
                        features.insert(*feature, point);
                    }
                }
                InputMapping::Opaque { .. } => {}
            }
        }
        features
    }

    /// Inputs that feed at least one of the given feature indices.
    pub fn inputs_feeding(&self, features: &[usize]) -> Vec<&str> {
        self.inputs
            .iter()
            .filter(|(_, m)| m.feature_indices().iter().any(|f| features.contains(f)))
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

fn analyze_value(
    pipeline: &Pipeline,
    value: &str,
    offset: usize,
    width: usize,
    layout: &mut FeatureLayout,
) {
    // Raw pipeline input used directly as a feature column.
    if pipeline.input(value).is_some() {
        layout.inputs.insert(
            value.to_string(),
            InputMapping::Identity { feature: offset },
        );
        return;
    }
    let Some(node) = pipeline.producer(value) else {
        return;
    };
    let widths = pipeline.value_widths();
    match &node.op {
        Operator::Concat => {
            let mut child_offset = offset;
            for input in &node.inputs {
                let w = widths.get(input).copied().unwrap_or(0);
                analyze_value(pipeline, input, child_offset, w, layout);
                child_offset += w;
            }
        }
        Operator::Scaler(scaler) => {
            // Scaler inputs are individual numeric columns (possibly several),
            // each contributing one feature, in order.
            let mut col = 0usize;
            for input in &node.inputs {
                let w = widths.get(input).copied().unwrap_or(1);
                if pipeline.input(input).is_some() && w == 1 && col < scaler.width() {
                    layout.inputs.insert(
                        input.clone(),
                        InputMapping::Affine {
                            feature: offset + col,
                            offset: scaler.offsets[col],
                            scale: scaler.scales[col],
                        },
                    );
                } else {
                    mark_opaque(pipeline, input, offset + col, w, layout);
                }
                col += w;
            }
        }
        Operator::OneHotEncoder(enc) => {
            let features: Vec<usize> = (offset..offset + enc.width()).collect();
            if let Some(input) = node.inputs.first() {
                if pipeline.input(input).is_some() {
                    layout.inputs.insert(
                        input.clone(),
                        InputMapping::OneHot {
                            features,
                            categories: enc.categories.clone(),
                        },
                    );
                } else {
                    mark_opaque(pipeline, input, offset, enc.width(), layout);
                }
            }
        }
        Operator::Constant(_) => {
            // constants have no corresponding data input
        }
        _ => {
            // Imputer, Binarizer, Normalizer, FeatureExtractor, nested models:
            // mark every raw input reachable from here as opaque over this block.
            for input in &node.inputs {
                let w = widths.get(input).copied().unwrap_or(width);
                mark_opaque(pipeline, input, offset, w.max(1), layout);
            }
        }
    }
}

fn mark_opaque(
    pipeline: &Pipeline,
    value: &str,
    offset: usize,
    width: usize,
    layout: &mut FeatureLayout,
) {
    if pipeline.input(value).is_some() {
        layout.inputs.insert(
            value.to_string(),
            InputMapping::Opaque {
                features: (offset..offset + width).collect(),
            },
        );
        return;
    }
    if let Some(node) = pipeline.producer(value) {
        for input in &node.inputs {
            mark_opaque(pipeline, input, offset, width, layout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_ml::{
        InputKind, Norm, Normalizer, OneHotEncoder, Operator, PipelineInput, PipelineNode, Scaler,
        Tree, TreeEnsemble,
    };

    fn pipeline() -> Pipeline {
        Pipeline::new(
            "m",
            vec![
                PipelineInput {
                    name: "age".into(),
                    kind: InputKind::Numeric,
                },
                PipelineInput {
                    name: "bpm".into(),
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
                        offsets: vec![50.0, 70.0],
                        scales: vec![0.1, 0.2],
                    }),
                    inputs: vec!["age".into(), "bpm".into()],
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
                    op: Operator::TreeEnsemble(TreeEnsemble::single_tree(Tree::leaf(1.0), 4)),
                    inputs: vec!["features".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap()
    }

    #[test]
    fn standard_layout() {
        let layout = FeatureLayout::analyze(&pipeline()).unwrap();
        assert_eq!(layout.width, 4);
        assert_eq!(
            layout.input("age"),
            Some(&InputMapping::Affine {
                feature: 0,
                offset: 50.0,
                scale: 0.1
            })
        );
        assert_eq!(
            layout.input("bpm"),
            Some(&InputMapping::Affine {
                feature: 1,
                offset: 70.0,
                scale: 0.2
            })
        );
        assert_eq!(
            layout.input("asthma"),
            Some(&InputMapping::OneHot {
                features: vec![2, 3],
                categories: vec!["0".into(), "1".into()]
            })
        );
        assert_eq!(layout.inputs_feeding(&[0]), vec!["age"]);
        assert_eq!(layout.inputs_feeding(&[2]), vec!["asthma"]);
    }

    #[test]
    fn opaque_for_unanalyzed_operators() {
        let mut p = pipeline();
        // insert a normalizer between concat and model
        p.nodes.insert(
            3,
            PipelineNode {
                name: "norm".into(),
                op: Operator::Normalizer(Normalizer { norm: Norm::L2 }),
                inputs: vec!["features".into()],
                output: "normed".into(),
            },
        );
        p.nodes[4].inputs = vec!["normed".into()];
        p.validate().unwrap();
        let layout = FeatureLayout::analyze(&p).unwrap();
        assert!(matches!(
            layout.input("age"),
            Some(InputMapping::Opaque { .. })
        ));
    }

    #[test]
    fn direct_input_is_identity() {
        let p = Pipeline::new(
            "m",
            vec![PipelineInput {
                name: "x".into(),
                kind: InputKind::Numeric,
            }],
            vec![PipelineNode {
                name: "model".into(),
                op: Operator::TreeEnsemble(TreeEnsemble::single_tree(Tree::leaf(0.0), 1)),
                inputs: vec!["x".into()],
                output: "score".into(),
            }],
            "score",
        )
        .unwrap();
        let layout = FeatureLayout::analyze(&p).unwrap();
        assert_eq!(
            layout.input("x"),
            Some(&InputMapping::Identity { feature: 0 })
        );
        assert_eq!(layout.width, 1);
    }
}
