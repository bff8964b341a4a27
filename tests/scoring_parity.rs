//! Property tests for the vectorized scoring kernels (PR 4 + PR 5): the
//! flattened struct-of-arrays scorer must be **bit-identical** to the
//! interpreted row-walker across every ensemble kind, random tree shapes,
//! NaN/missing feature values, and empty inputs; the fused featurize→score
//! pass must be bit-identical to the per-operator interpreted path across
//! featurizer stacks × unknown/NaN categories × empty batches × all three
//! linear models; and selection-vector execution must produce row-identical
//! results to the materializing baseline, with zero intermediate batch
//! copies.

use proptest::prelude::*;
use raven_columnar::TableBuilder;
use raven_ml::{EnsembleKind, FlatEnsemble, Matrix, Tree, TreeEnsemble, TreeNode};
use raven_relational::{col, lit, ExecutionContext, Executor, LogicalPlan};

mod common;
mod model_inputs;

/// Build a random binary tree over `n_features` features with the given
/// depth budget. `shape` drives all structural choices deterministically.
fn random_tree(shape: u64, n_features: usize, max_depth: usize) -> Tree {
    fn grow(
        nodes: &mut Vec<TreeNode>,
        shape: &mut u64,
        n_features: usize,
        depth_left: usize,
    ) -> usize {
        // Every choice reads its own bits of the well-mixed upper half (the
        // low bits of the odd state are always 1).
        let draw = *shape >> 32;
        *shape = shape.rotate_right(7).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        // leaf values include 0.0, -0.0, and negatives to pin sign handling
        if depth_left == 0 || draw & 0xf < 5 {
            let value = match (draw >> 4) % 5 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0,
                3 => -2.5,
                _ => 0.25,
            };
            nodes.push(TreeNode::Leaf { value });
            return nodes.len() - 1;
        }
        let feature = ((draw >> 8) as usize) % n_features;
        let threshold = match (draw >> 16) % 4 {
            0 => 0.0,
            1 => -1.0,
            2 => 42.5,
            _ => 7.0,
        };
        let pos = nodes.len();
        nodes.push(TreeNode::Leaf { value: 0.0 }); // placeholder
        let left = grow(nodes, shape, n_features, depth_left - 1);
        let right = grow(nodes, shape, n_features, depth_left - 1);
        nodes[pos] = TreeNode::Branch {
            feature,
            threshold,
            left,
            right,
        };
        pos
    }
    let mut nodes = Vec::new();
    let mut s = (shape | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let root = grow(&mut nodes, &mut s, n_features, max_depth);
    Tree { nodes, root }
}

fn all_kinds() -> [EnsembleKind; 5] {
    [
        EnsembleKind::DecisionTreeClassifier,
        EnsembleKind::DecisionTreeRegressor,
        EnsembleKind::RandomForestClassifier,
        EnsembleKind::GradientBoostingClassifier,
        EnsembleKind::GradientBoostingRegressor,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flattened vs interpreted scoring is bit-identical for every ensemble
    /// kind × random trees × NaN/missing rows × empty batches.
    #[test]
    fn flattened_scorer_is_bit_identical(
        shape in 0u64..0xffff_ffff_ffff,
        n_trees in 0usize..5,
        n_features in 1usize..5,
        rows in 0usize..180,
        nan_stride in 2usize..6,
        learning_rate in 0.05f64..1.0,
        base_score in -1.0f64..1.0,
    ) {
        let trees: Vec<Tree> = (0..n_trees)
            .map(|t| random_tree(shape.wrapping_add(t as u64 * 7919), n_features, 4))
            .collect();
        // feature values cross every threshold the generator uses, plus NaN
        // (the in-band missing marker) at a varying stride
        let columns: Vec<Vec<f64>> = (0..n_features)
            .map(|f| {
                (0..rows)
                    .map(|r| {
                        if (r + f) % nan_stride == 0 {
                            f64::NAN
                        } else {
                            ((r * 13 + f * 29) % 101) as f64 - 50.0
                        }
                    })
                    .collect()
            })
            .collect();
        let x = Matrix::from_columns(&columns).unwrap();
        for kind in all_kinds() {
            let ensemble = TreeEnsemble {
                kind,
                trees: trees.clone(),
                n_features,
                learning_rate,
                base_score,
            };
            let flat = FlatEnsemble::compile(&ensemble).unwrap();
            let interpreted = ensemble.predict(&x).unwrap();
            let flattened = flat.predict(&x).unwrap();
            prop_assert_eq!(interpreted.rows(), flattened.rows());
            for r in 0..rows {
                prop_assert_eq!(
                    interpreted.get(r, 0).to_bits(),
                    flattened.get(r, 0).to_bits(),
                    "kind {:?}, row {}: interpreted {} vs flattened {}",
                    kind, r, interpreted.get(r, 0), flattened.get(r, 0)
                );
            }
        }
    }

    /// Selection-vector plans produce row-identical results to the
    /// materializing baseline across random filtered workloads, and only the
    /// baseline performs intermediate batch copies.
    #[test]
    fn selection_vector_plans_match_materializing_plans(
        rows in 1usize..200,
        partitions in 1usize..6,
        lo in 0i64..80,
        width in 1i64..120,
        limit_sel in 0usize..3,
    ) {
        let table = TableBuilder::new("t")
            .add_i64("id", (0..rows as i64).collect())
            .add_f64("x", (0..rows).map(|i| (i % 97) as f64).collect())
            .add_utf8(
                "tag",
                (0..rows).map(|i| ((i % 3) as i64).to_string()).collect(),
            )
            .build()
            .unwrap();
        let table = raven_columnar::partition_by_column(
            &table,
            &raven_columnar::PartitionSpec::RoundRobin {
                partitions: partitions.min(rows),
            },
        )
        .unwrap();
        let mut catalog = raven_relational::Catalog::new();
        catalog.register(table);
        let mut plan = LogicalPlan::scan("t")
            .filter(col("id").gt_eq(lit(lo)))
            .filter(col("id").lt(lit(lo + width)))
            .project(vec![col("id"), col("x"), col("tag")]);
        if limit_sel == 1 {
            plan = plan.limit((width / 2).max(1) as usize);
        }
        let run = |selection: bool| {
            let exec = Executor::new();
            let ctx = ExecutionContext {
                selection_vectors: selection,
                ..ExecutionContext::with_dop(2)
            };
            let out = exec.execute(&plan, &catalog, &ctx).unwrap();
            (out, exec.metrics().intermediate_materializations())
        };
        let (sel_out, sel_copies) = run(true);
        let (mat_out, mat_copies) = run(false);
        prop_assert_eq!(sel_copies, 0, "selection vectors must never copy mid-pipeline");
        prop_assert!(mat_copies > 0, "the baseline copies at every filter");
        prop_assert_eq!(sel_out.num_rows(), mat_out.num_rows());
        for c in 0..sel_out.num_columns() {
            prop_assert_eq!(
                format!("{:?}", sel_out.column(c).unwrap()),
                format!("{:?}", mat_out.column(c).unwrap())
            );
        }
    }

    /// End-to-end: a full prediction query with an input and an output
    /// predicate returns exactly the rows and scores of the interpreted
    /// oracle — `MlRuntime::run_batch` over the unoptimized pipeline on the
    /// filtered rows — and copies no batch mid-pipeline.
    #[test]
    fn session_scores_identically_to_the_interpreted_oracle(
        rows in 20usize..120,
        seed in 0u64..500,
        threshold in 20.0f64..90.0,
        score_cut in 0.0f64..1.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let table = TableBuilder::new("patients")
            .add_i64("id", (0..rows as i64).collect())
            .add_f64("age", (0..rows).map(|_| rng.gen_range(18.0..95.0)).collect())
            .add_f64("rcount", (0..rows).map(|_| rng.gen_range(0.0..5.0)).collect())
            .build()
            .unwrap();
        let tree = random_tree(seed | 1, 2, 3);
        let pipeline = raven_ml::Pipeline::new(
            "risk_model",
            vec![
                raven_ml::PipelineInput { name: "age".into(), kind: raven_ml::InputKind::Numeric },
                raven_ml::PipelineInput { name: "rcount".into(), kind: raven_ml::InputKind::Numeric },
            ],
            vec![
                raven_ml::PipelineNode {
                    name: "concat".into(),
                    op: raven_ml::Operator::Concat,
                    inputs: vec!["age".into(), "rcount".into()],
                    output: "features".into(),
                },
                raven_ml::PipelineNode {
                    name: "model".into(),
                    op: raven_ml::Operator::TreeEnsemble(TreeEnsemble {
                        kind: EnsembleKind::GradientBoostingClassifier,
                        trees: vec![tree.clone(), tree],
                        n_features: 2,
                        learning_rate: 0.3,
                        base_score: 0.1,
                    }),
                    inputs: vec!["features".into()],
                    output: "score".into(),
                },
            ],
            "score",
        )
        .unwrap();

        // the oracle: filter on age, score every survivor by walking the
        // operator graph, then keep the rows whose score passes the cut
        let batch = table.to_batch().unwrap();
        let ages = batch.column_by_name("age").unwrap();
        let mask: Vec<bool> = ages.as_f64().unwrap().iter().map(|a| *a >= threshold).collect();
        let survivors = batch.filter(&mask).unwrap();
        let scores = raven_ml::MlRuntime::new().run_batch(&pipeline, &survivors).unwrap();
        let ids = survivors.column_by_name("id").unwrap();
        let expected: Vec<(i64, u64)> = ids
            .as_i64()
            .unwrap()
            .iter()
            .zip(&scores)
            .filter(|(_, s)| **s > score_cut)
            .map(|(id, s)| (*id, s.to_bits()))
            .collect();

        let mut session = raven_core::RavenSession::new();
        session.register_table(table);
        session.register_model(pipeline);
        session.config_mut().runtime_policy = raven_core::RuntimePolicy::NoTransform;
        let query = format!(
            "SELECT d.id, p.score FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (score float) AS p WHERE d.age >= {threshold} AND p.score > {score_cut}"
        );
        let out = session.sql(&query).unwrap();
        let ids = out.batch.column_by_name("id").unwrap();
        let scores = out.batch.column_by_name("score").unwrap();
        let got: Vec<(i64, u64)> = ids
            .as_i64()
            .unwrap()
            .iter()
            .zip(scores.as_f64().unwrap())
            .map(|(id, s)| (*id, s.to_bits()))
            .collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(out.report.intermediate_materializations, 0);
    }
}

proptest! {
    // More cases than its neighbours: a NaN reaches a tree split only in the
    // cases that pick a tree model without an imputer or binarizer.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fused featurize→score pass is bit-identical to the per-operator
    /// interpreted path across random featurizer stacks (imputer / scaler /
    /// binarizer chains, one-hot and label encoders over string-, integer-
    /// and float-sourced categorical columns with unknown and NaN
    /// categories), empty batches, all three linear models, and tree
    /// ensembles. Half of column `a` is model-directed, so NaN and the
    /// values either side of a threshold reach the trees' splits on it. The
    /// oracle is `run_batch` over the bare pipeline; the per-operator path
    /// (`CompiledPipeline::per_operator`) must match too.
    #[test]
    fn fused_featurize_score_is_bit_identical(
        seed in 0u64..0xffff_ffff,
        rows in 0usize..150,
        model_kind in 0usize..5,
        featurizer_mask in 0usize..8,
        label_encode in 0usize..2,
        nan_stride in 2usize..6,
        cat_source in 0usize..3,
    ) {
        let (use_imputer, use_scaler, use_binarizer) = (
            featurizer_mask & 1 != 0,
            featurizer_mask & 2 != 0,
            featurizer_mask & 4 != 0,
        );
        let label_encode = label_encode == 1;
        use raven_ml::{
            CompiledPipeline, Imputer, InputKind, LabelEncoder, MlRuntime, OneHotEncoder,
            Operator, Pipeline, PipelineInput, PipelineNode, Scaler,
            LinearRegressionModel, LinearSvmModel, LogisticRegressionModel, Binarizer,
        };
        let mix = |k: u64| seed.rotate_left((k % 63) as u32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // the model's feature vector: a and b (after the numeric stack), then
        // the encoded categorical
        let width = 2 + if label_encode { 1 } else { 8 };
        let trees: Vec<Tree> = (0..3)
            .map(|t| random_tree(mix(t as u64 + 61), width, if model_kind == 3 { 3 } else { 5 }))
            .collect();
        // --- source batch: two numerics (NaN-laced) + one categorical ---
        // Every other row of `a` is model-directed: the thresholds the trees
        // split feature 0 at, the next float above each, and NaN.
        let probes = model_inputs::split_values(&trees, 0);
        let a: Vec<f64> = (0..rows)
            .map(|r| {
                if r % 2 == 1 && !probes.is_empty() {
                    probes[(r / 2) % probes.len()]
                } else if r % nan_stride == 0 {
                    f64::NAN
                } else {
                    ((mix(r as u64) % 97) as f64) - 48.0
                }
            })
            .collect();
        let b: Vec<i64> = (0..rows).map(|r| (mix(r as u64 + 7) % 13) as i64 - 6).collect();
        let mut builder = TableBuilder::new("t").add_f64("a", a).add_i64("b", b);
        builder = match cat_source {
            // strings, incl. values outside the category list
            0 => builder.add_utf8(
                "cat",
                (0..rows)
                    .map(|r| ["x", "y", "z", "w", "NaN"][(mix(r as u64 + 13) % 5) as usize].into())
                    .collect(),
            ),
            // integers (the runtime renders them via to_string)
            1 => builder.add_i64(
                "cat",
                (0..rows).map(|r| (mix(r as u64 + 17) % 5) as i64 - 1).collect(),
            ),
            // floats incl. NaN / -0.0 (format_numeric_category semantics)
            _ => builder.add_f64(
                "cat",
                (0..rows)
                    .map(|r| [0.0, 1.0, 2.5, f64::NAN, -0.0, 7.0][(mix(r as u64 + 23) % 6) as usize])
                    .collect(),
            ),
        };
        let batch = builder.build_batch().unwrap();

        // --- pipeline: numeric stack → concat with encoded categorical → model ---
        let mut nodes = Vec::new();
        let mut num_value = None;
        let mut chain_input = vec!["a".to_string(), "b".to_string()];
        if use_imputer {
            nodes.push(PipelineNode {
                name: "imputer".into(),
                op: Operator::Imputer(Imputer {
                    fill: vec![(mix(31) % 9) as f64, -1.5],
                }),
                inputs: chain_input.clone(),
                output: "imputed".into(),
            });
            chain_input = vec!["imputed".into()];
            num_value = Some("imputed".to_string());
        }
        if use_scaler {
            nodes.push(PipelineNode {
                name: "scaler".into(),
                op: Operator::Scaler(Scaler {
                    offsets: vec![(mix(37) % 11) as f64 - 5.0, 2.0],
                    scales: vec![0.25, (mix(41) % 7) as f64 * 0.5 - 1.0],
                }),
                inputs: chain_input.clone(),
                output: "scaled".into(),
            });
            chain_input = vec!["scaled".into()];
            num_value = Some("scaled".to_string());
        }
        if use_binarizer {
            nodes.push(PipelineNode {
                name: "bin".into(),
                op: Operator::Binarizer(Binarizer {
                    threshold: (mix(43) % 9) as f64 - 4.0,
                }),
                inputs: chain_input.clone(),
                output: "binned".into(),
            });
            num_value = Some("binned".to_string());
        }
        // untouched inputs feed the concat directly (implicit multi-input)
        let num_inputs: Vec<String> = match num_value {
            Some(v) => vec![v],
            None => vec!["a".into(), "b".into()],
        };
        // category lists deliberately mix hits, misses, numeric-looking and
        // literal-"NaN" entries
        let cat_width = if label_encode {
            nodes.push(PipelineNode {
                name: "label".into(),
                op: Operator::LabelEncoder(LabelEncoder {
                    classes: vec!["x".into(), "1".into(), "-1".into(), "NaN".into()],
                }),
                inputs: vec!["cat".into()],
                output: "enc".into(),
            });
            1
        } else {
            let categories: Vec<String> = ["0", "1", "2.5", "x", "y", "NaN", "3", "-1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let width = categories.len();
            nodes.push(PipelineNode {
                name: "ohe".into(),
                op: Operator::OneHotEncoder(OneHotEncoder { categories }),
                inputs: vec!["cat".into()],
                output: "enc".into(),
            });
            width
        };
        let mut concat_inputs = num_inputs;
        concat_inputs.push("enc".into());
        nodes.push(PipelineNode {
            name: "concat".into(),
            op: Operator::Concat,
            inputs: concat_inputs,
            output: "features".into(),
        });
        assert_eq!(width, 2 + cat_width);
        let weights: Vec<f64> = (0..width)
            .map(|i| (mix(i as u64 + 51) % 21) as f64 * 0.1 - 1.0)
            .collect();
        let model_op = match model_kind {
            0 => Operator::LinearRegression(LinearRegressionModel {
                weights,
                intercept: 0.5,
            }),
            1 => Operator::LogisticRegression(LogisticRegressionModel {
                weights,
                intercept: -0.25,
            }),
            2 => Operator::LinearSvm(LinearSvmModel {
                weights,
                intercept: 0.1,
            }),
            _ => {
                Operator::TreeEnsemble(TreeEnsemble {
                    kind: EnsembleKind::GradientBoostingClassifier,
                    trees,
                    n_features: width,
                    learning_rate: 0.3,
                    base_score: 0.1,
                })
            }
        };
        nodes.push(PipelineNode {
            name: "model".into(),
            op: model_op,
            inputs: vec!["features".into()],
            output: "score".into(),
        });
        let pipeline = Pipeline::new(
            "fused_parity",
            vec![
                PipelineInput { name: "a".into(), kind: InputKind::Numeric },
                PipelineInput { name: "b".into(), kind: InputKind::Numeric },
                // string-, integer- and float-backed columns all bind as
                // categorical inputs (the runtime renders them to strings;
                // the fused path must match without rendering)
                PipelineInput {
                    name: "cat".into(),
                    kind: InputKind::Categorical,
                },
            ],
            nodes,
            "score",
        )
        .unwrap();

        let compiled = CompiledPipeline::compile(&pipeline).unwrap();
        prop_assert!(compiled.fused().is_some(), "stack should fuse");
        let rt = MlRuntime::new();
        // oracle: fully interpreted operator graph
        let interpreted = rt.run_batch(&pipeline, &batch);
        // PR 4 baseline: per-operator featurizers + flat tree kernels
        let per_op = rt.run_batch_compiled(&compiled.per_operator(), &batch);
        // PR 5: the fused pass
        let fused = rt.run_batch_compiled(&compiled, &batch);
        let interpreted = interpreted.unwrap();
        let per_op = per_op.unwrap();
        let fused = fused.unwrap();
        prop_assert_eq!(interpreted.len(), rows);
        prop_assert_eq!(per_op.len(), rows);
        prop_assert_eq!(fused.len(), rows);
        for r in 0..rows {
            prop_assert_eq!(
                interpreted[r].to_bits(), per_op[r].to_bits(),
                "row {}: interpreted {} vs per-op {}", r, interpreted[r], per_op[r]
            );
            prop_assert_eq!(
                interpreted[r].to_bits(), fused[r].to_bits(),
                "row {}: interpreted {} vs fused {}", r, interpreted[r], fused[r]
            );
        }
    }
}

/// Out-of-range feature indices fail with a typed error at compile /
/// validation time instead of silently scoring NaN.
#[test]
fn out_of_range_features_are_rejected() {
    let bad = TreeEnsemble::single_tree(
        Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 7,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Leaf { value: 1.0 },
            ],
            root: 0,
        },
        2,
    );
    assert!(matches!(
        FlatEnsemble::compile(&bad),
        Err(raven_ml::MlError::InvalidModel(_))
    ));
    assert!(matches!(
        bad.validate_features(),
        Err(raven_ml::MlError::InvalidModel(_))
    ));
    // a pipeline carrying the malformed model fails validation on build
    let p = raven_ml::Pipeline::new(
        "bad",
        vec![raven_ml::PipelineInput {
            name: "x".into(),
            kind: raven_ml::InputKind::Numeric,
        }],
        vec![raven_ml::PipelineNode {
            name: "model".into(),
            op: raven_ml::Operator::TreeEnsemble(bad),
            inputs: vec!["x".into()],
            output: "score".into(),
        }],
        "score",
    );
    assert!(p.is_err());
}

/// `common::extra_dop` is exercised by the other suites; referencing it here
/// keeps the shared module warning-free when this suite compiles alone.
#[test]
fn extra_dop_parses() {
    let _ = common::extra_dop();
}
