//! Credit-card fraud scoring with explicit runtime selection: the same
//! prediction query executed on the ML runtime, translated to SQL (MLtoSQL),
//! and compiled to a tensor program on the CPU and on the simulated GPU
//! (MLtoDNN) — the paper's §5 logical-to-physical choices.
//!
//! Run with: `cargo run --release --example fraud_runtime_selection`

use raven::prelude::*;

fn main() {
    let dataset = raven::datagen::credit_card(40_000, 9);
    let table = dataset.tables[0].clone();

    // A gradient-boosting model large enough that the DNN runtime is relevant.
    let pipeline = raven::ml::train_pipeline(
        &table.to_batch().expect("batch"),
        &PipelineSpec {
            name: "fraud_model".into(),
            numeric_inputs: dataset.numeric_inputs.clone(),
            categorical_inputs: vec![],
            label: dataset.label.clone(),
            model: ModelType::GradientBoosting {
                n_estimators: 60,
                max_depth: 5,
                learning_rate: 0.1,
            },
            seed: 21,
        },
    )
    .expect("training succeeds");

    let mut session = RavenSession::new();
    session.register_table(table);
    session.register_model(pipeline);

    let query = "SELECT d.id, p.fraud_score \
                 FROM PREDICT(MODEL = fraud_model, DATA = transactions AS d) \
                 WITH (fraud_score float) AS p \
                 WHERE p.fraud_score >= 0.8";

    println!("{:<34} {:>12} {:>10}", "configuration", "time (ms)", "rows");
    let mut reference: Option<Vec<(i64, f64)>> = None;
    for (label, policy, device) in [
        (
            "ML runtime (no transform)",
            RuntimePolicy::Force(TransformChoice::None),
            Device::Cpu,
        ),
        (
            "MLtoSQL on the data engine",
            RuntimePolicy::Force(TransformChoice::MlToSql),
            Device::Cpu,
        ),
        (
            "MLtoDNN on CPU",
            RuntimePolicy::Force(TransformChoice::MlToDnn),
            Device::Cpu,
        ),
        (
            "MLtoDNN on simulated Tesla K80",
            RuntimePolicy::Force(TransformChoice::MlToDnn),
            Device::SimulatedGpu(GpuProfile::tesla_k80()),
        ),
        (
            "heuristic runtime selection",
            RuntimePolicy::Heuristic,
            Device::Cpu,
        ),
    ] {
        session.config_mut().runtime_policy = policy;
        session.config_mut().device = device;
        let out = session.sql(query).expect("query runs");
        let rows = out.report.output_rows;
        let ids = out
            .batch
            .column_by_name("id")
            .expect("id")
            .as_i64()
            .expect("ids");
        let scores = out
            .batch
            .column_by_name("fraud_score")
            .expect("score")
            .as_f64()
            .expect("scores");
        let mut flagged: Vec<(i64, f64)> =
            ids.iter().copied().zip(scores.iter().copied()).collect();
        flagged.sort_by_key(|&(id, _)| id);
        if let Some(expected) = &reference {
            assert_eq!(
                flagged.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                expected.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                "all runtimes must flag the same transactions"
            );
            for (&(id, got), &(_, want)) in flagged.iter().zip(expected) {
                assert!(
                    (got - want).abs() < 1e-9,
                    "transaction {id}: {got} vs {want}"
                );
            }
        } else {
            assert!(!flagged.is_empty(), "the cut must flag some transactions");
            reference = Some(flagged);
        }
        println!(
            "{:<34} {:>12.1} {:>10}   (chosen: {}{})",
            label,
            out.report.total_time.as_secs_f64() * 1e3,
            rows,
            out.report.transform.name(),
            if out.report.ml_time_modeled {
                ", GPU time modeled"
            } else {
                ""
            }
        );
    }
}
