//! `batch.*`: one prediction query over a registered table, run back to back
//! from one thread through `RavenSession::sql`.

use crate::check::Checksum;
use crate::inputs::{batch_inputs, load, BatchInputs};
use crate::metrics::Outcome;
use crate::span::Tracer;
use crate::stats::{highest_supported_percentile, median, ms, quantile};
use crate::RunArgs;
use raven_columnar::{Batch, Table};
use raven_core::{
    apply_cross_optimizations, apply_global_data_induced, pipeline_to_sql, PipelineStats,
    RavenConfig, RavenSession, TransformChoice,
};
use raven_ir::{parse_prediction_query, UnifiedPlan};
use raven_ml::{CompiledPipeline, MlRuntime};
use raven_relational::{
    col, ExecutionContext, Executor, Expr, LogicalPlan, Optimizer, OptimizerOptions,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed calls a window makes, however slow the query.
const MIN_CALLS: u64 = 5;
const WARM_UP_CALLS: usize = 2;

struct Ready {
    session: RavenSession,
    reference: Checksum,
}

fn session_over(inputs: &BatchInputs, tables: &[Table], config: RavenConfig) -> RavenSession {
    let mut session = RavenSession::with_config(config);
    for t in tables {
        session.register_table(t.clone());
    }
    session.register_model(inputs.model.clone());
    session
}

/// Whether a result's rows are the reference's.
fn verify(result: &Batch, reference: &Checksum) -> Result<(), String> {
    let got = Checksum::of_batch(result)?;
    if got.matches(reference) {
        Ok(())
    } else {
        Err(format!(
            "result {got:?} differs from reference {reference:?}"
        ))
    }
}

/// Count one checked call; keep the text of the first failure only.
fn account(outcome: &mut Outcome, checked: Result<(), String>) -> bool {
    outcome.attempted += 1;
    if let Err(e) = &checked {
        if outcome.failed == 0 {
            outcome.notes.push(format!("first failed call: {e}"));
        }
        outcome.failed += 1;
    }
    checked.is_ok()
}

/// Program set-up, from generated inputs to the first timed call: load the
/// tables (which computes their statistics), register them and the model,
/// run the reference — the same query under `RavenConfig::no_opt()`, i.e. the
/// unoptimised pipeline on the ML runtime over a materialised scan, which
/// shares no optimizer rule or transform with the measured path — and warm up.
fn set_up(inputs: &BatchInputs) -> Result<Ready, String> {
    let tables = inputs
        .tables
        .iter()
        .map(load)
        .collect::<Result<Vec<_>, String>>()?;
    let session = session_over(
        inputs,
        &tables,
        RavenConfig {
            degree_of_parallelism: inputs.dop,
            ..Default::default()
        },
    );
    let oracle = session_over(inputs, &tables, RavenConfig::no_opt());
    let out = oracle.sql(&inputs.query).map_err(|e| e.to_string())?;
    let reference = Checksum::of_batch(&out.batch)?;
    if reference.rows == 0 {
        return Err("the reference result is empty; the workload checks nothing".into());
    }
    for _ in 0..WARM_UP_CALLS {
        let out = session.sql(&inputs.query).map_err(|e| e.to_string())?;
        verify(&out.batch, &reference)?;
    }
    Ok(Ready { session, reference })
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let gen = Instant::now();
    let inputs = batch_inputs(&args.workload, args.seed, &args.sizes);
    outcome.set("gen_s", gen.elapsed().as_secs_f64(), 1);

    let (ready, setups) = crate::repeat_set_up(&args.sizes, |_| set_up(&inputs))?;
    outcome.set("setup_s", median(&setups), setups.len());

    if args.trace {
        traced_pass(args, &inputs, &ready, &mut outcome)?;
    } else {
        timed_window(args, &inputs, &ready, &mut outcome);
    }
    Ok(outcome)
}

/// The end-to-end pass: wall clock around `RavenSession::sql`, nothing else
/// inside the timed region; every result is checked after its clock stopped.
fn timed_window(args: &RunArgs, inputs: &BatchInputs, ready: &Ready, outcome: &mut Outcome) {
    let mut samples = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || outcome.attempted < MIN_CALLS {
        let t = Instant::now();
        let out = black_box(ready.session.sql(black_box(&inputs.query)));
        let took = t.elapsed();
        let checked = out
            .map_err(|e| e.to_string())
            .and_then(|o| verify(&o.batch, &ready.reference));
        if account(outcome, checked) {
            samples.push(ms(took));
        }
    }
    let n = samples.len();
    outcome.set("latency_ms_p50", median(&samples), n);
    // input rows scored per second of query time (checks excluded)
    outcome.set(
        "throughput_per_s",
        inputs.fact_rows as f64 * n as f64
            / (samples.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE),
        n,
    );
    outcome.notes.push(format!(
        "query_ms_p50 = latency_ms_p50; rows_per_s = throughput_per_s at {} input rows, {} result rows",
        inputs.fact_rows, ready.reference.rows
    ));
    if let Some((p, v)) = highest_supported_percentile(&samples) {
        outcome
            .notes
            .push(format!("query_ms_p{p} = {v:.4} ms (n={n})"));
    }
}

/// The relational plan the prepared statement runs, rebuilt from the
/// optimised unified plan with public pieces only: the whole query for
/// MLtoSQL, else the data side that feeds the ML runtime (input predicates
/// applied, projected to what the pipeline and the rest of the query read).
fn relational_side(plan: &UnifiedPlan, transform: TransformChoice) -> Result<LogicalPlan, String> {
    let mut data = plan.data.clone();
    let input_preds: Vec<Expr> = plan.input_predicates().into_iter().cloned().collect();
    if !input_preds.is_empty() {
        data = data.filter(Expr::conjunction(input_preds));
    }
    let external = plan.externally_required_columns();
    if transform == TransformChoice::MlToSql {
        let score = pipeline_to_sql(&plan.pipeline).map_err(|e| e.to_string())?;
        let mut exprs: Vec<Expr> = external.iter().map(col).collect();
        exprs.push(score.alias(&plan.prediction_column));
        data = data.project(exprs);
        let output_preds: Vec<Expr> = plan.output_predicates().into_iter().cloned().collect();
        if !output_preds.is_empty() {
            data = data.filter(Expr::conjunction(output_preds));
        }
        if !plan.projection.is_empty() {
            data = data.project(plan.projection.clone());
        }
        return Ok(data);
    }
    let mut needed: Vec<String> = plan
        .pipeline
        .input_names()
        .into_iter()
        .map(String::from)
        .collect();
    for c in external {
        if !needed.contains(&c) {
            needed.push(c);
        }
    }
    Ok(data.project(needed.iter().map(col).collect()))
}

/// The per-layer pass. Each iteration first times one plain `sql()` call (the
/// untraced reference inside this process), then runs the same three public
/// calls `sql()` is made of — parse, `prepare_plan`, `execute_prepared` —
/// under a root span, then replays the public functions those calls are made
/// of, each as a child span of the call it decomposes.
fn traced_pass(
    args: &RunArgs,
    inputs: &BatchInputs,
    ready: &Ready,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let session = &ready.session;
    let config = session.config().clone();
    let catalog = session.catalog();
    let query = inputs.query.as_str();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let mut tracer = Tracer::new();
    let mut plain = Vec::new();
    let (mut report_data, mut report_ml) = (Vec::new(), Vec::new());
    let mut facts = None;
    let window = Instant::now();
    let mut request = 0u64;
    while window.elapsed().as_secs_f64() < args.seconds || request < MIN_CALLS {
        let t = Instant::now();
        let out = black_box(session.sql(black_box(query))).map_err(|e| err(&e))?;
        plain.push(ms(t.elapsed()));
        account(outcome, verify(&out.batch, &ready.reference));

        // the three calls sql() makes, under one root span
        let start = Instant::now();
        let plan =
            parse_prediction_query(query, session.registry(), catalog).map_err(|e| err(&e))?;
        let parsed = Instant::now();
        let prepared = session.prepare_plan(&plan).map_err(|e| err(&e))?;
        let prepared_at = Instant::now();
        let out = session.execute_prepared(&prepared).map_err(|e| err(&e))?;
        let end = Instant::now();
        let root = tracer.record("query", start, end, None, request);
        tracer.record("ir.parse", start, parsed, Some(root), request);
        let prep = tracer.record(
            "core.prepare_plan",
            parsed,
            prepared_at,
            Some(root),
            request,
        );
        let exec = tracer.record("core.execute", prepared_at, end, Some(root), request);
        account(outcome, verify(&out.batch, &ready.reference));
        report_data.push(ms(out.report.data_time));
        report_ml.push(ms(out.report.ml_time));

        // replays: what prepare_plan is made of
        let (opt, optimized) = tracer.span("core.optimize", Some(prep), request, || {
            session.optimize(&plan)
        });
        let (optimized, transform, cross, _) = optimized.map_err(|e| err(&e))?;
        let mut crossed = plan.clone();
        tracer
            .span("core.cross_opt", Some(opt), request, || {
                apply_cross_optimizations(&mut crossed)
            })
            .1
            .map_err(|e| err(&e))?;
        tracer
            .span("core.data_induced", Some(opt), request, || {
                apply_global_data_induced(&mut crossed, catalog)
            })
            .1
            .map_err(|e| err(&e))?;
        let compiled = tracer
            .span("ml.compile", Some(prep), request, || {
                CompiledPipeline::compile(&optimized.pipeline)
            })
            .1
            .map_err(|e| err(&e))?;
        // the statement reports the transform after resolving applicability
        let transform = if prepared.transform() == TransformChoice::None {
            TransformChoice::None
        } else {
            transform
        };
        let logical = relational_side(&optimized, transform)?;
        let optimizer = Optimizer::with_options(OptimizerOptions {
            join_reordering: config.cost_based_joins,
            ..Default::default()
        });
        let physical = tracer
            .span("relational.optimize", Some(prep), request, || {
                optimizer.optimize(&logical, catalog)
            })
            .1
            .map_err(|e| err(&e))?;

        // replays: what execute_prepared is made of
        let ctx = ExecutionContext {
            degree_of_parallelism: config.degree_of_parallelism.max(1),
            batch_size: config.ml_runtime.batch_size.max(1),
            cost_based_build_side: config.cost_based_joins,
            ..Default::default()
        };
        let executor = Executor::new();
        let dop = ctx.degree_of_parallelism;
        let partitions = tracer
            .span("relational.exec", Some(exec), request, || {
                executor
                    .execute_stream(&physical, catalog, &ctx)
                    .and_then(|stream| Ok(stream.collect(dop)?))
            })
            .1
            .map_err(|e| err(&e))?;
        // materialised outside both spans: the session scores partition by
        // partition and never builds this batch
        let parts: Vec<_> = partitions
            .iter()
            .map(|p| (&p.batch, p.selection.as_ref()))
            .collect();
        let data = if parts.is_empty() {
            Batch::empty(Arc::new(physical.schema(catalog).map_err(|e| err(&e))?))
        } else {
            Batch::concat_selected(&parts)
        }
        .map_err(|e| err(&e))?;
        if transform != TransformChoice::MlToSql {
            let runtime = MlRuntime::with_config(config.ml_runtime.clone());
            let scores = tracer
                .span("ml.score", Some(exec), request, || {
                    runtime.run_batch_compiled(&compiled, &data)
                })
                .1
                .map_err(|e| err(&e))?;
            black_box(scores);
        }
        facts = Some((
            plan.node_count(),
            cross.removed_inputs.len(),
            PipelineStats::from_pipeline(&plan.pipeline).n_tree_nodes
                - PipelineStats::from_pipeline(&optimized.pipeline).n_tree_nodes,
            transform,
            out.report.transform_fallback,
            data.num_rows(),
            executor.metrics(),
        ));
        request += 1;
    }

    let n = request as usize;
    let med = |name: &str| median(&tracer.durations_ms(name));
    let root_ms = med("query");
    let plain_ms = median(&plain);
    outcome.set("query_ms_p95", quantile(&plain, 0.95), plain.len());
    outcome.set(
        "trace_overhead_pct",
        (root_ms - plain_ms) / plain_ms * 100.0,
        n,
    );
    for (metric, span) in [
        ("ir.parse_ms", "ir.parse"),
        ("core.cross_opt_ms", "core.cross_opt"),
        ("core.data_induced_ms", "core.data_induced"),
        ("core.optimize_ms", "core.optimize"),
        ("core.execute_ms", "core.execute"),
        ("ml.compile_ms", "ml.compile"),
        ("ml.score_ms", "ml.score"),
        ("relational.optimize_ms", "relational.optimize"),
        ("relational.exec_ms", "relational.exec"),
    ] {
        outcome.set(metric, med(span), tracer.durations_ms(span).len());
    }
    // one prepare_plan and one optimize span per iteration, in order
    let lower: Vec<f64> = tracer
        .durations_ms("core.prepare_plan")
        .iter()
        .zip(tracer.durations_ms("core.optimize"))
        .map(|(p, o)| p - o)
        .collect();
    outcome.set("core.lower_compile_ms", median(&lower), n);
    outcome.set(
        "core.execute_other_ms",
        median(&tracer.self_times_ms("core.execute")),
        n,
    );
    outcome.set("core.report_data_ms", median(&report_data), n);
    outcome.set("core.report_ml_ms", median(&report_ml), n);

    let (nodes, removed, pruned, transform, fallback, data_rows, counters) =
        facts.expect("at least one iteration ran");
    let score_ms = med("ml.score");
    if score_ms > 0.0 {
        outcome.set("ml.rows_per_s", data_rows as f64 / (score_ms / 1e3), n);
    }
    outcome.set("ir.node_count", nodes as f64, 1);
    outcome.set("core.removed_inputs", removed as f64, 1);
    outcome.set("core.pruned_tree_nodes", pruned, 1);
    outcome.set(
        "core.transform_mltosql",
        f64::from(transform == TransformChoice::MlToSql),
        1,
    );
    outcome.set("core.transform_fallback", f64::from(fallback), 1);
    for (metric, count) in [
        ("relational.rows_scanned", counters.rows_scanned()),
        ("relational.bytes_scanned", counters.bytes_scanned()),
        ("relational.partitions_pruned", counters.partitions_pruned()),
        (
            "relational.partitions_scanned",
            counters.partitions_scanned(),
        ),
        ("relational.join_build_rows", counters.join_build_rows()),
        ("relational.probe_batches", counters.join_probe_batches()),
        (
            "relational.materializations",
            counters.intermediate_materializations(),
        ),
    ] {
        outcome.set(metric, count as f64, 1);
    }
    outcome.set(
        "failed_share",
        outcome.failed_share(),
        outcome.attempted as usize,
    );

    let share = |part: f64| part / root_ms * 100.0;
    outcome.notes.push(format!(
        "transform {transform:?}; shares of the traced query ({root_ms:.3} ms, untraced {plain_ms:.3} ms): \
         prepare side (parse + prepare_plan) {:.1}%, relational.exec {:.1}%, ml.score {:.1}%, \
         execute self time {:.1}%",
        share(med("ir.parse") + med("core.prepare_plan")),
        share(med("relational.exec")),
        share(score_ms),
        share(median(&tracer.self_times_ms("core.execute"))),
    ));
    crate::write_trace(args, &tracer)
}
