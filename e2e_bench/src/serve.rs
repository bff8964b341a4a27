//! `serve.*`: mixed-tenant traffic against `raven_serve::Server`.
//!
//! Two phases per run. An **open loop** at the reference rate: one generator
//! thread submits on a fixed schedule whatever the server does, one collector
//! thread waits the tickets in submission order, and each latency runs from
//! the instant the request was *due* — so a stall shows in every request
//! queued behind it. Then a **closed window**: one submitter keeps 64
//! requests outstanding, which gives the completion rate at saturation.
//! `Ticket` can only be waited on, so a response that overtakes an earlier
//! one is observed when the collector reaches it; the open-loop latencies
//! are upper bounds by at most the service time of the request ahead.

use crate::check::{score_matches, Checksum};
use crate::inputs::{load, serve_inputs, Ask, ServeInputs, Slot};
use crate::metrics::Outcome;
use crate::span::Tracer;
use crate::stats::{median, ms, quantile};
use crate::RunArgs;
use raven_core::{RavenConfig, RavenSession};
use raven_serve::{QosConfig, Request, Response, Server, ServerConfig, Ticket};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A request answered later than this after it was due missed the limit.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Requests the closed window keeps outstanding.
const WINDOW: usize = 64;
/// `serve.churn` issues one registration per interval.
const WRITE_INTERVAL: Duration = Duration::from_millis(100);
const DIRECT_EXECUTIONS: usize = 30;
/// The closed window counts completions per bucket of this many seconds.
const BUCKET_S: f64 = 0.25;

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Reference answers: `(id, score)` of every row any query of the workload
/// can return, from one run of the widest query under `RavenConfig::no_opt()`.
struct Reference {
    score_of: HashMap<i64, f64>,
    /// Expected checksum per first admitted id.
    by_first_id: HashMap<usize, Checksum>,
}

struct Ready {
    server: Server,
    reference: Reference,
}

fn server_config(inputs: &ServeInputs, dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        data_dir: dir.map(Path::to_path_buf),
        qos: QosConfig {
            tenant_weights: inputs
                .profiles
                .iter()
                .map(|p| (p.name.clone(), p.weight))
                .collect(),
            ..Default::default()
        },
        ..Default::default()
    }
}

fn request_for(inputs: &ServeInputs, slot: &Slot) -> Request {
    match &slot.ask {
        Ask::Sql { variant } => Request::Sql(inputs.query_from(inputs.first_id(*variant))),
        Ask::Point { row } => Request::Point {
            sql: inputs.hot_query(),
            row: inputs.point_rows[*row].1.clone(),
        },
    }
}

/// Whether a response is the reference answer of the slot that asked.
fn check(
    inputs: &ServeInputs,
    reference: &Reference,
    slot: &Slot,
    response: raven_serve::Result<Response>,
) -> Result<(), String> {
    match (&slot.ask, response.map_err(|e| e.to_string())?) {
        (Ask::Sql { variant }, Response::Sql(out)) => {
            let want = &reference.by_first_id[&inputs.first_id(*variant)];
            let got = Checksum::of_batch(&out.batch)?;
            if got.matches(want) {
                Ok(())
            } else {
                Err(format!("result {got:?} differs from reference {want:?}"))
            }
        }
        (Ask::Point { row }, Response::Point(p)) => {
            let want = reference.score_of[&inputs.point_rows[*row].0];
            if score_matches(p.score, want) {
                Ok(())
            } else {
                Err(format!(
                    "point score {} differs from reference {want}",
                    p.score
                ))
            }
        }
        _ => Err("response kind does not match the request".into()),
    }
}

/// Program set-up: load the table (statistics), start the server — on a fresh
/// durable directory for `serve.churn`, where the registrations are journaled
/// and fsync'd — register table and model, run the reference, warm the hot
/// query, the first literals of the pool and a few point requests.
fn set_up(inputs: &ServeInputs, dir: Option<&Path>) -> Result<Ready, String> {
    let table = load(&inputs.table)?;

    let config = server_config(inputs, dir);
    let server = if dir.is_some() {
        let server =
            Server::open_durable(config, RavenConfig::default()).map_err(|e| e.to_string())?;
        server
            .register_table(table.clone())
            .map_err(|e| e.to_string())?;
        server
            .register_model(inputs.model.clone())
            .map_err(|e| e.to_string())?;
        server
            .register_table(inputs.churn_dim.clone())
            .map_err(|e| e.to_string())?;
        server
    } else {
        let mut session = RavenSession::new();
        session.register_table(table.clone());
        session.register_model(inputs.model.clone());
        Server::new(session, config)
    };

    let mut oracle = RavenSession::with_config(RavenConfig::no_opt());
    oracle.register_table(table);
    oracle.register_model(inputs.model.clone());
    let widest = oracle
        .sql(&inputs.query_from(inputs.pool_from))
        .map_err(|e| e.to_string())?;
    let ids = widest
        .batch
        .column_by_name("id")
        .map_err(|e| e.to_string())?;
    let scores = widest
        .batch
        .column_by_name("score")
        .map_err(|e| e.to_string())?;
    let rows: Vec<(i64, f64)> = ids
        .as_i64()
        .map_err(|e| e.to_string())?
        .iter()
        .copied()
        .zip(scores.as_f64().map_err(|e| e.to_string())?.iter().copied())
        .collect();
    let expected = |first: usize| {
        Checksum::of_rows(rows.iter().copied().filter(|(id, _)| *id as usize >= first))
    };
    let mut by_first_id: HashMap<usize, Checksum> = (0..inputs.pool)
        .map(|k| inputs.pool_from + k)
        .map(|first| (first, expected(first)))
        .collect();
    by_first_id.insert(inputs.hot_from, expected(inputs.hot_from));
    if by_first_id[&inputs.hot_from].rows == 0 {
        return Err("the hot query's reference result is empty".into());
    }
    let reference = Reference {
        score_of: rows.into_iter().collect(),
        by_first_id,
    };

    let warm = [None]
        .into_iter()
        .chain((0..inputs.pool.min(8)).map(Some))
        .map(|variant| Ask::Sql { variant })
        .chain((0..4).map(|row| Ask::Point { row }));
    for ask in warm {
        let slot = Slot { tenant: 0, ask };
        let response = server
            .submit_as(&inputs.profiles[0].name, request_for(inputs, &slot))
            .and_then(Ticket::wait);
        check(inputs, &reference, &slot, response).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(Ready { server, reference })
}

/// One operation of an open loop, with the four instants that matter.
struct Paced<R> {
    /// When the schedule said the operation should be sent.
    due: Instant,
    /// When the generator actually called `submit` (late if it was stalled).
    sent: Instant,
    /// When `submit` returned.
    submitted: Instant,
    /// When the collector saw the operation complete.
    done: Instant,
    result: R,
}

impl<R> Paced<R> {
    /// Latency from the due instant: a stall of the generator or the server
    /// is charged to every operation scheduled during it.
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    /// How late the generator ran.
    fn lag_ms(&self) -> f64 {
        ms(self.sent - self.due)
    }
}

/// An open loop: `total` operations, the i-th due `i / rate` seconds after
/// the start whatever happened to the ones before it. The calling thread is
/// the generator (`submit`); one more thread is the collector, which takes
/// the submitted operations in order and runs `wait` on each.
fn paced<T: Send, R: Send>(
    total: usize,
    rate: f64,
    mut submit: impl FnMut(usize) -> T,
    wait: impl Fn(usize, T) -> R + Send,
) -> Vec<Paced<R>> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Instant, T)>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(i, due, sent, submitted, pending)| {
                    let result = wait(i, pending);
                    Paced {
                        due,
                        sent,
                        submitted,
                        done: Instant::now(),
                        result,
                    }
                })
                .collect::<Vec<_>>()
        });
        let start = Instant::now() + Duration::from_millis(2);
        for i in 0..total {
            let due = start + period.mul_f64(i as f64);
            sleep_until(due);
            let sent = Instant::now();
            let pending = submit(i);
            if tx.send((i, due, sent, Instant::now(), pending)).is_err() {
                break; // the collector is gone; its panic surfaces at join
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

/// One served request of the open-loop phase.
struct Served {
    tenant: usize,
    latency_ms: f64,
    lag_ms: f64,
    error: Option<String>,
}

/// One open-loop phase: `rate` requests per second for `seconds`, starting
/// at `first_slot` of the schedule. With a tracer, each request also records
/// a `serve.request` span (due to observed completion) and, inside it, the
/// `serve.submit` span of the `submit_as` call.
fn open_loop(
    ready: &Ready,
    inputs: &ServeInputs,
    rate: f64,
    seconds: f64,
    first_slot: usize,
    tracer: Option<&mut Tracer>,
) -> Vec<Served> {
    let total = ((rate * seconds) as usize).max(1);
    let slot_at = |i: usize| &inputs.slots[(first_slot + i) % inputs.slots.len()];
    // built before the clock starts, so the generator only sleeps and submits
    let mut requests: Vec<Option<Request>> = (0..total)
        .map(|i| Some(request_for(inputs, slot_at(i))))
        .collect();
    let done = paced(
        total,
        rate,
        |i| {
            let request = requests[i].take().expect("each request is sent once");
            ready
                .server
                .submit_as(&inputs.profiles[slot_at(i).tenant].name, request)
        },
        |i, ticket: raven_serve::Result<Ticket>| {
            check(
                inputs,
                &ready.reference,
                slot_at(i),
                ticket.and_then(Ticket::wait),
            )
            .err()
        },
    );
    if let Some(tracer) = tracer {
        for (i, p) in done.iter().enumerate() {
            let parent = tracer.record("serve.request", p.due, p.done, None, i as u64);
            tracer.record("serve.submit", p.sent, p.submitted, Some(parent), i as u64);
        }
    }
    done.into_iter()
        .enumerate()
        .map(|(i, p)| Served {
            tenant: slot_at(i).tenant,
            latency_ms: p.latency_ms(),
            lag_ms: p.lag_ms(),
            error: p.result,
        })
        .collect()
}

struct Saturation {
    attempted: u64,
    errors: Vec<String>,
    completions_per_s: f64,
}

/// One closed-window phase: a single submitter keeps `WINDOW` requests
/// outstanding for `seconds`, waiting the oldest before sending the next.
fn closed_window(
    ready: &Ready,
    inputs: &ServeInputs,
    seconds: f64,
    first_slot: usize,
) -> Saturation {
    let slot_at = |i: usize| &inputs.slots[(first_slot + i) % inputs.slots.len()];
    let mut outstanding: VecDeque<(usize, raven_serve::Result<Ticket>)> = VecDeque::new();
    let mut errors = Vec::new();
    let mut sent = 0usize;
    // seconds since the start at which each good response was observed
    let mut completions: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        while outstanding.len() < WINDOW && start.elapsed().as_secs_f64() < seconds {
            let slot = slot_at(sent);
            let ticket = ready.server.submit_as(
                &inputs.profiles[slot.tenant].name,
                request_for(inputs, slot),
            );
            outstanding.push_back((sent, ticket));
            sent += 1;
        }
        let Some((i, ticket)) = outstanding.pop_front() else {
            break;
        };
        match check(
            inputs,
            &ready.reference,
            slot_at(i),
            ticket.and_then(Ticket::wait),
        ) {
            Ok(()) => completions.push(start.elapsed().as_secs_f64()),
            Err(e) => errors.push(e),
        }
    }
    // the rate of the median quarter-second, so that a stall of the shared
    // box during one part of the window does not set the result
    let buckets = ((seconds / BUCKET_S) as usize).max(1);
    let mut per_bucket = vec![0.0; buckets];
    for at in completions {
        if let Some(count) = per_bucket.get_mut((at / BUCKET_S) as usize) {
            *count += 1.0;
        }
    }
    Saturation {
        attempted: sent as u64,
        errors,
        completions_per_s: median(&per_bucket) / BUCKET_S.min(seconds),
    }
}

struct Write {
    ms: f64,
    journal_bytes: u64,
    error: Option<String>,
}

/// `serve.churn`'s writer: every `WRITE_INTERVAL`, re-register the model or
/// the side table (alternately) with the bytes they already have, until told
/// to stop. Each call is timed and the journal's growth around it recorded.
fn writer(ready: &Ready, inputs: &ServeInputs, journal: &Path, stop: &AtomicBool) -> Vec<Write> {
    let len = || std::fs::metadata(journal).map_or(0, |m| m.len());
    let mut writes = Vec::new();
    let start = Instant::now();
    for k in 1u32.. {
        sleep_until(start + WRITE_INTERVAL * k);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let before = len();
        let t = Instant::now();
        let result = if k % 2 == 1 {
            ready.server.register_model(inputs.model.clone())
        } else {
            ready.server.register_table(inputs.churn_dim.clone())
        };
        writes.push(Write {
            ms: ms(t.elapsed()),
            journal_bytes: len().saturating_sub(before),
            error: result.err().map(|e| e.to_string()),
        });
    }
    writes
}

fn epochs(server: &Server) -> u64 {
    server.with_session(|s| s.catalog().epoch() + s.registry().epoch())
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let gen = Instant::now();
    let inputs = serve_inputs(&args.workload, args.seed, &args.sizes);
    outcome.set("gen_s", gen.elapsed().as_secs_f64(), 1);

    // durable directories live inside the checkout and go when the run ends
    let scratch = ScratchDir::new(&args.out_dir)?;
    // each set-up gets a fresh store; the previous server stops (its value is
    // dropped) before the next one is timed
    let store = |k: usize| inputs.churn.then(|| scratch.0.join(format!("store-{k}")));
    let (ready, setups) =
        crate::repeat_set_up(&args.sizes, |k| set_up(&inputs, store(k).as_deref()))?;
    let dir = store(setups.len() - 1);
    outcome.set("setup_s", median(&setups), setups.len());

    let mut tracer = args.trace.then(Tracer::new);
    if args.trace {
        // the drive alone, under the session read lock, with no traffic
        let hot = inputs.hot_query();
        let direct = ready.server.with_session(|s| -> Result<Vec<f64>, String> {
            let prepared = s.prepare(&hot).map_err(|e| e.to_string())?;
            (0..DIRECT_EXECUTIONS)
                .map(|_| {
                    let t = Instant::now();
                    s.execute_prepared(&prepared).map_err(|e| e.to_string())?;
                    Ok(ms(t.elapsed()))
                })
                .collect()
        })?;
        outcome.set("serve.direct_execute_ms", median(&direct), direct.len());
    }

    let epochs_before = epochs(&ready.server);
    let stop = AtomicBool::new(false);
    let journal = dir.as_ref().map(|d| d.join("journal.rvj"));
    let (served, saturation, writes) = std::thread::scope(|scope| {
        let writing = journal
            .as_deref()
            .map(|j| scope.spawn(|| writer(&ready, &inputs, j, &stop)));
        // also on unwind: a panic in a phase must not leave the scope waiting
        // for a writer nobody will stop
        let stop_writer = StopOnDrop(&stop);
        let (served, saturation) = if args.trace {
            let served = open_loop(
                &ready,
                &inputs,
                inputs.rate,
                args.seconds,
                0,
                tracer.as_mut(),
            );
            (served, None)
        } else {
            let half = args.seconds / 2.0;
            let served = open_loop(&ready, &inputs, inputs.rate, half, 0, None);
            let saturation = closed_window(&ready, &inputs, half, served.len());
            (served, Some(saturation))
        };
        drop(stop_writer);
        let writes = writing.map_or_else(Vec::new, |w| w.join().expect("writer thread panicked"));
        (served, saturation, writes)
    });
    let epoch_bumps = epochs(&ready.server) - epochs_before;

    // account for every operation
    let mut errors: Vec<&String> = served.iter().filter_map(|s| s.error.as_ref()).collect();
    outcome.attempted += served.len() as u64 + writes.len() as u64;
    if let Some(s) = &saturation {
        outcome.attempted += s.attempted;
        errors.extend(&s.errors);
    }
    errors.extend(writes.iter().filter_map(|w| w.error.as_ref()));
    outcome.failed += errors.len() as u64;
    if let Some(first) = errors.first() {
        outcome
            .notes
            .push(format!("first of {} failures: {first}", errors.len()));
    }

    let latencies: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let n = latencies.len();
    let p50 = median(&latencies);
    let p95 = quantile(&latencies, 0.95);
    let p99 = quantile(&latencies, 0.99);
    let missed = served
        .iter()
        .filter(|s| s.error.is_some() || s.latency_ms > LATENCY_LIMIT_MS)
        .count();
    let lag: Vec<f64> = served.iter().map(|s| s.lag_ms).collect();
    let write_ms: Vec<f64> = writes.iter().map(|w| w.ms).collect();
    outcome.notes.push(format!(
        "open loop {} req/s: serve_p50_ms {p50:.4} serve_p95_ms {p95:.4} serve_p99_ms {p99:.4} \
         limit_miss_share {:.6} (limit {LATENCY_LIMIT_MS} ms) generator_lag_ms_p99 {:.4} n={n}",
        inputs.rate,
        missed as f64 / n as f64,
        quantile(&lag, 0.99),
    ));
    if !writes.is_empty() {
        outcome.notes.push(format!(
            "write_ms_p50 {:.4} n={}",
            median(&write_ms),
            writes.len()
        ));
    }

    let report = ready.server.report();
    if let Some(saturation) = &saturation {
        outcome.set("latency_ms_p50", p50, n);
        outcome.set(
            "throughput_per_s",
            saturation.completions_per_s,
            saturation.attempted as usize,
        );
        outcome.notes.push(format!(
            "serve_sat_qps = throughput_per_s ({WINDOW} outstanding); reference rate is {:.0}% of it",
            inputs.rate / saturation.completions_per_s * 100.0
        ));
    } else {
        outcome.set("serve_p95_ms", p95, n);
        outcome.set("serve_p99_ms", p99, n);
        outcome.set("serve.limit_miss_share", missed as f64 / n as f64, n);
        outcome.set("serve.generator_lag_ms_p99", quantile(&lag, 0.99), n);
        let tracer = tracer.as_ref().expect("traced pass has a tracer");
        let submit = tracer.durations_ms("serve.submit");
        outcome.set("serve.submit_ms", median(&submit), submit.len());
        let direct = outcome.get("serve.direct_execute_ms").unwrap_or(0.0);
        outcome.set("serve.overhead_ms", p50 - direct, n);
        for (metric, tenant) in [
            ("serve.dashboard_p95_ms", 0),
            ("serve.analyst_p95_ms", 1),
            ("serve.batch_p95_ms", 2),
        ] {
            let of: Vec<f64> = served
                .iter()
                .filter(|s| s.tenant == tenant)
                .map(|s| s.latency_ms)
                .collect();
            outcome.set(metric, quantile(&of, 0.95), of.len());
        }
        let completed = report.completed as usize;
        outcome.set(
            "serve.queue_wait_p50_ms",
            ms(report.queue_wait_p50),
            completed,
        );
        outcome.set(
            "serve.queue_wait_p95_ms",
            ms(report.queue_wait_p95),
            completed,
        );
        for (metric, count) in [
            ("serve.fused_groups", report.fused_groups),
            ("serve.requests_fused", report.sql_requests_fused),
            ("serve.fused_group_size_p95", report.fused_group_size_p95),
            ("serve.micro_batches", report.micro_batches),
            ("serve.coalesced_points", report.coalesced_points),
            ("serve.shed", report.shed + report.rejected),
            ("serve.timeouts", report.timeouts),
            ("serve.retries", report.retries),
            ("serve.plan_cache_hits", report.plan_cache_hits),
            ("serve.plan_cache_misses", report.plan_cache_misses),
            ("serve.single_flight_waits", report.single_flight_waits),
            ("serve.model_cache_hits", report.model_cache_hits),
            ("serve.model_cache_misses", report.model_cache_misses),
            ("serve.epoch_bumps", epoch_bumps),
        ] {
            outcome.set(metric, count as f64, 1);
        }
        if !writes.is_empty() {
            outcome.set("write_ms_p50", median(&write_ms), writes.len());
            let grown: Vec<f64> = writes.iter().map(|w| w.journal_bytes as f64).collect();
            outcome.set(
                "storage.journal_bytes_per_write",
                median(&grown),
                grown.len(),
            );
        }
    }

    // serve.churn: restart from the bytes on disk and ask the hot query again
    let Ready { server, reference } = ready;
    drop(server.shutdown());
    if let Some(dir) = &dir {
        let snapshot = std::fs::metadata(dir.join("snapshot.rvs")).map_or(0, |m| m.len());
        let t = Instant::now();
        let reopened =
            Server::open_durable(server_config(&inputs, Some(dir)), RavenConfig::default())
                .map_err(|e| format!("reopening the durable store: {e}"))?;
        let recover_ms = ms(t.elapsed());
        let slot = Slot {
            tenant: 0,
            ask: Ask::Sql { variant: None },
        };
        outcome.attempted += 1;
        let answer = reopened
            .submit_as(&inputs.profiles[0].name, request_for(&inputs, &slot))
            .and_then(Ticket::wait);
        match check(&inputs, &reference, &slot, answer) {
            Ok(()) => outcome.notes.push(format!(
                "durable reopen in {recover_ms:.3} ms returned the pre-restart result"
            )),
            Err(e) => {
                outcome.failed += 1;
                outcome.notes.push(format!("after the durable reopen: {e}"));
            }
        }
        if args.trace {
            outcome.set("storage.recover_ms", recover_ms, 1);
            outcome.set("storage.snapshot_bytes", snapshot as f64, 1);
        }
    }
    if args.trace {
        outcome.set(
            "failed_share",
            outcome.failed_share(),
            outcome.attempted as usize,
        );
        crate::write_trace(args, tracer.as_ref().expect("traced pass has a tracer"))?;
    }
    Ok(outcome)
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A directory under the benchmark's output directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(out_dir: &Path) -> Result<ScratchDir, String> {
        let dir = out_dir.join(format!("tmp-{}", std::process::id()));
        // a crashed earlier run with the same pid may have left one behind
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_instant_and_reports_generator_lag() {
        // 1 ms apart; the first submit stalls the generator for 20 ms, so the
        // operations scheduled during the stall are sent late, and their
        // latency counts the wait although each completes at once
        let stall = Duration::from_millis(20);
        let ops = paced(
            8,
            1_000.0,
            |i| {
                if i == 0 {
                    std::thread::sleep(stall);
                }
            },
            |i, ()| i,
        );
        assert_eq!(
            ops.iter().map(|p| p.result).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        for (i, p) in ops.iter().enumerate() {
            assert_eq!(ms(p.due - ops[0].due).round(), i as f64, "fixed schedule");
            assert!(p.latency_ms() >= p.lag_ms());
        }
        for (i, p) in ops.iter().enumerate().skip(1) {
            let owed = ms(stall) - i as f64;
            assert!(p.lag_ms() >= owed, "op {i} lag {} < {owed}", p.lag_ms());
            assert!(
                p.latency_ms() >= owed,
                "op {i} latency {} < {owed}",
                p.latency_ms()
            );
        }
        assert!(
            ops[0].latency_ms() >= ms(stall),
            "the stalled submit itself"
        );
        assert!(ops[0].lag_ms() < ops[1].lag_ms());
    }
}
