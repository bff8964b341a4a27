//! Chaos tests: the serving tier under the **global** fault-injection
//! registry (`raven_columnar::failpoint`) — transparent retry with a new
//! single-flight leader after a failed prepare, typed deadline timeouts,
//! the per-fingerprint circuit breaker, and degraded read-only mode with
//! probe-driven recovery.
//!
//! Every test installs a process-wide schedule, so they serialize on one
//! mutex and clear the registry on exit (a drop guard covers panics).
//! Isolation-friendly fault tests (parallel proptests) live in
//! `raven_storage`'s `ScriptedIo` suite instead.

use raven_columnar::failpoint;
use raven_columnar::{Table, TableBuilder, Value};
use raven_core::{RavenConfig, RavenError, RuntimePolicy};
use raven_ml::{
    InputKind, Operator, Pipeline, PipelineInput, PipelineNode, Tree, TreeEnsemble, TreeNode,
};
use raven_serve::{Request, ServeError, Server, ServerConfig, Ticket};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serialize tests that touch the process-wide failpoint registry, and
/// guarantee the registry is cleared when the test ends — even by panic —
/// so a failing test cannot leak faults into the next one.
fn install_faults(spec: &str) -> FaultGuard {
    static REGISTRY: Mutex<()> = Mutex::new(());
    let lock = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    failpoint::configure(spec).expect("valid fault spec");
    FaultGuard { _lock: lock }
}

struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn patients(rows: usize) -> Table {
    TableBuilder::new("patients")
        .add_i64("id", (0..rows as i64).collect())
        .add_f64(
            "age",
            (0..rows)
                .map(|i| 20.0 + 60.0 * (i as f64 / rows.max(1) as f64))
                .collect(),
        )
        .add_f64("rcount", (0..rows).map(|i| (i % 5) as f64).collect())
        .build()
        .unwrap()
}

/// A fixed decision tree over (age, rcount) — deterministic, no training.
fn risk_pipeline(name: &str, high_leaf: f64) -> Pipeline {
    let tree = Tree {
        nodes: vec![
            TreeNode::Branch {
                feature: 0,
                threshold: 60.0,
                left: 1,
                right: 2,
            },
            TreeNode::Branch {
                feature: 1,
                threshold: 2.0,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { value: high_leaf },
            TreeNode::Leaf { value: 0.1 },
            TreeNode::Leaf { value: 0.5 },
        ],
        root: 0,
    };
    Pipeline::new(
        name,
        vec![
            PipelineInput {
                name: "age".into(),
                kind: InputKind::Numeric,
            },
            PipelineInput {
                name: "rcount".into(),
                kind: InputKind::Numeric,
            },
        ],
        vec![
            PipelineNode {
                name: "concat".into(),
                op: Operator::Concat,
                inputs: vec!["age".into(), "rcount".into()],
                output: "features".into(),
            },
            PipelineNode {
                name: "model".into(),
                op: Operator::TreeEnsemble(TreeEnsemble::single_tree(tree, 2)),
                inputs: vec!["features".into()],
                output: "score".into(),
            },
        ],
        "score",
    )
    .unwrap()
}

fn session(rows: usize) -> raven_core::RavenSession {
    let mut s = raven_core::RavenSession::with_config(RavenConfig {
        runtime_policy: RuntimePolicy::NoTransform,
        ..Default::default()
    });
    s.register_table(patients(rows));
    s.register_model(risk_pipeline("risk_model", 0.9));
    s
}

const QUERY: &str = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 30 AND p.risk >= 0.0";

fn sorted_ids(batch: &raven_columnar::Batch) -> Vec<i64> {
    let mut v = batch
        .column_by_name("id")
        .unwrap()
        .as_i64()
        .unwrap()
        .to_vec();
    v.sort();
    v
}

/// Satellite regression: a single-flight leader whose prepare fails must
/// wake its followers with the error, and the *next* request for the same
/// key must elect a NEW leader instead of inheriting the dead flight's
/// stale error forever.
#[test]
fn failed_leader_is_replaced_on_the_next_request() {
    let _faults = install_faults("serve.prepare=fail");
    let server = Server::new(
        session(100),
        ServerConfig {
            worker_threads: 1,
            retry_max: 0, // observe the raw injected error, no masking
            ..Default::default()
        },
    );
    let err = server.sql(QUERY).unwrap_err();
    match &err {
        ServeError::Session(RavenError::Storage(msg)) => {
            assert!(msg.contains("injected fault: serve.prepare"), "{msg}");
        }
        other => panic!("expected the injected storage error, got {other}"),
    }
    // the schedule faulted only the first prepare: the second request must
    // go through a fresh leader and succeed
    let out = server.sql(QUERY).expect("new leader prepares cleanly");
    assert_eq!(sorted_ids(&out.batch).len(), out.batch.num_rows());
    let report = server.shutdown();
    assert_eq!(report.failed, 1);
    assert_eq!(report.retries, 0);
    // two real prepare attempts reached the session: fail, then success
    assert_eq!(report.plan_cache_misses, 2, "{report}");
}

/// Transient prepare faults are retried transparently: with two injected
/// failures and a retry budget of two, every concurrent duplicate (leaders
/// *and* the followers that were woken with the leader's error) succeeds,
/// and nothing hangs on a dead flight.
#[test]
fn transient_prepare_faults_retry_through_a_new_leader() {
    let _faults = install_faults("serve.prepare=fail*2");
    let oracle = sorted_ids(&session(100).sql(QUERY).unwrap().batch);
    let server = Server::new(
        session(100),
        ServerConfig {
            worker_threads: 2,
            sql_fusion: false, // force independent drives → real contention
            retry_max: 2,
            retry_base: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| server.submit(Request::Sql(QUERY.into())).unwrap())
        .collect();
    for t in tickets {
        let out = t.wait_sql().expect("retries outlive the fault window");
        assert_eq!(sorted_ids(&out.batch), oracle);
    }
    let report = server.shutdown();
    assert_eq!(report.failed, 0, "{report}");
    assert!(report.retries >= 1, "{report}");
    assert!(failpoint::injected_total() >= 2);
}

/// A request whose deadline elapses while it waits behind a slow drive is
/// answered with a typed `Timeout` and never executed.
#[test]
fn queued_request_past_its_deadline_gets_a_typed_timeout() {
    let _faults = install_faults("serve.execute=delay(150)");
    let server = Server::new(
        session(100),
        ServerConfig {
            worker_threads: 1,
            request_deadline: Some(Duration::from_millis(30)),
            retry_max: 0,
            ..Default::default()
        },
    );
    let slow = server.submit(Request::Sql(QUERY.into())).unwrap();
    // let the lone worker pick up the delayed drive, then queue behind it
    std::thread::sleep(Duration::from_millis(40));
    let starved = server.submit(Request::Sql(QUERY.into())).unwrap();
    assert!(slow.wait_sql().is_ok(), "the delayed drive still succeeds");
    match starved.wait_sql().unwrap_err() {
        ServeError::Timeout { deadline_ms } => assert_eq!(deadline_ms, 30),
        other => panic!("expected Timeout, got {other}"),
    }
    let report = server.shutdown();
    assert_eq!(report.timeouts, 1, "{report}");
}

/// Repeated engine-side failures of one fingerprint trip its circuit
/// breaker (typed fast-fail, no execution), and the breaker re-admits a
/// half-open trial after the cooldown.
#[test]
fn circuit_breaker_opens_then_recovers_after_cooldown() {
    let _faults = install_faults("serve.execute=fail*2");
    let server = Server::new(
        session(100),
        ServerConfig {
            worker_threads: 1,
            retry_max: 0,
            circuit_threshold: 2,
            circuit_cooldown: Duration::from_millis(100),
            ..Default::default()
        },
    );
    for _ in 0..2 {
        let err = server.sql(QUERY).unwrap_err();
        assert!(
            matches!(err, ServeError::Session(RavenError::Storage(_))),
            "{err}"
        );
    }
    // threshold reached: fast-fail without consuming a failpoint hit
    let before = failpoint::injected_total();
    match server.sql(QUERY).unwrap_err() {
        ServeError::CircuitOpen { canonical } => assert!(!canonical.is_empty()),
        other => panic!("expected CircuitOpen, got {other}"),
    }
    assert_eq!(
        failpoint::injected_total(),
        before,
        "breaker must not execute"
    );
    // after the cooldown the half-open trial runs — the fault window is
    // spent, so it succeeds and closes the breaker
    std::thread::sleep(Duration::from_millis(150));
    assert!(server.sql(QUERY).is_ok());
    assert!(server.sql(QUERY).is_ok());
    let report = server.shutdown();
    assert_eq!(report.circuit_open_rejections, 1, "{report}");
}

/// A persistent journal failure flips the server into degraded read-only
/// mode: queries keep serving the consistent in-memory catalog, mutations
/// are rejected with a typed error, and once the fault clears the
/// background probe repairs the store and lifts the mode.
#[test]
fn degraded_read_only_mode_serves_reads_and_recovers() {
    // hold the registry for the whole test, fault-free while it sets up:
    // another test's schedule must not fire inside this one's healthy phase
    let _guard = install_faults("");
    let base = std::env::temp_dir().join(format!("raven-chaos-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let config = ServerConfig {
        worker_threads: 1,
        data_dir: Some(base.clone()),
        probe_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let session_config = RavenConfig {
        runtime_policy: RuntimePolicy::NoTransform,
        ..Default::default()
    };
    let server = Server::open_durable(config, session_config).expect("durable server");
    server.register_table(patients(100)).expect("healthy table");
    server
        .register_model(risk_pipeline("risk_model", 0.9))
        .expect("healthy model");
    let baseline = sorted_ids(&server.sql(QUERY).unwrap().batch);

    // break every journal fsync from here on: the next mutation cannot be
    // made durable and must degrade the server instead of lying
    failpoint::configure("storage.journal.sync=fail*inf").expect("valid fault spec");
    let err = server
        .register_model(risk_pipeline("risk2", 0.8))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Session(RavenError::Storage(_))),
        "{err}"
    );
    assert!(server.report().degraded_mode, "must enter degraded mode");
    // mutations: typed rejection, no journal traffic
    match server
        .register_model(risk_pipeline("risk3", 0.7))
        .unwrap_err()
    {
        ServeError::ReadOnly { reason } => assert!(!reason.is_empty()),
        other => panic!("expected ReadOnly, got {other}"),
    }
    // queries: still served, bitwise the same pre-failure state
    assert_eq!(sorted_ids(&server.sql(QUERY).unwrap().batch), baseline);

    // the fault clears → the probe repairs the journal and lifts the mode
    failpoint::clear();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.report().degraded_mode {
        assert!(Instant::now() < deadline, "probe never recovered");
        std::thread::sleep(Duration::from_millis(10));
    }
    server
        .register_model(risk_pipeline("risk2", 0.8))
        .expect("mutations work again after recovery");
    assert_eq!(sorted_ids(&server.sql(QUERY).unwrap().batch), baseline);
    let report = server.shutdown();
    assert_eq!(report.degraded_entries, 1, "{report}");
    assert!(report.mutations_rejected >= 1, "{report}");
    assert!(!report.degraded_mode, "{report}");
    let _ = std::fs::remove_dir_all(&base);
}

/// A point request hitting a prepare fault is retried like SQL, and the
/// score matches the fault-free oracle bitwise.
#[test]
fn point_requests_retry_transient_prepare_faults() {
    let _faults = install_faults("serve.prepare=fail");
    let server = Server::new(
        session(100),
        ServerConfig {
            worker_threads: 1,
            retry_max: 2,
            retry_base: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let row = vec![
        ("age".to_string(), Value::Float64(65.0)),
        ("rcount".to_string(), Value::Float64(1.0)),
    ];
    let p = server.point(QUERY, row).expect("retry outlives the fault");
    assert_eq!(p.score, 0.9);
    let report = server.shutdown();
    assert!(report.retries >= 1, "{report}");
    assert_eq!(report.failed, 0, "{report}");
}
