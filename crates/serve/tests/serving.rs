//! Integration tests for the serving subsystem: plan-cache correctness and
//! epoch invalidation, micro-batched point scoring, admission control, and
//! concurrent-client parity with direct session execution.

use raven_columnar::{Table, TableBuilder, Value};
use raven_core::{RavenConfig, RavenSession, RuntimePolicy};
use raven_ml::{
    InputKind, MlRuntime, Operator, Pipeline, PipelineInput, PipelineNode, Tree, TreeEnsemble,
    TreeNode,
};
use raven_serve::{QosConfig, Request, ServeError, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn patients(rows: usize, age_lo: f64, age_hi: f64) -> Table {
    let span = (age_hi - age_lo).max(1.0);
    TableBuilder::new("patients")
        .add_i64("id", (0..rows as i64).collect())
        .add_f64(
            "age",
            (0..rows)
                .map(|i| age_lo + span * (i as f64 / rows.max(1) as f64))
                .collect(),
        )
        .add_f64("rcount", (0..rows).map(|i| (i % 5) as f64).collect())
        .build()
        .unwrap()
}

/// A fixed decision tree over (age, rcount): age > 60 → 0.9, else rcount
/// splits 0.1 / 0.5. Deterministic, no training.
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

fn session(rows: usize, age_lo: f64, age_hi: f64) -> RavenSession {
    let mut s = RavenSession::with_config(RavenConfig {
        runtime_policy: RuntimePolicy::NoTransform,
        ..Default::default()
    });
    s.register_table(patients(rows, age_lo, age_hi));
    s.register_model(risk_pipeline("risk_model", 0.9));
    s
}

const QUERY: &str = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 30 AND p.risk >= 0.0";

/// Canonical byte-level rendering of a batch: schema field order + every
/// column's values. (Plain `{:?}` on a batch includes the schema's name→index
/// HashMap, whose iteration order is nondeterministic.)
fn canonical(batch: &raven_columnar::Batch) -> String {
    format!("{:?} {:?}", batch.schema().names(), batch.columns())
}

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

#[test]
fn equivalent_spellings_share_one_cached_plan() {
    let server = Server::new(
        session(200, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            ..Default::default()
        },
    );
    let a = server.sql(QUERY).unwrap();
    // same query, different whitespace / keyword case / trailing semicolon
    let variant = "select   d.id , p.risk\n from predict( model = risk_model , \
                   data = patients as d ) with (risk float) as p \
                   where d.age >= 30 and p.risk >= 0.0 ;";
    let b = server.sql(variant).unwrap();
    assert_eq!(sorted_ids(&a.batch), sorted_ids(&b.batch));
    let report = server.report();
    assert_eq!(
        report.plan_cache_misses, 1,
        "one prepare for both spellings"
    );
    assert_eq!(report.plan_cache_hits, 1);
}

#[test]
fn distinct_literals_get_distinct_plans() {
    let server = Server::new(
        session(200, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            ..Default::default()
        },
    );
    let lo = server.sql(QUERY).unwrap();
    let hi = server
        .sql(&QUERY.replace("d.age >= 30", "d.age >= 70"))
        .unwrap();
    assert!(lo.report.output_rows > hi.report.output_rows);
    let report = server.report();
    assert_eq!(report.plan_cache_misses, 2, "distinct literals never share");
    assert_eq!(report.plan_cache_hits, 0);
}

#[test]
fn register_table_invalidates_cached_plans() {
    // ages 20..50: data-induced optimization bakes "age ≤ 50" into the
    // prepared model, so serving the stale plan on the new 80..95 table
    // would produce wrong scores
    let server = Server::new(
        session(100, 20.0, 50.0),
        ServerConfig {
            worker_threads: 2,
            ..Default::default()
        },
    );
    let old = server.sql(QUERY).unwrap();
    assert!(old
        .batch
        .column_by_name("risk")
        .unwrap()
        .as_f64()
        .unwrap()
        .iter()
        .all(|r| *r < 0.9));

    server.register_table(patients(100, 80.0, 95.0)).unwrap();
    let new = server.sql(QUERY).unwrap();
    // fresh session over the new data is the ground truth
    let expected = session(100, 80.0, 95.0).sql(QUERY).unwrap();
    assert_eq!(sorted_ids(&new.batch), sorted_ids(&expected.batch));
    assert!(new
        .batch
        .column_by_name("risk")
        .unwrap()
        .as_f64()
        .unwrap()
        .iter()
        .all(|r| (*r - 0.9).abs() < 1e-12));
    let report = server.report();
    assert_eq!(
        report.plan_cache_misses, 2,
        "registration must force a re-prepare"
    );
}

#[test]
fn register_model_invalidates_cached_plans() {
    let server = Server::new(
        session(100, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            ..Default::default()
        },
    );
    let q = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
             WITH (risk float) AS p WHERE d.age >= 61 AND p.risk >= 0.85";
    let old = server.sql(q).unwrap();
    assert!(old.report.output_rows > 0);
    // replace the model with one whose high-age leaf scores 0.2: the same
    // query must now return zero rows
    server
        .register_model(risk_pipeline("risk_model", 0.2))
        .unwrap();
    let new = server.sql(q).unwrap();
    assert_eq!(new.report.output_rows, 0);
    assert_eq!(server.report().plan_cache_misses, 2);
}

#[test]
fn micro_batched_points_match_individual_scoring() {
    let server = Server::new(
        session(50, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            micro_batch_size: 8,
            micro_batch_wait: Duration::from_millis(200),
            ..Default::default()
        },
    );
    let rows: Vec<Vec<(String, Value)>> = (0..8)
        .map(|i| {
            vec![
                ("age".to_string(), Value::Float64(35.0 + 7.0 * i as f64)),
                ("rcount".to_string(), Value::Float64((i % 5) as f64)),
            ]
        })
        .collect();
    // submit all tickets first so the single worker can coalesce them
    let tickets: Vec<_> = rows
        .iter()
        .map(|row| {
            server
                .submit(Request::Point {
                    sql: QUERY.to_string(),
                    row: row.clone(),
                })
                .unwrap()
        })
        .collect();
    let predictions: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait_point().unwrap())
        .collect();

    // ground truth: score each row alone with the bare runtime and the
    // statement's point pipeline (cross-optimized, no data-induced pruning)
    let prepared = server.with_session(|s| s.prepare(QUERY).unwrap());
    let runtime = MlRuntime::new();
    for (row, prediction) in rows.iter().zip(&predictions) {
        let batch = raven_columnar::Batch::from_rows(
            Arc::new(
                raven_columnar::Schema::new(vec![
                    raven_columnar::Field::new("age", raven_columnar::DataType::Float64),
                    raven_columnar::Field::new("rcount", raven_columnar::DataType::Float64),
                ])
                .unwrap(),
            ),
            &[vec![row[0].1.clone(), row[1].1.clone()]],
        )
        .unwrap();
        let expected = runtime
            .run_batch(prepared.point_pipeline(), &batch)
            .unwrap()[0];
        assert_eq!(prediction.score, expected);
    }
    let report = server.report();
    assert_eq!(report.point_requests, 8);
    assert!(
        report.coalesced_points >= 2,
        "at least one micro-batch should coalesce, got report:\n{report}"
    );
}

#[test]
fn point_rows_violating_predicates_are_rejected() {
    let server = Server::new(
        session(50, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            micro_batch_wait: Duration::ZERO,
            ..Default::default()
        },
    );
    // QUERY requires age >= 30; this row has age 25
    let err = server
        .point(
            QUERY,
            vec![
                ("age".to_string(), Value::Float64(25.0)),
                ("rcount".to_string(), Value::Float64(1.0)),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::InvalidRequest(_)), "{err}");
    // a satisfying row still scores
    let ok = server
        .point(
            QUERY,
            vec![
                ("age".to_string(), Value::Float64(65.0)),
                ("rcount".to_string(), Value::Float64(1.0)),
            ],
        )
        .unwrap();
    assert_eq!(ok.score, 0.9);
}

#[test]
fn admission_control_sheds_load() {
    let server = Server::new(
        session(50, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            max_in_flight: 0,
            ..Default::default()
        },
    );
    let err = server.sql(QUERY).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { limit: 0 }), "{err}");
    assert_eq!(server.report().rejected, 1);
}

#[test]
fn concurrent_clients_match_sequential_session() {
    let base = session(300, 20.0, 90.0);
    let queries: Vec<String> = vec![
        QUERY.to_string(),
        QUERY.replace("d.age >= 30", "d.age >= 50"),
        QUERY.replace("p.risk >= 0.0", "p.risk >= 0.5"),
        QUERY.replace("d.age >= 30", "d.age >= 85"),
    ];
    let expected: Vec<String> = queries
        .iter()
        .map(|q| canonical(&base.sql(q).unwrap().batch))
        .collect();

    let server = Arc::new(Server::new(
        base.clone(),
        ServerConfig {
            worker_threads: 4,
            ..Default::default()
        },
    ));
    let mut handles = Vec::new();
    for client in 0..4usize {
        let server = server.clone();
        let queries = queries.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..5 {
                let idx = (client + round) % queries.len();
                let out = server.sql(&queries[idx]).unwrap();
                assert_eq!(
                    canonical(&out.batch),
                    expected[idx],
                    "client {client} round {round} diverged"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let report = server.report();
    assert_eq!(report.sql_requests, 20);
    // single-flight prepare: workers racing on a cold fingerprint share one
    // prepare, so the miss count is exactly one per distinct query
    assert_eq!(report.plan_cache_misses as usize, queries.len());
    // every *drive* consults the plan cache exactly once; fused members ride
    // the leader's drive and never touch the cache, so the identity is over
    // drives = requests - (fused members - fused groups)
    let drives = report.sql_requests - report.sql_requests_fused + report.fused_groups;
    assert_eq!(
        report.plan_cache_hits + report.single_flight_waits + report.plan_cache_misses,
        drives
    );
}

/// 8 clients cold-missing the same fingerprint simultaneously must trigger
/// exactly one prepare: one leader runs it, everyone else either waits on the
/// single-flight latch or hits the cache the leader filled.
#[test]
fn cold_miss_stampede_prepares_once() {
    let clients = 8usize;
    let server = Arc::new(Server::new(
        session(200, 20.0, 80.0),
        ServerConfig {
            worker_threads: clients,
            ..Default::default()
        },
    ));
    let expected = sorted_ids(&session(200, 20.0, 80.0).sql(QUERY).unwrap().batch);
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = server.clone();
            let barrier = barrier.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let out = server.sql(QUERY).unwrap();
                assert_eq!(sorted_ids(&out.batch), expected);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let report = server.report();
    assert_eq!(report.sql_requests, clients as u64);
    assert_eq!(
        report.plan_cache_misses, 1,
        "stampede must be single-flight; report:\n{report}"
    );
    // identical concurrent requests may also fuse onto one drive; whatever
    // does not fuse must resolve through the cache or the single-flight latch
    let drives = report.sql_requests - report.sql_requests_fused + report.fused_groups;
    assert_eq!(
        report.plan_cache_hits + report.single_flight_waits,
        drives - 1
    );
}

/// Register-while-serving stress: concurrent clients hammer one cached query
/// while a writer re-registers the table and the model in a loop. Every
/// response must be byte-identical to one of the two consistent snapshots
/// (never a stale plan on new data or a torn mix), and single-flight +
/// epoch-keyed caching must bound the prepares to at most one per
/// (fingerprint, epoch).
#[test]
fn register_while_serving_never_serves_stale_results() {
    let dop = std::env::var("RAVEN_TEST_DOP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4usize);
    // snapshot A: ages 20..50 → every risk < 0.9; snapshot B: ages 80..95 →
    // every risk == 0.9 (the age>60 leaf). Model re-registration keeps the
    // same tree, so ground truth stays two-valued while epochs churn.
    let canon_a = canonical(&session(60, 20.0, 50.0).sql(QUERY).unwrap().batch);
    let canon_b = canonical(&session(60, 80.0, 95.0).sql(QUERY).unwrap().batch);
    assert_ne!(canon_a, canon_b);

    let server = Arc::new(Server::new(
        session(60, 20.0, 50.0),
        ServerConfig {
            worker_threads: dop,
            ..Default::default()
        },
    ));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let registrations = 24u64; // 16 table + 8 model epoch bumps
    let writer = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for i in 0..registrations {
                match i % 3 {
                    0 => server.register_table(patients(60, 80.0, 95.0)).unwrap(),
                    1 => server.register_table(patients(60, 20.0, 50.0)).unwrap(),
                    _ => server
                        .register_model(risk_pipeline("risk_model", 0.9))
                        .unwrap(),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        })
    };
    let clients: Vec<_> = (0..4usize)
        .map(|c| {
            let server = server.clone();
            let stop = stop.clone();
            let canon_a = canon_a.clone();
            let canon_b = canon_b.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || served == 0 {
                    let out = server.sql(QUERY).unwrap();
                    let got = canonical(&out.batch);
                    assert!(
                        got == canon_a || got == canon_b,
                        "client {c} got a result matching neither snapshot"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();
    writer.join().unwrap();
    let total: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);

    // after the churn: the server must agree with a fresh session over the
    // final snapshot (epoch churn ended on a model re-register, data = A)
    let last = server.sql(QUERY).unwrap();
    assert_eq!(canonical(&last.batch), canon_a);

    let report = server.report();
    // at most one prepare per (fingerprint, epoch): epochs changed
    // `registrations` times, plus the initial epoch and the final request
    assert!(
        report.plan_cache_misses <= registrations + 2,
        "more prepares than (fingerprint, epoch) pairs; report:\n{report}"
    );
    // cache accounting is per drive, not per request: fused members share the
    // leader's single cache consultation
    let drives = report.sql_requests - report.sql_requests_fused + report.fused_groups;
    assert_eq!(
        report.plan_cache_hits + report.single_flight_waits + report.plan_cache_misses,
        drives
    );
}

/// The in-flight cap covers queued-but-not-yet-executing requests: with a
/// paused scheduler (0 workers) every accepted request stays queued, so the
/// cap must bite at exactly `max_in_flight` submissions.
#[test]
fn queued_requests_count_against_the_in_flight_cap() {
    let server = Server::new(
        session(50, 20.0, 80.0),
        ServerConfig {
            worker_threads: 0,
            max_in_flight: 4,
            ..Default::default()
        },
    );
    let tickets: Vec<_> = (0..4)
        .map(|_| server.submit(Request::Sql(QUERY.to_string())).unwrap())
        .collect();
    let err = server.submit(Request::Sql(QUERY.to_string())).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { limit: 4 }), "{err}");
    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    // the queued tickets resolve (to ShuttingDown) rather than hanging
    for t in tickets {
        assert!(matches!(t.wait_sql(), Err(ServeError::ShuttingDown)));
    }
}

/// Per-tenant queue-depth backpressure: a greedy tenant fills its own lane
/// and gets `Overloaded { limit: max_tenant_queue }`; other tenants are
/// unaffected.
#[test]
fn tenant_queue_depth_backpressure_is_per_tenant() {
    let server = Server::new(
        session(50, 20.0, 80.0),
        ServerConfig {
            worker_threads: 0,
            qos: QosConfig {
                max_tenant_queue: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let sql = || Request::Sql(QUERY.to_string());
    let _g1 = server.submit_as("greedy", sql()).unwrap();
    let _g2 = server.submit_as("greedy", sql()).unwrap();
    let err = server.submit_as("greedy", sql()).unwrap_err();
    assert!(matches!(err, ServeError::Overloaded { limit: 2 }), "{err}");
    // the bound is per tenant, not global
    let _p = server.submit_as("patient", sql()).unwrap();

    let report = server.shutdown();
    assert_eq!(report.shed, 1);
    let greedy = report.tenant("greedy").unwrap();
    assert_eq!((greedy.submitted, greedy.rejected), (3, 1));
    let patient = report.tenant("patient").unwrap();
    assert_eq!((patient.submitted, patient.rejected), (1, 0));
}

/// Identical SQL requests queued while the lone worker is busy fuse onto one
/// drive, and every member receives the full (correct) result.
#[test]
fn queued_duplicates_fuse_onto_one_drive() {
    let server = Server::new(
        session(200, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            // a generous straggler window parks the lone worker on the point
            // micro-batch below, guaranteeing the SQL duplicates queue up
            // behind it and fuse on the next tick even on a loaded machine
            micro_batch_wait: Duration::from_millis(2_000),
            ..Default::default()
        },
    );
    let expected = sorted_ids(&session(200, 20.0, 80.0).sql(QUERY).unwrap().batch);

    let point = server
        .submit(Request::Point {
            sql: QUERY.to_string(),
            row: vec![
                ("age".to_string(), Value::Float64(65.0)),
                ("rcount".to_string(), Value::Float64(1.0)),
            ],
        })
        .unwrap();
    // let the worker dequeue the point request and park in its straggler wait
    std::thread::sleep(Duration::from_millis(100));
    let dups: Vec<_> = (0..4)
        .map(|_| server.submit(Request::Sql(QUERY.to_string())).unwrap())
        .collect();

    assert_eq!(point.wait_point().unwrap().score, 0.9);
    for t in dups {
        assert_eq!(sorted_ids(&t.wait_sql().unwrap().batch), expected);
    }
    let report = server.report();
    // The first duplicate's submit notify can cut the worker's straggler
    // wait short; if the point batch then finishes before the remaining
    // duplicates enqueue, the first SQL is popped solo (a timing race, not a
    // fusion bug). The property under test: everything queued together
    // fused onto a shared drive.
    assert!(report.fused_groups >= 1, "{report}");
    assert!(report.sql_requests_fused >= 3, "{report}");
    assert!(report.fused_group_size_p95 >= 3, "{report}");
}

/// `sql_fusion: false` (the one-drive-per-request oracle) pins one drive per
/// request: same scenario as above, but nothing fuses.
#[test]
fn fusion_off_pins_one_drive_per_request() {
    let server = Server::new(
        session(200, 20.0, 80.0),
        ServerConfig {
            worker_threads: 1,
            micro_batch_wait: Duration::from_millis(2_000),
            sql_fusion: false,
            ..Default::default()
        },
    );
    let expected = sorted_ids(&session(200, 20.0, 80.0).sql(QUERY).unwrap().batch);

    let point = server
        .submit(Request::Point {
            sql: QUERY.to_string(),
            row: vec![
                ("age".to_string(), Value::Float64(65.0)),
                ("rcount".to_string(), Value::Float64(1.0)),
            ],
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let dups: Vec<_> = (0..4)
        .map(|_| server.submit(Request::Sql(QUERY.to_string())).unwrap())
        .collect();

    assert_eq!(point.wait_point().unwrap().score, 0.9);
    for t in dups {
        assert_eq!(sorted_ids(&t.wait_sql().unwrap().batch), expected);
    }
    let report = server.report();
    assert_eq!(report.fused_groups, 0, "{report}");
    assert_eq!(report.sql_requests_fused, 0);
}
