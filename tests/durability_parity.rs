//! Durable-catalog parity suite (ISSUE 7): the recovery oracle is **bitwise
//! identity** — a session recovered from `RAVEN_DATA_DIR` (snapshot + journal
//! replay, no clean shutdown required) must be indistinguishable from a
//! session that never restarted: same schemas, same column bits (NaN
//! payloads, -0.0), same epochs, same query results.

use raven::prelude::*;
use raven_columnar::{partition_by_column, PartitionSpec, TableBuilder};
use raven_core::RuntimePolicy;
use raven_ml::{InputKind, Operator, PipelineInput, PipelineNode, Tree, TreeEnsemble, TreeNode};
use raven_serve::{Server, ServerConfig};
use std::path::PathBuf;

mod common;

const QUERY: &str = "SELECT d.id, p.risk FROM PREDICT(MODEL = risk_model, DATA = patients AS d) \
                     WITH (risk float) AS p WHERE d.age >= 30 AND p.risk >= 0.0";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raven-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn patient_table(rows: usize, seed: u64) -> Table {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let table = TableBuilder::new("patients")
        .add_i64("id", (0..rows as i64).collect())
        .add_f64(
            "age",
            (0..rows)
                .map(|i| {
                    // seed a few non-finite / signed-zero bits into a column
                    // the model does not read, so results stay well-defined
                    // while the catalog still has to round-trip them
                    rng.gen_range(18.0..95.0) + (i as f64) * 0.0
                })
                .collect(),
        )
        .add_f64(
            "noise",
            (0..rows)
                .map(|i| match i % 5 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect(),
        )
        .add_f64(
            "rcount",
            (0..rows).map(|_| rng.gen_range(0.0..5.0)).collect(),
        )
        .build()
        .unwrap();
    partition_by_column(
        &table,
        &PartitionSpec::ByRange {
            column: "age".into(),
            partitions: 4,
        },
    )
    .unwrap()
}

fn risk_pipeline(high_leaf: f64) -> Pipeline {
    let tree = Tree {
        nodes: vec![
            TreeNode::Branch {
                feature: 0,
                threshold: 60.0,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { value: 0.1 },
            TreeNode::Leaf { value: high_leaf },
        ],
        root: 0,
    };
    Pipeline::new(
        "risk_model",
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

fn config() -> RavenConfig {
    RavenConfig {
        runtime_policy: RuntimePolicy::NoTransform,
        degree_of_parallelism: common::extra_dop().unwrap_or(1),
        ..Default::default()
    }
}

/// Canonical byte-level rendering of a batch (plain `{:?}` would include the
/// schema's name→index HashMap, whose iteration order is nondeterministic).
fn canonical(batch: &Batch) -> String {
    format!("{:?} {:?}", batch.schema().names(), batch.columns())
}

/// Canonical rendering of a whole catalog: every table's schema, partition
/// layout, and column bits.
fn canonical_catalog(catalog: &Catalog) -> String {
    let mut out = String::new();
    for name in catalog.table_names() {
        let t = catalog.table(&name).unwrap();
        out.push_str(&format!(
            "{name} pc={:?} parts={} stats={:?}\n",
            t.partition_column(),
            t.partitions().len(),
            t.statistics()
        ));
        for p in t.partitions() {
            out.push_str(&canonical(p));
            out.push('\n');
        }
    }
    out
}

/// Journal-only recovery (no snapshot, simulated crash = drop without any
/// shutdown hook) is bitwise identical to a never-restarted session.
#[test]
fn warm_restart_matches_never_restarted_session() {
    let dir = tmp_dir("journal-only");
    let table = patient_table(300, 11);
    let pipeline = risk_pipeline(0.9);

    let mut reference = RavenSession::with_config(config());
    reference.register_table(table.clone());
    reference.register_model(pipeline.clone());
    let ref_out = reference.sql(QUERY).unwrap();

    {
        let (mut durable, info) = RavenSession::open_durable(&dir, config()).unwrap();
        assert!(!info.snapshot_loaded);
        assert_eq!(info.journal_records_replayed, 0);
        durable.register_table(table);
        durable.register_model(pipeline);
        let out = durable.sql(QUERY).unwrap();
        assert_eq!(canonical(&out.batch), canonical(&ref_out.batch));
        // crash: `durable` is dropped without any clean-shutdown step
    }

    let (recovered, info) = RavenSession::open_durable(&dir, config()).unwrap();
    assert!(!info.snapshot_loaded);
    assert_eq!(info.journal_records_replayed, 2);
    assert!(!info.journal_tail_truncated);
    assert_eq!(recovered.catalog().epoch(), reference.catalog().epoch());
    assert_eq!(recovered.registry().epoch(), reference.registry().epoch());
    assert_eq!(
        canonical_catalog(recovered.catalog()),
        canonical_catalog(reference.catalog())
    );
    let out = recovered.sql(QUERY).unwrap();
    assert_eq!(canonical(&out.batch), canonical(&ref_out.batch));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot + post-snapshot journal records compose to the same state the
/// never-restarted session reached.
#[test]
fn snapshot_and_journal_compose_bitwise() {
    let dir = tmp_dir("compose");
    let table_v1 = patient_table(200, 21);
    let table_v2 = patient_table(260, 22); // replaces v1 after the snapshot
    let pipeline = risk_pipeline(0.8);

    let mut reference = RavenSession::with_config(config());
    reference.register_table(table_v1.clone());
    reference.register_model(pipeline.clone());
    reference.register_table(table_v2.clone());
    let ref_out = reference.sql(QUERY).unwrap();

    {
        let (mut durable, _) = RavenSession::open_durable(&dir, config()).unwrap();
        durable.register_table(table_v1);
        durable.register_model(pipeline);
        durable.snapshot_with_plans(&[QUERY.to_string()]).unwrap();
        durable.register_table(table_v2); // lands in the compacted journal
    }

    let (recovered, info) = RavenSession::open_durable(&dir, config()).unwrap();
    assert!(info.snapshot_loaded);
    assert_eq!(info.journal_records_replayed, 1);
    assert_eq!(info.plan_fingerprints, vec![QUERY.to_string()]);
    assert_eq!(recovered.catalog().epoch(), reference.catalog().epoch());
    assert_eq!(recovered.registry().epoch(), reference.registry().epoch());
    assert_eq!(
        canonical_catalog(recovered.catalog()),
        canonical_catalog(reference.catalog())
    );
    let out = recovered.sql(QUERY).unwrap();
    assert_eq!(canonical(&out.batch), canonical(&ref_out.batch));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Epochs persist across snapshot + crash, so a warm restart can never hand
/// out a pre-crash epoch for different content (which would let a stale
/// plan-cache entry alias fresh state). Register,
/// snapshot, register again, crash, restart: the epoch counter must resume at
/// the pre-crash value and every new registration must move strictly beyond
/// it.
#[test]
fn epochs_resume_beyond_pre_crash_values() {
    let dir = tmp_dir("epochs");
    let (pre_crash_cat, pre_crash_reg) = {
        let (mut durable, _) = RavenSession::open_durable(&dir, config()).unwrap();
        durable.register_table(patient_table(50, 31)); // catalog epoch 1
        durable.register_model(risk_pipeline(0.9)); // registry epoch 1
        durable.snapshot_with_plans(&[]).unwrap();
        durable.register_model(risk_pipeline(0.2)); // registry epoch 2, journal only
        (durable.catalog().epoch(), durable.registry().epoch())
        // crash
    };
    assert_eq!((pre_crash_cat, pre_crash_reg), (1, 2));

    let (mut recovered, info) = RavenSession::open_durable(&dir, config()).unwrap();
    assert!(info.snapshot_loaded);
    assert_eq!(info.journal_records_replayed, 1);
    assert_eq!(recovered.catalog().epoch(), pre_crash_cat);
    assert_eq!(recovered.registry().epoch(), pre_crash_reg);
    // the recovered model is the *post*-snapshot one
    let out = recovered.sql(QUERY).unwrap();
    let risks = out.batch.column_by_name("risk").unwrap();
    assert!(risks.as_f64().unwrap().iter().all(|r| *r <= 0.2 + 1e-12));
    // new mutations advance strictly beyond every pre-crash epoch
    recovered.register_model(risk_pipeline(0.5));
    assert_eq!(recovered.registry().epoch(), pre_crash_reg + 1);
    recovered.register_table(patient_table(50, 32));
    assert_eq!(recovered.catalog().epoch(), pre_crash_cat + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn journal tail (crash mid-append) is truncated: the half-written
/// mutation is simply not there, everything before it is intact.
#[test]
fn torn_tail_recovers_the_intact_prefix() {
    let dir = tmp_dir("torn");
    {
        let (mut durable, _) = RavenSession::open_durable(&dir, config()).unwrap();
        durable.register_table(patient_table(60, 41));
        durable.register_model(risk_pipeline(0.9));
    }
    // chop 3 bytes off the journal: the model registration record is torn
    let journal = dir.join(raven::storage::JOURNAL_FILE);
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).unwrap();

    let (recovered, info) = RavenSession::open_durable(&dir, config()).unwrap();
    assert!(info.journal_tail_truncated);
    assert_eq!(info.journal_records_replayed, 1);
    assert_eq!(recovered.catalog().epoch(), 1);
    assert_eq!(recovered.registry().epoch(), 0);
    assert!(recovered.catalog().contains("patients"));
    assert!(recovered.registry().model_names().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end through the serving tier: restart between registration and
/// query. The restarted server must pre-warm the persisted hot plans and
/// serve bitwise-identical results, and the warm-restart metrics must be
/// populated.
#[test]
fn server_warm_restart_prewarms_and_matches() {
    let dir = tmp_dir("server");
    let server_config = ServerConfig {
        worker_threads: 2,
        data_dir: Some(dir.clone()),
        ..Default::default()
    };
    let first = {
        let server = Server::open_durable(server_config.clone(), config()).unwrap();
        server.register_table(patient_table(150, 51)).unwrap();
        server.register_model(risk_pipeline(0.9)).unwrap();
        let out = server.sql(QUERY).unwrap();
        server.snapshot_now().unwrap();
        drop(server); // no clean shutdown of the data dir
        canonical(&out.batch)
    };

    let server = Server::open_durable(server_config, config()).unwrap();
    let report = server.report();
    assert!(report.warm_restart_ms.is_some());
    assert_eq!(report.prewarmed_plans, 1, "hot plan must be re-prepared");
    assert_eq!(
        report.journal_records_replayed, 0,
        "snapshot compaction left an empty journal"
    );
    let out = server.sql(QUERY).unwrap();
    assert_eq!(canonical(&out.batch), first);
    let report = server.shutdown();
    assert!(
        report.plan_cache_hits >= 1,
        "first post-restart request must hit the pre-warmed plan cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Automatic compaction persists the hot plans a registration found in the
/// plan cache: the registration that crosses `compaction_threshold` clears
/// the cache, so the compaction must take its plan list from the entries
/// being cleared. After a restart every hot query is pre-warmed and serves
/// the pre-restart results bit for bit.
#[test]
fn automatic_compaction_persists_hot_plans() {
    let dir = tmp_dir("compaction");
    let server_config = ServerConfig {
        worker_threads: 2,
        data_dir: Some(dir.clone()),
        compaction_threshold: 3,
        ..Default::default()
    };
    let queries: Vec<String> = [30, 40, 50, 60]
        .iter()
        .map(|age| QUERY.replace("d.age >= 30", &format!("d.age >= {age}")))
        .collect();
    let serve_all = |server: &Server| -> Vec<String> {
        queries
            .iter()
            .map(|q| canonical(&server.sql(q).unwrap().batch))
            .collect()
    };
    let before = {
        let server = Server::open_durable(server_config.clone(), config()).unwrap();
        server.register_table(patient_table(150, 61)).unwrap();
        server.register_model(risk_pipeline(0.9)).unwrap();
        serve_all(&server);
        // the third journal record crosses the threshold: a background
        // compaction snapshots the catalog with the hot plan list
        server.register_table(patient_table(150, 62)).unwrap();
        let results = serve_all(&server);
        drop(server); // joins the compaction; no snapshot of its own
        results
    };

    let server = Server::open_durable(server_config, config()).unwrap();
    let report = server.report();
    assert_eq!(
        report.journal_records_replayed, 0,
        "compaction emptied the journal"
    );
    assert_eq!(
        report.prewarmed_plans,
        queries.len() as u64,
        "every hot query is pre-warmed"
    );
    assert_eq!(serve_all(&server), before);
    let report = server.shutdown();
    // the pre-warm's prepares are the only misses
    assert_eq!(report.plan_cache_misses, queries.len() as u64);
    assert_eq!(report.plan_cache_hits, queries.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
