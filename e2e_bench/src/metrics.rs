//! The benchmark's vocabulary: workload and metric names, units and
//! directions. `BENCHMARK.json` repeats these tables and a test holds the two
//! equal, so a name cannot drift between the code and the contract.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch.score",
        why: "credit_card 250k rows, GB 100x6, no predicate, dop 1: ml featurize+score kernels are ~all of the time; relational and serve changes must not move it",
    },
    Workload {
        name: "batch.score_filter",
        why: "same table and model with WHERE p.score > 0.5: output predicate, selection vector and the gather at the output boundary beside the same kernels",
    },
    Workload {
        name: "batch.mltosql_tree",
        why: "credit_card 30k rows, decision tree depth 8: the default heuristic picks MLtoSQL, so relational::eval runs the CASE expression and ml scores nothing",
    },
    Workload {
        name: "batch.join_star",
        why: "five_table_star 100k fact rows in 16 partitions, RF 30x8, dop 2: scan/hash-join/probe dominate; the only batch workload that drives the pool partition-parallel",
    },
    Workload {
        name: "batch.prune",
        why: "hospital 400k rows in 64 age partitions, RF 30x8, age >= 93 AND asthma = 1: pruning skips ~98% of the scan, so parse+optimise+compile is a large share",
    },
    Workload {
        name: "serve.mixed",
        why: "hospital 20k rows, GB 60x6, three tenants, 30% point requests, literal pool 8 fits the plan cache: admission, DRR queueing, fusion, micro-batching and the drive",
    },
    Workload {
        name: "serve.churn",
        why: "same traffic on a durable store, literal pool 256 exceeds the plan cache, a write every 100 ms: invalidation, re-prepare, capacity misses and journal fsync beside reads",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees; measured with tracing off, every one on
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("latency_ms_p50", "ms", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Single-layer metrics from the traced pass; no bounds. A metric that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("failed_share", "share", "lower"),
    layer("gen_s", "s", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("query_ms_p95", "ms", "lower"),
    layer("ir.parse_ms", "ms", "lower"),
    layer("ir.node_count", "count", "lower"),
    layer("core.cross_opt_ms", "ms", "lower"),
    layer("core.data_induced_ms", "ms", "lower"),
    layer("core.optimize_ms", "ms", "lower"),
    layer("core.removed_inputs", "count", "higher"),
    layer("core.pruned_tree_nodes", "count", "higher"),
    layer("core.transform_mltosql", "count", "lower"),
    layer("core.transform_fallback", "count", "lower"),
    layer("core.lower_compile_ms", "ms", "lower"),
    layer("core.execute_ms", "ms", "lower"),
    layer("core.execute_other_ms", "ms", "lower"),
    layer("core.report_data_ms", "ms", "lower"),
    layer("core.report_ml_ms", "ms", "lower"),
    layer("ml.compile_ms", "ms", "lower"),
    layer("ml.score_ms", "ms", "lower"),
    layer("ml.rows_per_s", "rows/s", "higher"),
    layer("relational.optimize_ms", "ms", "lower"),
    layer("relational.exec_ms", "ms", "lower"),
    layer("relational.rows_scanned", "count", "lower"),
    layer("relational.bytes_scanned", "bytes", "lower"),
    layer("relational.partitions_pruned", "count", "higher"),
    layer("relational.partitions_scanned", "count", "lower"),
    layer("relational.join_build_rows", "count", "lower"),
    layer("relational.probe_batches", "count", "lower"),
    layer("relational.materializations", "count", "lower"),
    layer("serve_p95_ms", "ms", "lower"),
    layer("serve_p99_ms", "ms", "lower"),
    layer("serve.limit_miss_share", "share", "lower"),
    layer("serve.generator_lag_ms_p99", "ms", "lower"),
    layer("serve.submit_ms", "ms", "lower"),
    layer("serve.direct_execute_ms", "ms", "lower"),
    layer("serve.overhead_ms", "ms", "lower"),
    layer("serve.dashboard_p95_ms", "ms", "lower"),
    layer("serve.analyst_p95_ms", "ms", "lower"),
    layer("serve.batch_p95_ms", "ms", "lower"),
    layer("serve.queue_wait_p50_ms", "ms", "lower"),
    layer("serve.queue_wait_p95_ms", "ms", "lower"),
    layer("serve.fused_groups", "count", "higher"),
    layer("serve.requests_fused", "count", "higher"),
    layer("serve.fused_group_size_p95", "count", "higher"),
    layer("serve.micro_batches", "count", "lower"),
    layer("serve.coalesced_points", "count", "higher"),
    layer("serve.shed", "count", "lower"),
    layer("serve.timeouts", "count", "lower"),
    layer("serve.retries", "count", "lower"),
    layer("serve.plan_cache_hits", "count", "higher"),
    layer("serve.plan_cache_misses", "count", "lower"),
    layer("serve.single_flight_waits", "count", "lower"),
    layer("serve.model_cache_hits", "count", "higher"),
    layer("serve.model_cache_misses", "count", "lower"),
    layer("serve.epoch_bumps", "count", "lower"),
    layer("write_ms_p50", "ms", "lower"),
    layer("storage.journal_bytes_per_write", "bytes", "lower"),
    layer("storage.snapshot_bytes", "bytes", "lower"),
    layer("storage.recover_ms", "ms", "lower"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value, samples behind it)`.
    values: Vec<(&'static str, f64, usize)>,
    /// Facts printed beside the metrics but outside the contract (derived
    /// numbers, choices the program made, observations).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is in neither table"
        );
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every metric of `defs` by name with unit and sample count, one per
    /// line, for the reader of the terminal.
    pub fn print(&self, workload: &str, defs: &[MetricDef]) {
        for def in defs {
            let (value, samples) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == def.name)
                .map_or((0.0, 0), |(_, v, s)| (*v, *s));
            println!(
                "{workload:<20} {:<34} {value:>16.4} {:<7} n={samples}",
                def.name, def.unit
            );
        }
        println!(
            "{workload:<20} attempted={} failed={} failed_share={:.6}",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for note in &self.notes {
            println!("{workload:<20} note: {note}");
        }
    }

    /// The result object the contract asks for as the last line of output.
    pub fn result_json(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().map(|def| {
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(self.get(def.name).unwrap_or(0.0))),
                    ("unit", Json::str(def.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
