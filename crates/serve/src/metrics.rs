//! Serving metrics: throughput, latency percentiles, cache effectiveness,
//! and micro-batching behaviour, collected lock-cheaply while the scheduler
//! runs and snapshotted into a [`ServingReport`].

use crate::sync::MutexExt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A bounded sample set and the RNG that maintains it, behind one lock so a
/// recording takes a single mutex on the hot path. Used for request
/// latencies, queue waits, and fused-group sizes.
#[derive(Debug)]
struct Reservoir {
    /// Recorded values, bounded by Algorithm-R reservoir sampling: sample
    /// `n` is kept with probability `RESERVOIR / n`, so memory stays
    /// O(RESERVOIR) on long-lived servers while the retained set remains a
    /// uniform sample of the **full history** (not a sliding recency window)
    /// and percentiles are unbiased estimates over every recorded value.
    samples: Vec<u64>,
    /// Values recorded so far (1-based sample count for Algorithm R).
    seen: u64,
    /// RNG for the reservoir's keep/evict draws.
    rng: StdRng,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            samples: Vec::new(),
            seen: 0,
            rng: StdRng::seed_from_u64(0x5EED_1A7E),
        }
    }
}

impl Reservoir {
    fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(value);
        } else {
            // Algorithm R (Vitter): keep sample n with probability
            // RESERVOIR / n by drawing a slot uniformly from 0..n and
            // overwriting only when it lands inside the reservoir. The
            // retained set stays a uniform sample of all n samples seen.
            let slot = self.rng.gen_range(0..self.seen as usize);
            if slot < RESERVOIR {
                self.samples[slot] = value;
            }
        }
    }

    /// Sorted copy of the retained samples.
    fn sorted(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank percentile over a sorted sample set (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p * sorted.len() as f64).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Per-tenant request accounting (QoS observability).
#[derive(Debug, Default, Clone)]
pub struct TenantStats {
    /// Requests this tenant submitted (accepted or not).
    pub submitted: u64,
    /// Requests completed (a response was delivered, success or error).
    pub completed: u64,
    /// Requests rejected by admission control, backpressure, or shedding.
    pub rejected: u64,
}

/// Shared counters updated by the scheduler workers.
#[derive(Debug, Default)]
pub struct ServingMetrics {
    /// When the first request was accepted (lock-free to read once set).
    started: OnceLock<Instant>,
    /// Nanoseconds from `started` to the most recent completion, **plus 1**
    /// (0 = no completion yet); `wall` spans first-request → last-completion
    /// so throughput does not decay while the server idles.
    last_completed_ns: AtomicU64,
    sql_requests: AtomicU64,
    point_requests: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    single_flight_waits: AtomicU64,
    micro_batches: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_points: AtomicU64,
    /// Completed requests (including any whose latency sample was evicted
    /// from the bounded reservoir).
    completed: AtomicU64,
    /// Warm-restart duration in nanoseconds **plus 1** (0 = server started
    /// cold, without a durable data directory).
    warm_restart_ns: AtomicU64,
    /// Journal records replayed over the snapshot at startup.
    journal_records_replayed: AtomicU64,
    /// Hot plans eagerly re-prepared at startup from the persisted
    /// fingerprint list.
    prewarmed_plans: AtomicU64,
    /// SQL drives whose fused group coalesced ≥ 2 requests.
    fused_groups: AtomicU64,
    /// SQL requests served from a fused drive they shared with at least one
    /// other request (members of groups ≥ 2, leaders included).
    sql_requests_fused: AtomicU64,
    /// Requests rejected by QoS (per-tenant backpressure or projected-wait
    /// load shedding) — disjoint from `rejected`, which counts the global
    /// in-flight admission limit.
    shed: AtomicU64,
    /// Exponential moving average of per-drive execution time in
    /// nanoseconds (α = 1/8), feeding the projected-wait shedding policy.
    /// Updated with a racy read-modify-write: it is a smoothing heuristic,
    /// a lost update just weights one sample differently.
    ema_exec_ns: AtomicU64,
    /// Requests whose deadline elapsed in the queue before a worker could
    /// run them (responded with [`crate::ServeError::Timeout`], never
    /// executed).
    timeouts: AtomicU64,
    /// Transparent retries of transient prepare/execute failures (each retry
    /// counted, not each retried request).
    retries: AtomicU64,
    /// Requests fast-failed because their fingerprint's circuit breaker was
    /// open.
    circuit_open_rejections: AtomicU64,
    /// Mutations rejected while the server was in degraded read-only mode.
    mutations_rejected: AtomicU64,
    /// Whether the server is currently in degraded read-only mode.
    degraded: AtomicBool,
    /// Times the server entered degraded read-only mode.
    degraded_entries: AtomicU64,
    /// Request latency (enqueue → response), per request even when requests
    /// share a fused or micro-batched drive.
    reservoir: Mutex<Reservoir>,
    /// Queue wait (enqueue → dequeue by a scheduler worker), per request.
    queue_wait: Mutex<Reservoir>,
    /// Fused-group sizes, one sample per SQL drive (singletons included, so
    /// the distribution reflects actual fusion behaviour: all-1s when
    /// fusion is off or traffic has no duplicates).
    group_sizes: Mutex<Reservoir>,
    /// Per-tenant accounting.
    tenants: Mutex<std::collections::HashMap<String, TenantStats>>,
}

/// Maximum retained latency samples.
const RESERVOIR: usize = 65_536;

impl ServingMetrics {
    pub(crate) fn mark_started(&self) {
        self.started.get_or_init(Instant::now);
    }

    pub(crate) fn record_sql(&self) {
        self.sql_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_point(&self) {
        self.point_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_plan_cache(&self, hit: bool) {
        if hit {
            self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request joined an in-flight prepare for the same (fingerprint,
    /// epoch) instead of preparing itself (single-flight).
    pub(crate) fn record_single_flight_wait(&self) {
        self.single_flight_waits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_micro_batch(&self, coalesced_requests: usize) {
        self.micro_batches.fetch_add(1, Ordering::Relaxed);
        if coalesced_requests > 1 {
            self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
            self.coalesced_points
                .fetch_add(coalesced_requests as u64, Ordering::Relaxed);
        }
    }

    /// Record the outcome of a durable warm restart (snapshot load + journal
    /// replay + cache pre-warm).
    pub(crate) fn record_warm_restart(
        &self,
        elapsed: Duration,
        journal_records: u64,
        prewarmed: u64,
    ) {
        self.warm_restart_ns
            .store(elapsed.as_nanos() as u64 + 1, Ordering::Relaxed);
        self.journal_records_replayed
            .store(journal_records, Ordering::Relaxed);
        self.prewarmed_plans.store(prewarmed, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if let Some(started) = self.started.get() {
            // monotonic under concurrent completions (+1 so 0 means "none")
            let ns = started.elapsed().as_nanos() as u64 + 1;
            self.last_completed_ns.fetch_max(ns, Ordering::Relaxed);
        }
        self.reservoir.plock().record(latency.as_nanos() as u64);
    }

    /// One request left the queue for a scheduler worker after waiting
    /// `wait` — recorded per request, including fused / micro-batched group
    /// members drained by an already-running worker.
    pub(crate) fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.plock().record(wait.as_nanos() as u64);
    }

    /// One SQL drive served a fused group of `size` requests (1 = ran
    /// alone).
    pub(crate) fn record_fused_group(&self, size: usize) {
        self.group_sizes.plock().record(size as u64);
        if size > 1 {
            self.fused_groups.fetch_add(1, Ordering::Relaxed);
            self.sql_requests_fused
                .fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    /// A request was rejected by QoS (tenant backpressure or projected-wait
    /// shedding).
    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one drive's execution time into the EMA the shedding policy
    /// projects queue wait from.
    pub(crate) fn record_exec(&self, exec: Duration) {
        let sample = exec.as_nanos() as u64;
        let old = self.ema_exec_ns.load(Ordering::Relaxed);
        let next = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.ema_exec_ns.store(next, Ordering::Relaxed);
    }

    /// Projected wait for a request entering a queue of `queued` requests
    /// served by `workers` threads, from the execution-time EMA. Zero until
    /// the first drive completes (no shedding before there is evidence).
    pub(crate) fn projected_wait(&self, queued: usize, workers: usize) -> Duration {
        let ema = self.ema_exec_ns.load(Ordering::Relaxed);
        Duration::from_nanos(ema.saturating_mul(queued as u64) / workers.max(1) as u64)
    }

    /// A queued request's deadline elapsed before execution.
    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// One transparent retry of a transient prepare/execute failure.
    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was fast-failed by an open circuit breaker.
    pub(crate) fn record_circuit_open(&self) {
        self.circuit_open_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// A mutation was rejected while in degraded read-only mode.
    pub(crate) fn record_mutation_rejected(&self) {
        self.mutations_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The server entered (`true`) or left (`false`) degraded read-only
    /// mode.
    pub(crate) fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
        if degraded {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_tenant_submitted(&self, tenant: &str) {
        self.tenants
            .plock()
            .entry(tenant.to_string())
            .or_default()
            .submitted += 1;
    }

    pub(crate) fn record_tenant_completed(&self, tenant: &str) {
        self.tenants
            .plock()
            .entry(tenant.to_string())
            .or_default()
            .completed += 1;
    }

    pub(crate) fn record_tenant_rejected(&self, tenant: &str) {
        self.tenants
            .plock()
            .entry(tenant.to_string())
            .or_default()
            .rejected += 1;
    }

    /// Snapshot the counters into a report.
    pub fn report(&self) -> ServingReport {
        // Wall = first-request → last-completion: measuring to `report()`
        // call time instead would make throughput decay while the server
        // sits idle after a burst. With requests still in flight (no
        // completion yet) the span runs to "now".
        let last_ns = self.last_completed_ns.load(Ordering::Relaxed);
        let wall = match (self.started.get(), last_ns) {
            (Some(_), ns) if ns > 0 => Duration::from_nanos(ns - 1),
            (Some(s), _) => s.elapsed(),
            _ => Duration::ZERO,
        };
        let lat = self.reservoir.plock().sorted();
        let pct = |p: f64| Duration::from_nanos(percentile(&lat, p));
        let waits = self.queue_wait.plock().sorted();
        let sizes = self.group_sizes.plock().sorted();
        let mut tenants: Vec<(String, TenantStats)> = self
            .tenants
            .plock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        let completed = self.completed.load(Ordering::Relaxed);
        ServingReport {
            wall,
            sql_requests: self.sql_requests.load(Ordering::Relaxed),
            point_requests: self.point_requests.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            single_flight_waits: self.single_flight_waits.load(Ordering::Relaxed),
            model_cache_hits: 0,
            model_cache_misses: 0,
            micro_batches: self.micro_batches.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            coalesced_points: self.coalesced_points.load(Ordering::Relaxed),
            warm_restart_ms: match self.warm_restart_ns.load(Ordering::Relaxed) {
                0 => None,
                ns => Some((ns - 1) as f64 / 1e6),
            },
            journal_records_replayed: self.journal_records_replayed.load(Ordering::Relaxed),
            prewarmed_plans: self.prewarmed_plans.load(Ordering::Relaxed),
            fused_groups: self.fused_groups.load(Ordering::Relaxed),
            sql_requests_fused: self.sql_requests_fused.load(Ordering::Relaxed),
            fused_group_size_p95: percentile(&sizes, 0.95),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            circuit_open_rejections: self.circuit_open_rejections.load(Ordering::Relaxed),
            mutations_rejected: self.mutations_rejected.load(Ordering::Relaxed),
            degraded_mode: self.degraded.load(Ordering::Relaxed),
            degraded_entries: self.degraded_entries.load(Ordering::Relaxed),
            queue_wait_p50: Duration::from_nanos(percentile(&waits, 0.50)),
            queue_wait_p95: Duration::from_nanos(percentile(&waits, 0.95)),
            tenants,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

/// A snapshot of the server's serving behaviour.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Wall-clock span from the first accepted request to the most recent
    /// completion (to "now" only while requests are in flight with none
    /// completed yet), so `throughput_qps` does not decay while the server
    /// sits idle after a burst.
    pub wall: Duration,
    /// SQL (batch) requests accepted.
    pub sql_requests: u64,
    /// Point-prediction requests accepted.
    pub point_requests: u64,
    /// Requests completed (latency samples recorded).
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that completed with an error.
    pub failed: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (prepares actually performed; single-flight
    /// followers are counted in `single_flight_waits`, not here).
    pub plan_cache_misses: u64,
    /// Requests that joined another request's in-flight prepare for the same
    /// (fingerprint, epoch) instead of preparing themselves.
    pub single_flight_waits: u64,
    /// Always 0: the server keeps no compiled-model cache since the plan
    /// cache became its only store of prepared work. Kept for readers of
    /// the report's fields.
    pub model_cache_hits: u64,
    /// Always 0, like [`ServingReport::model_cache_hits`].
    pub model_cache_misses: u64,
    /// Micro-batches driven through the pipeline (each covers ≥ 1 point
    /// request).
    pub micro_batches: u64,
    /// Micro-batches that coalesced more than one point request.
    pub coalesced_batches: u64,
    /// Point requests that shared a micro-batch with at least one other
    /// request.
    pub coalesced_points: u64,
    /// Duration of the durable warm restart (snapshot load + journal
    /// replay + cache pre-warm) in milliseconds; `None` when the server
    /// started cold without a data directory.
    pub warm_restart_ms: Option<f64>,
    /// Journal records replayed over the snapshot at startup.
    pub journal_records_replayed: u64,
    /// Hot plans eagerly re-prepared at startup.
    pub prewarmed_plans: u64,
    /// SQL drives that coalesced ≥ 2 identical concurrent requests into one
    /// shared execution.
    pub fused_groups: u64,
    /// SQL requests served from a drive shared with at least one other
    /// request (members of fused groups, leaders included).
    pub sql_requests_fused: u64,
    /// 95th-percentile fused-group size over every SQL drive (singletons
    /// included; 1 when fusion is off or traffic has no duplicates).
    pub fused_group_size_p95: u64,
    /// Requests rejected by QoS — per-tenant backpressure or projected-wait
    /// load shedding (disjoint from `rejected`).
    pub shed: u64,
    /// Requests whose deadline elapsed in the queue before execution.
    pub timeouts: u64,
    /// Transparent retries of transient prepare/execute failures.
    pub retries: u64,
    /// Requests fast-failed by an open per-fingerprint circuit breaker.
    pub circuit_open_rejections: u64,
    /// Mutations rejected while in degraded read-only mode.
    pub mutations_rejected: u64,
    /// Whether the server was in degraded read-only mode at snapshot time.
    pub degraded_mode: bool,
    /// Times the server entered degraded read-only mode.
    pub degraded_entries: u64,
    /// Median queue wait (enqueue → dequeue by a worker).
    pub queue_wait_p50: Duration,
    /// 95th-percentile queue wait — execution time excluded, so QoS queueing
    /// effects are observable separately from drive cost.
    pub queue_wait_p95: Duration,
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<(String, TenantStats)>,
    /// Median request latency (enqueue → response).
    pub p50: Duration,
    /// 95th-percentile request latency.
    pub p95: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
}

impl ServingReport {
    /// Completed requests per second of serving wall time.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Plan-cache hit rate in [0, 1] (0 when no lookups happened).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_cache_hits as f64 / total as f64
    }

    /// Accounting for one tenant, if it ever submitted a request.
    pub fn tenant(&self, name: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        writeln!(
            f,
            "requests: {} sql + {} point ({} completed, {} rejected, {} failed)",
            self.sql_requests, self.point_requests, self.completed, self.rejected, self.failed
        )?;
        writeln!(
            f,
            "throughput: {:.0} qps over {:.1} ms",
            self.throughput_qps(),
            ms(self.wall)
        )?;
        writeln!(
            f,
            "latency: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms \
             (queue wait p50 {:.2} ms, p95 {:.2} ms)",
            ms(self.p50),
            ms(self.p95),
            ms(self.p99),
            ms(self.queue_wait_p50),
            ms(self.queue_wait_p95)
        )?;
        writeln!(
            f,
            "sql fusion: {} requests shared {} fused drives (group-size p95 {}); \
             {} requests shed by QoS",
            self.sql_requests_fused, self.fused_groups, self.fused_group_size_p95, self.shed
        )?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.0}% hit rate), {} single-flight waits",
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_hit_rate() * 100.0,
            self.single_flight_waits
        )?;
        write!(
            f,
            "micro-batches: {} total, {} coalesced covering {} point requests",
            self.micro_batches, self.coalesced_batches, self.coalesced_points
        )?;
        if let Some(ms) = self.warm_restart_ms {
            write!(
                f,
                "\nwarm restart: {:.2} ms ({} journal records replayed, {} plans pre-warmed)",
                ms, self.journal_records_replayed, self.prewarmed_plans
            )?;
        }
        // Fault-handling lines are emitted only when something fired, so
        // fault-free runs keep their historical output bitwise-unchanged.
        if self.timeouts + self.retries + self.circuit_open_rejections > 0 {
            write!(
                f,
                "\nfaults: {} deadline timeouts, {} transient retries, \
                 {} circuit-breaker rejections",
                self.timeouts, self.retries, self.circuit_open_rejections
            )?;
        }
        if self.degraded_entries > 0 {
            write!(
                f,
                "\ndegraded read-only mode: {} (entered {} time(s), \
                 {} mutations rejected)",
                if self.degraded_mode {
                    "active"
                } else {
                    "recovered"
                },
                self.degraded_entries,
                self.mutations_rejected
            )?;
        }
        for (name, t) in &self.tenants {
            write!(
                f,
                "\ntenant {name}: {} submitted, {} completed, {} rejected",
                t.submitted, t.completed, t.rejected
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rates() {
        let m = ServingMetrics::default();
        m.mark_started();
        for i in 1..=100u64 {
            m.record_latency(Duration::from_millis(i));
        }
        m.record_plan_cache(true);
        m.record_plan_cache(true);
        m.record_plan_cache(false);
        m.record_micro_batch(4);
        m.record_micro_batch(1);
        let r = m.report();
        assert_eq!(r.completed, 100);
        assert_eq!(r.p50, Duration::from_millis(50));
        assert_eq!(r.p99, Duration::from_millis(99));
        assert!((r.plan_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.micro_batches, 2);
        assert_eq!(r.coalesced_batches, 1);
        assert_eq!(r.coalesced_points, 4);
        assert!(r.throughput_qps() > 0.0);
        let text = r.to_string();
        assert!(text.contains("p95"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn reservoir_samples_full_history_not_recent_window() {
        // 3×RESERVOIR samples with linearly increasing latencies: a
        // recency-biased sliding window would retain mostly the last third
        // (p50 ≈ 5/6 of the max); an Algorithm-R reservoir stays a uniform
        // sample of the whole history (p50 ≈ 1/2 of the max).
        let m = ServingMetrics::default();
        m.mark_started();
        let total = 3 * RESERVOIR as u64;
        for i in 1..=total {
            m.record_latency(Duration::from_nanos(i));
        }
        let r = m.report();
        assert_eq!(r.completed, total);
        let p50 = r.p50.as_nanos() as f64 / total as f64;
        assert!(
            (0.45..0.55).contains(&p50),
            "p50 should sit near the middle of the full history, got {p50:.3}"
        );
        let p99 = r.p99.as_nanos() as f64 / total as f64;
        assert!(
            p99 > 0.97,
            "p99 should track the history tail, got {p99:.3}"
        );
    }

    #[test]
    fn wall_does_not_decay_while_idle() {
        let m = ServingMetrics::default();
        m.mark_started();
        m.record_latency(Duration::from_millis(1));
        let burst = m.report();
        std::thread::sleep(Duration::from_millis(30));
        let idle = m.report();
        // wall spans first-request → last-completion, so idling after the
        // burst must not stretch it (and must not shrink throughput)
        assert_eq!(burst.wall, idle.wall);
        assert_eq!(burst.throughput_qps(), idle.throughput_qps());
    }

    #[test]
    fn queue_wait_fusion_and_tenant_accounting() {
        let m = ServingMetrics::default();
        m.mark_started();
        for i in 1..=100u64 {
            m.record_queue_wait(Duration::from_millis(i));
        }
        // 20 fused drives of size 5 and 80 singleton drives
        for _ in 0..20 {
            m.record_fused_group(5);
        }
        for _ in 0..80 {
            m.record_fused_group(1);
        }
        m.record_shed();
        m.record_tenant_submitted("a");
        m.record_tenant_submitted("a");
        m.record_tenant_completed("a");
        m.record_tenant_rejected("b");
        let r = m.report();
        assert_eq!(r.queue_wait_p50, Duration::from_millis(50));
        assert_eq!(r.queue_wait_p95, Duration::from_millis(95));
        assert_eq!(r.fused_groups, 20);
        assert_eq!(r.sql_requests_fused, 100);
        // group sizes sorted: 80×1 then 20×5 — the p95 rank lands in the 5s
        assert_eq!(r.fused_group_size_p95, 5);
        assert_eq!(r.shed, 1);
        let a = r.tenant("a").cloned().unwrap_or_default();
        assert_eq!((a.submitted, a.completed, a.rejected), (2, 1, 0));
        let b = r.tenant("b").cloned().unwrap_or_default();
        assert_eq!((b.submitted, b.completed, b.rejected), (0, 0, 1));
        assert!(r.tenant("zzz").is_none());
        let text = r.to_string();
        assert!(text.contains("queue wait"));
        assert!(text.contains("fused"));
        assert!(text.contains("tenant a"));
    }

    #[test]
    fn exec_ema_drives_projected_wait() {
        let m = ServingMetrics::default();
        // no evidence yet: nothing projected, nothing shed
        assert_eq!(m.projected_wait(100, 4), Duration::ZERO);
        m.record_exec(Duration::from_millis(8));
        assert_eq!(m.projected_wait(4, 4), Duration::from_millis(8));
        // EMA smooths: one fast drive doesn't erase the history
        m.record_exec(Duration::ZERO);
        let w = m.projected_wait(4, 4);
        assert!(w > Duration::from_millis(6) && w < Duration::from_millis(8));
        // more workers → proportionally less projected wait
        assert!(m.projected_wait(8, 8) < m.projected_wait(8, 2));
    }

    #[test]
    fn fault_counters_and_degraded_display() {
        let m = ServingMetrics::default();
        let quiet = m.report();
        assert!(!quiet.degraded_mode);
        assert_eq!(
            (quiet.timeouts, quiet.retries, quiet.circuit_open_rejections),
            (0, 0, 0)
        );
        // fault-free reports must not grow new lines (bitwise-stable output)
        let text = quiet.to_string();
        assert!(!text.contains("faults:"));
        assert!(!text.contains("degraded"));
        m.record_timeout();
        m.record_retry();
        m.record_retry();
        m.record_circuit_open();
        m.record_mutation_rejected();
        m.set_degraded(true);
        let r = m.report();
        assert!(r.degraded_mode);
        assert_eq!(r.degraded_entries, 1);
        assert_eq!(
            (
                r.timeouts,
                r.retries,
                r.circuit_open_rejections,
                r.mutations_rejected
            ),
            (1, 2, 1, 1)
        );
        let text = r.to_string();
        assert!(text.contains("faults: 1 deadline timeouts, 2 transient retries"));
        assert!(text.contains("degraded read-only mode: active"));
        m.set_degraded(false);
        let text = m.report().to_string();
        assert!(text.contains("degraded read-only mode: recovered"));
    }

    #[test]
    fn empty_metrics_report_zeroes() {
        let r = ServingMetrics::default().report();
        assert_eq!(r.completed, 0);
        assert_eq!(r.p50, Duration::ZERO);
        assert_eq!(r.throughput_qps(), 0.0);
        assert_eq!(r.plan_cache_hit_rate(), 0.0);
    }
}
