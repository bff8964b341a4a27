//! Chaos smoke: the mixed-tenant serving workload replayed under seeded
//! deterministic fault schedules — transient prepare failures, execute
//! failures plus injected latency, and a persistent journal fault that
//! drives degraded read-only mode. Gates: zero panics, bitwise-identical
//! successful responses vs the fault-free oracle, degraded mode entered and
//! exited cleanly, and post-fault throughput restored.
//! Usage: `chaos_study [rows] [requests] [clients]`
fn main() {
    let arg = |i: usize| std::env::args().nth(i).and_then(|s| s.parse().ok());
    let rows = arg(1).unwrap_or(2_000);
    let requests = arg(2).unwrap_or(1_200);
    let clients = arg(3).unwrap_or(100);
    let result = raven_bench::chaos_study_recording(rows, requests, clients);
    assert_eq!(
        result.schedules.len(),
        3,
        "the study must replay all three seeded fault schedules"
    );
    assert!(
        result.injected_total > 0,
        "the schedules must actually inject faults, got zero"
    );
    assert!(
        result.oracle_checked > 0,
        "successful responses must be checked against the fault-free oracle"
    );
    assert!(
        result.retries > 0,
        "transient faults should be absorbed by transparent retries"
    );
    assert!(
        result.degraded_entered && result.degraded_exited,
        "degraded read-only mode must be entered on the persistent journal \
         fault and exited by the recovery probe (entered={}, exited={})",
        result.degraded_entered,
        result.degraded_exited
    );
    assert!(
        result.mutations_rejected >= 1,
        "mutations under degraded mode must be rejected typed"
    );
    assert!(
        result.qps_ratio <= raven_bench::CHAOS_QPS_RATIO_GATE,
        "throughput must be restored after faults clear: steady {:.0} qps vs \
         post-fault {:.0} qps is {:.2}x (gate {}x)",
        result.steady_qps,
        result.post_fault_qps,
        result.qps_ratio,
        raven_bench::CHAOS_QPS_RATIO_GATE
    );
}
