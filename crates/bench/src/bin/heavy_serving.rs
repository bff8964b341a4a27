//! Heavy-traffic mixed-tenant serving smoke: cross-request SQL fusion A/B
//! against the one-drive-per-request oracle, with tenant QoS gates.
//! Usage: `heavy_serving [rows] [requests] [clients]`
fn main() {
    let arg = |i: usize| std::env::args().nth(i).and_then(|s| s.parse().ok());
    let rows = arg(1).unwrap_or(2_000);
    let requests = arg(2).unwrap_or(600);
    let clients = arg(3).unwrap_or(100);
    let result = raven_bench::heavy_traffic_study_recording(rows, requests, clients);
    assert!(
        result.fusion_gain >= raven_bench::FUSION_QPS_GATE,
        "cross-request fusion should deliver >= {}x the one-drive-per-request \
         throughput on the duplicate-heavy mix, got {:.2}x ({:.0} vs {:.0} qps)",
        raven_bench::FUSION_QPS_GATE,
        result.fusion_gain,
        result.fused_qps,
        result.unfused_qps
    );
    assert!(
        result.fused_p99_ms <= result.unfused_p99_ms * raven_bench::HEAVY_P99_RATIO_GATE,
        "fusion must not degrade tail latency: fused p99 {:.2}ms vs oracle p99 \
         {:.2}ms (gate {}x)",
        result.fused_p99_ms,
        result.unfused_p99_ms,
        raven_bench::HEAVY_P99_RATIO_GATE
    );
    assert!(
        result.starvation_ratio <= raven_bench::STARVATION_RATIO_GATE,
        "no tenant may starve: worst tenant p99 is {:.2}x the overall p99 \
         (gate {}x); per-tenant p99: {:?}",
        result.starvation_ratio,
        raven_bench::STARVATION_RATIO_GATE,
        result.tenant_p99_ms
    );
    assert!(
        result.report.sql_requests_fused > 0 && result.report.fused_groups > 0,
        "the duplicate-heavy mix must actually fuse: {} requests shared {} drives",
        result.report.sql_requests_fused,
        result.report.fused_groups
    );
    // every tenant finished everything it submitted — nothing starved, hung,
    // or was silently dropped
    for (name, _) in &result.tenant_p99_ms {
        let stats = result.report.tenant(name).expect("tenant in report");
        assert_eq!(
            (stats.completed + stats.rejected, stats.rejected),
            (stats.submitted, 0),
            "tenant {name} accounting: {stats:?}"
        );
    }
}
