//! Prediction-serving study: per-request optimization vs. prepared+cached
//! execution, single-client vs. concurrent scheduling, and point-request
//! micro-batching, with cache hit rates and latency percentiles.
//! Usage: `serving_study [rows] [requests] [clients]`
fn main() {
    let arg = |i: usize| std::env::args().nth(i).and_then(|s| s.parse().ok());
    let rows = arg(1).unwrap_or(2_000);
    let requests = arg(2).unwrap_or(200);
    let clients = arg(3).unwrap_or(4);
    let result = raven_bench::serving_study_recording(rows, requests, clients);
    assert!(
        result.speedup >= 3.0,
        "prepared execution should beat per-request optimization by >= 3x, got {:.1}x",
        result.speedup
    );
    assert!(
        result.concurrent_qps > result.single_client_qps,
        "concurrent serving should out-throughput one client ({:.0} vs {:.0} qps)",
        result.concurrent_qps,
        result.single_client_qps
    );
    assert!(
        result.point_concurrent_qps > result.point_single_qps,
        "micro-batched concurrent points should out-throughput sequential points \
         ({:.0} vs {:.0} qps)",
        result.point_concurrent_qps,
        result.point_single_qps
    );
    assert_eq!(
        result.stampede_prepares, 1,
        "a cold-miss stampede must collapse into exactly one prepare \
         (single-flight), got {}",
        result.stampede_prepares
    );
    assert!(
        result.scoring_speedup >= raven_bench::SCORING_SPEEDUP_GATE,
        "flattened SoA scoring should be >= {}x the interpreted walker on the \
         GB workload, got {:.2}x ({:.0} vs {:.0} rows/s)",
        raven_bench::SCORING_SPEEDUP_GATE,
        result.scoring_speedup,
        result.flattened_score_rows_per_sec,
        result.interpreted_score_rows_per_sec
    );
    assert!(
        result.fused_pipeline_speedup >= raven_bench::FUSED_PIPELINE_SPEEDUP_GATE,
        "the fused featurize→score pass should be >= {}x the per-operator \
         compiled path end to end on the one-hot + scaler → GB-60 pipeline, \
         got {:.2}x ({:.0} vs {:.0} rows/s)",
        raven_bench::FUSED_PIPELINE_SPEEDUP_GATE,
        result.fused_pipeline_speedup,
        result.fused_pipeline_rows_per_sec,
        result.unfused_pipeline_rows_per_sec
    );
    assert_eq!(
        result.streaming_materializations,
        raven_bench::STREAMING_MATERIALIZATIONS_GATE,
        "a filtered streaming plan must perform zero intermediate batch \
         materializations (selection-vector execution), got {}",
        result.streaming_materializations
    );
}
