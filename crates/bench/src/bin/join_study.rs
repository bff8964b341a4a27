//! Join-optimizer study: cost-based join reordering + build-side selection
//! vs. the as-written join order on the 5-table star workload, with the
//! model-pruning join-elimination demonstration.
//! Usage: `join_study [rows] [runs]`
fn main() {
    let arg = |i: usize| std::env::args().nth(i).and_then(|s| s.parse().ok());
    let rows = arg(1).unwrap_or(40_000);
    let runs = arg(2).unwrap_or(5);
    let result = raven_bench::join_study_recording(rows, runs);
    assert!(
        result.results_identical,
        "cost-based and as-written plans must produce bitwise-identical rows \
         (canonical order)"
    );
    assert!(
        result.joins_pruned_model < result.joins_full_model,
        "zeroing the supplier features must let the optimizer eliminate that \
         dimension join ({} vs {})",
        result.joins_pruned_model,
        result.joins_full_model
    );
    assert!(
        result.speedup >= raven_bench::JOIN_SPEEDUP_GATE,
        "the cost-ordered star join should beat the as-written order by >= \
         {}x end to end, got {:.2}x ({:.1} ms vs {:.1} ms)",
        raven_bench::JOIN_SPEEDUP_GATE,
        result.speedup,
        result.cost_ms,
        result.asis_ms
    );
}
