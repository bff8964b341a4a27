//! Durability study: warm restart (snapshot + CRC'd journal replay + plan
//! pre-warm) vs. cold rebuild (regenerate + retrain + register) to the first
//! answered query, plus a kill-9 crash scenario — this binary re-execs
//! itself as the victim writer and SIGKILLs it mid-journal-append.
//! Usage: `durability_study [rows] [runs]`
fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--crash-writer") {
        // child mode: append journal mutations until the parent kills us
        let dir = std::path::PathBuf::from(args.get(2).expect("--crash-writer <dir>"));
        raven_bench::durability_crash_writer_main(&dir);
        return;
    }
    let arg = |i: usize| args.get(i).and_then(|s| s.parse().ok());
    let rows = arg(1).unwrap_or(20_000);
    let runs = arg(2).unwrap_or(3);
    let crash_exe = std::env::current_exe().ok();
    let result = raven_bench::durability_study_recording(rows, runs, crash_exe.as_deref());
    assert!(
        result.crash_recovered,
        "the SIGKILLed writer's journal must replay to a clean prefix"
    );
    assert!(
        result.crash_records_recovered >= 1,
        "at least one fsync'd mutation must survive the kill-9"
    );
    assert!(
        result.results_identical,
        "warm-restarted results must be bitwise identical to the cold rebuild"
    );
    assert!(
        result.prewarmed_plans >= 1,
        "the warm restart must pre-warm the persisted hot plan"
    );
    assert!(
        result.speedup >= raven_bench::DURABILITY_SPEEDUP_GATE,
        "warm restart should beat cold rebuild by >= {}x to first answer, \
         got {:.2}x ({:.1} ms vs {:.1} ms)",
        raven_bench::DURABILITY_SPEEDUP_GATE,
        result.speedup,
        result.warm_ms,
        result.cold_ms
    );
}
