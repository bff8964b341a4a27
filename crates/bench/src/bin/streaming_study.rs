//! Statistics partition pruning and partition-parallel scoring on a
//! partitioned Hospital workload (with and without a prunable predicate):
//! no pruning at dop 1 vs. pruning at the given dop.
//! Usage: `streaming_study [runs] [dop] [partitions] [rows]`
fn main() {
    let arg = |i: usize| std::env::args().nth(i).and_then(|s| s.parse().ok());
    let runs = arg(1).unwrap_or(3);
    let dop = arg(2).unwrap_or(4);
    let partitions = arg(3).unwrap_or(16);
    let rows = arg(4).unwrap_or(100_000);
    raven_bench::streaming_study(rows, partitions, dop, runs);
}
