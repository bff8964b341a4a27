//! Output checks: an order-independent checksum of a result's `(id, score)`
//! rows, compared against an independent reference run.

use raven_columnar::failpoint::splitmix64;
use raven_columnar::Batch;

/// The documented agreement between the ML runtime and a generated MLtoSQL
/// expression: scores may differ in the last bits of an f64 sum.
const SCORE_TOLERANCE: f64 = 1e-9;

/// Row count, a wrapping hash-sum of the ids, the sum of the scores, and the
/// sum of the scores weighted by a hash of their id (which ties each score to
/// its row). Sums do not depend on row order, so a partition-parallel result
/// and a sequential reference compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checksum {
    pub rows: usize,
    id_hash: u64,
    score_sum: f64,
    weighted_sum: f64,
}

impl Checksum {
    pub fn add(&mut self, id: i64, score: f64) {
        let h = splitmix64(id as u64);
        self.rows += 1;
        self.id_hash = self.id_hash.wrapping_add(h);
        self.score_sum += score;
        // weight in [0.5, 1.5): a permutation of scores among ids moves it
        self.weighted_sum += score * (0.5 + (h >> 11) as f64 / (1u64 << 53) as f64);
    }

    pub fn of_rows(rows: impl IntoIterator<Item = (i64, f64)>) -> Checksum {
        let mut sum = Checksum::default();
        for (id, score) in rows {
            sum.add(id, score);
        }
        sum
    }

    /// Checksum of a result batch with an Int64 `id` and a Float64 `score`.
    pub fn of_batch(batch: &Batch) -> Result<Checksum, String> {
        let ids = batch.column_by_name("id").map_err(|e| e.to_string())?;
        let scores = batch.column_by_name("score").map_err(|e| e.to_string())?;
        let ids = ids.as_i64().map_err(|e| e.to_string())?;
        let scores = scores.as_f64().map_err(|e| e.to_string())?;
        Ok(Checksum::of_rows(
            ids.iter().copied().zip(scores.iter().copied()),
        ))
    }

    /// Exact row count and id set; score sums within the tolerance.
    pub fn matches(&self, reference: &Checksum) -> bool {
        let close =
            |a: f64, b: f64| (a - b).abs() <= SCORE_TOLERANCE * a.abs().max(b.abs()).max(1.0);
        self.rows == reference.rows
            && self.id_hash == reference.id_hash
            && close(self.score_sum, reference.score_sum)
            && close(self.weighted_sum, reference.weighted_sum)
    }
}

/// Whether one point score agrees with the reference score of its row.
pub fn score_matches(score: f64, reference: f64) -> bool {
    (score - reference).abs() <= SCORE_TOLERANCE * reference.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_independent_and_binds_scores_to_ids() {
        let rows: Vec<(i64, f64)> = (0..1000).map(|i| (i, (i as f64 * 0.37).sin())).collect();
        let forward = Checksum::of_rows(rows.iter().copied());
        let backward = Checksum::of_rows(rows.iter().rev().copied());
        assert!(forward.matches(&backward));
        assert!(backward.matches(&forward));

        let mut dropped = rows.clone();
        dropped.pop();
        assert!(!Checksum::of_rows(dropped).matches(&forward));

        // same ids, same multiset of scores, two scores swapped between rows
        let mut swapped = rows.clone();
        let (a, b) = (swapped[3].1, swapped[4].1);
        swapped[3].1 = b;
        swapped[4].1 = a;
        assert!(!Checksum::of_rows(swapped).matches(&forward));

        // a last-bit difference in one score is inside the tolerance
        let mut nudged = rows.clone();
        nudged[10].1 = f64::from_bits(nudged[10].1.to_bits() + 1);
        assert!(Checksum::of_rows(nudged).matches(&forward));
    }
}
