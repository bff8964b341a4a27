//! `e2e_bench compare A.json B.json`: do two result files agree?
//!
//! One row per (end-to-end metric, workload) with both medians, how much
//! worse B is than A as a share of A, and the metric's bound. A pair is
//! `unresolved` when either side's own quartile spread exceeds the bound —
//! the runs cannot tell a difference of that size from noise. Like `cmp`, the
//! exit code says whether the files differ: non-zero when any resolved pair
//! differs by more than its bound, in either direction.

use crate::json::Json;
use crate::metrics::END_TO_END;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `Ok(true)` when every pair agrees within its bound.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut agree = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound"
    );
    let workloads = a.get("workloads").ok_or("A has no workloads")?.as_obj();
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<20} only in A");
            continue;
        };
        for def in END_TO_END {
            let side = |w: &Json, key: &str| {
                w.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{workload} {} has no {key}", def.name))
            };
            let (ma, mb) = (side(in_a, "median")?, side(in_b, "median")?);
            let verdict = verdict(
                def.better == "lower",
                def.bound,
                (ma, side(in_a, "spread")?),
                (mb, side(in_b, "spread")?),
            );
            agree &= !matches!(verdict.1, "worse" | "better");
            println!(
                "{workload:<20} {:<18} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}%  {}",
                def.name,
                verdict.0 * 100.0,
                def.bound * 100.0,
                verdict.1
            );
        }
    }
    Ok(agree)
}

/// How much worse B is than A as a share of A's median, and what to call it.
fn verdict(lower_is_better: bool, bound: f64, a: (f64, f64), b: (f64, f64)) -> (f64, &'static str) {
    let ((ma, spread_a), (mb, spread_b)) = (a, b);
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    let label = if spread_a > bound || spread_b > bound {
        "unresolved"
    } else if worse > bound {
        "worse"
    } else if worse < -bound {
        "better"
    } else {
        "same"
    };
    (worse, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        // latency: lower is better, bound 10%
        assert_eq!(verdict(true, 0.1, (100.0, 0.02), (105.0, 0.02)).1, "same");
        assert_eq!(verdict(true, 0.1, (100.0, 0.02), (115.0, 0.02)).1, "worse");
        assert_eq!(verdict(true, 0.1, (100.0, 0.02), (85.0, 0.02)).1, "better");
        // throughput: higher is better, so a drop is the regression
        assert_eq!(verdict(false, 0.1, (100.0, 0.02), (85.0, 0.02)).1, "worse");
        assert_eq!(
            verdict(false, 0.1, (100.0, 0.02), (115.0, 0.02)).1,
            "better"
        );
        // either side noisier than the bound: the pair says nothing
        assert_eq!(
            verdict(true, 0.1, (100.0, 0.2), (150.0, 0.02)).1,
            "unresolved"
        );
        assert_eq!(
            verdict(true, 0.1, (100.0, 0.02), (150.0, 0.2)).1,
            "unresolved"
        );
    }
}
