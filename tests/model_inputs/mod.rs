//! Model-directed inputs for the scoring and pruning suites.
//!
//! Random feature values rarely land on a split threshold, and a random NaN
//! cell decides a split only when its row happens to reach one on that
//! feature. These values are read off the model instead, so every split
//! they feed is decided both ways and by NaN.

use raven_ml::{Tree, TreeNode};

/// For every branch (of any tree) splitting on `feature`: its threshold,
/// the next float above it and NaN — the values at which `x <= threshold`
/// flips, plus the missing marker that always goes right.
pub fn split_values(trees: &[Tree], feature: usize) -> Vec<f64> {
    let mut values = Vec::new();
    for node in trees.iter().flat_map(|t| &t.nodes) {
        if let TreeNode::Branch {
            feature: f,
            threshold,
            ..
        } = node
        {
            if *f == feature {
                values.extend([*threshold, threshold.next_up(), f64::NAN]);
            }
        }
    }
    values
}
