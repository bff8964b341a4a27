//! Flattened, struct-of-arrays tree-ensemble scoring kernels.
//!
//! [`crate::ops::Tree::predict_row`] interprets one heap-allocated enum node
//! at a time: every step is a `match` on a 40-byte `TreeNode`, a
//! bounds-checked arena index, and a bounds-checked `row.get(feature)` — and
//! the whole walk repeats per row. [`FlatEnsemble`] compiles an ensemble once
//! (at model lowering / prepare time) into parallel arrays — per-node split
//! feature, threshold, packed children, and leaf value — with every feature
//! index and child pointer validated against the arena up front, so the
//! scoring loop has no per-node feature bounds check to fall back from (the
//! interpreter's silent `unwrap_or(NAN)`).
//!
//! Scoring is **block-at-a-time** (Hummingbird-style): rows are processed in
//! blocks of [`BLOCK`] = 64. Each block's features are first transposed into
//! a small column-major scratch (feature-major lanes, 64 rows per feature —
//! 8 cache lines each), then every tree advances groups of row cursors one
//! level per pass, keeping many independent traversals in flight so the CPU
//! overlaps their node loads instead of stalling on one pointer chase per
//! row. Two layouts back the traversal:
//!
//! * **Perfect trees** (the fast path, depth ≤ `PERFECT_DEPTH_CAP` = 12,
//!   which every trained model satisfies): each tree is padded to a complete
//!   binary tree stored heap-ordered, so a step is
//!   `n = 2n + 2 - (v <= threshold[n])` — children are computed, never
//!   loaded; leaves above the bottom replicate down the padding so the walk
//!   is exactly `depth` branchless steps. Cursors advance in register-
//!   resident groups of 8, and the first two levels (heap slots 0–2) keep
//!   their node data entirely in registers. The per-node lane offset is
//!   pre-multiplied by `BLOCK` at compile time, so one traversal step is
//!   three loads and a handful of ALU ops.
//! * **Self-loop pointer arenas** (the fallback for degenerate deep trees):
//!   explicit packed child pointers where leaves point at themselves, so the
//!   same fixed-depth branchless walk applies.
//!
//! Numerics are bit-identical to the interpreted walker by construction: the
//! same `v <= threshold` comparison (NaN ⇒ right child, the missing-value
//! convention), per-row tree contributions folded from the first tree in the
//! same order as `iter().sum()` (so even an all-`-0.0` sum keeps its sign
//! bit), and the same ensemble combination (`mean`, `sigmoid(base + lr·Σ)`,
//! …) — the parity proptests in `tests/scoring_parity.rs` pin this.
//!
//! The interpreted path survives as the parity baseline:
//! `MlRuntime::run_batch` over a bare `Pipeline` walks the operator graph
//! with no compiled kernel.

use crate::error::{MlError, Result};
use crate::frame::Matrix;
use crate::ops::linear::sigmoid;
use crate::ops::tree::{EnsembleKind, TreeEnsemble, TreeNode};

/// Rows scored per block. 64 keeps each per-feature scratch lane at one
/// 512-byte run (8 cache lines, so the whole transposed block stays
/// L1-resident for typical feature widths) and gives the out-of-order core
/// 64 independent traversals to overlap; doubling it mostly grows the
/// scratch without adding instruction-level parallelism.
pub const BLOCK: usize = 64;

/// A tree ensemble compiled to a cache-friendly struct-of-arrays layout.
///
/// All trees share one node arena; `roots[t]` is tree `t`'s entry point and
/// children are absolute arena indices. **Leaves are self-loops**
/// (`left == right == self`): the traversal runs exactly `depth[t]` fully
/// branchless iterations per tree — a cursor that reaches a leaf early just
/// spins in place — so the inner loop has no leaf test and no
/// data-dependent branch to mispredict, only a compare that lowers to a
/// conditional move. Compilation validates every feature index and child
/// pointer once, so scoring indexes without fallbacks.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatEnsemble {
    kind: EnsembleKind,
    n_features: usize,
    learning_rate: f64,
    base_score: f64,
    /// Root arena index per tree.
    roots: Vec<u32>,
    /// Depth of each tree (number of traversal iterations it needs).
    depth: Vec<u32>,
    /// Split feature per node (0 for leaves — the read is dead, both
    /// children are `self`).
    feature: Vec<u32>,
    /// Split threshold per node (0.0 for leaves — ditto).
    threshold: Vec<f64>,
    /// Both children packed into one lane per node — left (`v <= threshold`)
    /// in the low 32 bits, right in the high 32; `self | self << 32` for
    /// leaves. One load instead of two in the traversal step.
    children: Vec<u64>,
    /// Leaf value per node (0.0 for branches, which a finished traversal
    /// never lands on).
    value: Vec<f64>,
    /// Total reachable nodes across the trees (kept for introspection even
    /// after the pointer arenas are dropped in favor of the perfect layout).
    n_nodes: usize,
    /// Perfect (complete binary) specialization, built whenever every tree's
    /// depth is at most [`PERFECT_DEPTH_CAP`] — which trained ensembles
    /// always satisfy. Children become index arithmetic (`2n+1` / `2n+2`),
    /// removing the child-pointer load from the traversal step entirely; the
    /// pointer arenas above remain the fallback for degenerate deep trees.
    perfect: Option<PerfectTrees>,
}

/// Deepest tree the perfect (complete-binary) layout is built for: a padded
/// tree stores `2^d - 1` internal slots + `2^d` leaf slots, so 12 caps the
/// worst case at ~100 KB per tree while covering every trained model (the
/// training configs top out at depth 8–10).
const PERFECT_DEPTH_CAP: u32 = 12;

/// Hummingbird-style "perfect tree traversal" arrays: every tree padded to a
/// complete binary tree of its own depth, nodes stored heap-ordered (node
/// `n`'s children are `2n+1` / `2n+2` — computed, never loaded), leaf values
/// in a dense bottom-level array. A leaf above the bottom becomes a
/// pass-through split (feature 0, threshold 0.0) whose whole subtree
/// replicates its value, so every root-to-bottom path has exactly `depth`
/// steps and the traversal needs no leaf test at all.
#[derive(Debug, Clone, PartialEq)]
struct PerfectTrees {
    /// Depth of each padded tree.
    depth: Vec<u32>,
    /// Start of each tree's `2^d - 1` internal slots in `nodes`.
    node_offset: Vec<u32>,
    /// Start of each tree's `2^d` leaf slots in `leaf_value`.
    leaf_offset: Vec<u32>,
    /// Per internal slot (heap order): the split feature pre-multiplied by
    /// [`BLOCK`], so the traversal step addresses its feature lane with one
    /// scaled load (`chunk[lane_off + i]`) — no shift, no extra add.
    lane_off: Vec<u32>,
    /// Split threshold per internal slot (heap order).
    threshold: Vec<f64>,
    /// Bottom-level leaf values.
    leaf_value: Vec<f64>,
}

impl PerfectTrees {
    fn build(ensemble: &TreeEnsemble, depths: &[u32]) -> Option<PerfectTrees> {
        if depths.iter().any(|&d| d > PERFECT_DEPTH_CAP) {
            return None;
        }
        let mut out = PerfectTrees {
            depth: depths.to_vec(),
            node_offset: Vec::with_capacity(depths.len()),
            leaf_offset: Vec::with_capacity(depths.len()),
            lane_off: Vec::new(),
            threshold: Vec::new(),
            leaf_value: Vec::new(),
        };
        for (tree, &d) in ensemble.trees.iter().zip(depths) {
            let node_off = out.lane_off.len();
            let leaf_off = out.leaf_value.len();
            out.node_offset.push(node_off as u32);
            out.leaf_offset.push(leaf_off as u32);
            let internal = (1usize << d) - 1;
            out.lane_off.extend(std::iter::repeat_n(0, internal));
            out.threshold.extend(std::iter::repeat_n(0.0, internal));
            out.leaf_value.extend(std::iter::repeat_n(0.0, 1usize << d));
            out.fill(tree, tree.root, 0, 0, d, node_off, leaf_off);
        }
        Some(out)
    }

    /// Write source node `node` into heap slot `h` at `level`; leaves above
    /// the bottom replicate down both padded subtrees.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        tree: &crate::ops::Tree,
        node: usize,
        h: usize,
        level: u32,
        depth: u32,
        node_off: usize,
        leaf_off: usize,
    ) {
        if level == depth {
            // bottom: h indexes the leaf row of the padded tree
            let first_bottom = (1usize << depth) - 1;
            if let TreeNode::Leaf { value } = &tree.nodes[node] {
                self.leaf_value[leaf_off + h - first_bottom] = *value;
            }
            return;
        }
        match &tree.nodes[node] {
            TreeNode::Branch {
                feature,
                threshold,
                left,
                right,
            } => {
                self.lane_off[node_off + h] = (*feature * BLOCK) as u32;
                self.threshold[node_off + h] = *threshold;
                self.fill(tree, *left, 2 * h + 1, level + 1, depth, node_off, leaf_off);
                self.fill(
                    tree,
                    *right,
                    2 * h + 2,
                    level + 1,
                    depth,
                    node_off,
                    leaf_off,
                );
            }
            TreeNode::Leaf { .. } => {
                // pass-through split: both padded children replicate the
                // leaf (the slot's default feature-0 / 0.0 split is fine —
                // both children are the same value)
                self.fill(tree, node, 2 * h + 1, level + 1, depth, node_off, leaf_off);
                self.fill(tree, node, 2 * h + 2, level + 1, depth, node_off, leaf_off);
            }
        }
    }
}

impl FlatEnsemble {
    /// Compile an ensemble, validating feature bounds and tree structure.
    ///
    /// Fails with [`MlError::InvalidModel`] when a reachable branch node
    /// references a feature `>= n_features` (the case the interpreter used
    /// to score silently as NaN), when a child index dangles, or when the
    /// node graph is cyclic.
    pub fn compile(ensemble: &TreeEnsemble) -> Result<FlatEnsemble> {
        let mut out = FlatEnsemble {
            kind: ensemble.kind,
            n_features: ensemble.n_features,
            learning_rate: ensemble.learning_rate,
            base_score: ensemble.base_score,
            roots: Vec::with_capacity(ensemble.trees.len()),
            depth: Vec::with_capacity(ensemble.trees.len()),
            feature: Vec::new(),
            threshold: Vec::new(),
            children: Vec::new(),
            value: Vec::new(),
            n_nodes: 0,
            perfect: None,
        };
        for (t, tree) in ensemble.trees.iter().enumerate() {
            // A proper tree copies each source node at most once; emitting
            // more than the arena holds means a cycle (or pathological
            // sharing), which the interpreted walker would spin on too.
            let budget = out.feature.len() + tree.nodes.len();
            let (root, depth) = out.flatten(tree, t, tree.root, ensemble.n_features, budget)?;
            out.roots.push(root);
            out.depth.push(depth);
        }
        out.n_nodes = out.feature.len();
        out.perfect = PerfectTrees::build(ensemble, &out.depth);
        if out.perfect.is_some() {
            // The pointer arenas were needed for validation / depths only;
            // the perfect layout replaces them for scoring, and compiled
            // ensembles live long in the serving caches (× per-partition
            // models), so drop the dead weight.
            out.feature = Vec::new();
            out.threshold = Vec::new();
            out.children = Vec::new();
            out.value = Vec::new();
        }
        // Artifact verification (debug builds / RAVEN_VERIFY=strict): the
        // flatten above is supposed to establish every invariant `verify`
        // checks, so this is a self-check on the compiler, not the model.
        if cfg!(debug_assertions) || raven_columnar::envcfg::verify_strict() {
            out.verify()?;
        }
        Ok(out)
    }

    fn flatten(
        &mut self,
        tree: &crate::ops::Tree,
        tree_idx: usize,
        root: usize,
        n_features: usize,
        budget: usize,
    ) -> Result<(u32, u32)> {
        // Explicit-stack pre-order emission: recursion here would track tree
        // depth, and degenerate chain-shaped trees are exactly what the
        // pointer-arena fallback exists for — compiling one must not blow
        // the stack of whichever serving thread prepares the model. Each
        // entry carries the parent slot + side to patch once the child's
        // position is known.
        let start = self.feature.len();
        let mut stack: Vec<(usize, Option<(usize, bool)>)> = vec![(root, None)];
        while let Some((node, patch)) = stack.pop() {
            if self.feature.len() >= budget {
                return Err(MlError::InvalidModel(format!(
                    "tree {tree_idx} is cyclic or larger than its node arena"
                )));
            }
            let n = tree.nodes.get(node).ok_or_else(|| {
                MlError::InvalidModel(format!(
                    "tree {tree_idx} references node {node}, arena has {}",
                    tree.nodes.len()
                ))
            })?;
            let pos = self.feature.len();
            if let Some((parent, is_right)) = patch {
                self.children[parent] |= (pos as u64) << if is_right { 32 } else { 0 };
            }
            match n {
                TreeNode::Leaf { value } => {
                    self.feature.push(0);
                    self.threshold.push(0.0);
                    self.children.push(pos as u64 | (pos as u64) << 32);
                    self.value.push(*value);
                }
                TreeNode::Branch {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= n_features {
                        return Err(MlError::InvalidModel(format!(
                            "tree {tree_idx} splits on feature {feature}, \
                             ensemble has {n_features} features"
                        )));
                    }
                    self.feature.push(*feature as u32);
                    self.threshold.push(*threshold);
                    self.children.push(0);
                    self.value.push(0.0);
                    // right pushed first so the left subtree is emitted next
                    // — the same pre-order layout the recursion produced
                    stack.push((*right, Some((pos, true))));
                    stack.push((*left, Some((pos, false))));
                }
            }
        }
        // Depths bottom-up: pre-order emission places children after their
        // parent, so a reverse scan sees both child depths before the parent
        // (leaves self-loop, depth 0).
        let emitted = self.feature.len() - start;
        let mut depth = vec![0u32; emitted];
        for i in (0..emitted).rev() {
            let pos = start + i;
            let l = (self.children[pos] & 0xffff_ffff) as usize;
            let r = (self.children[pos] >> 32) as usize;
            if l != pos || r != pos {
                depth[i] = 1 + depth[l - start].max(depth[r - start]);
            }
        }
        Ok((start as u32, depth.first().copied().unwrap_or(0)))
    }

    /// Combination semantics of the compiled ensemble.
    pub fn kind(&self) -> EnsembleKind {
        self.kind
    }

    /// Width of the feature vector the trees index into.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total reachable nodes across the compiled trees (before any padding).
    pub fn arena_len(&self) -> usize {
        self.n_nodes
    }

    /// Post-flatten artifact validation: the structural invariants the
    /// scoring loops index by without bounds checks. For the perfect layout,
    /// every tree's `2^d - 1` internal and `2^d` leaf slots must lie inside
    /// the shared arrays and every lane offset must be a `BLOCK`-aligned
    /// scaled feature index below `n_features`. For the pointer-arena
    /// fallback, all four node arrays must agree on length, every root and
    /// child pointer must be in bounds, branch features must be below
    /// `n_features`, and each tree must be acyclic with its recorded depth
    /// an upper bound on the true walk depth (the traversal runs exactly
    /// `depth[t]` iterations, so an understated depth would return branch
    /// garbage and a cycle would never self-loop).
    ///
    /// [`compile`](FlatEnsemble::compile) establishes all of this; `verify`
    /// re-checks it in debug builds and under `RAVEN_VERIFY=strict` so a
    /// corrupted or hand-built artifact fails loudly instead of scoring
    /// garbage.
    pub fn verify(&self) -> Result<()> {
        let bad = |msg: String| Err(MlError::InvalidModel(format!("flat ensemble: {msg}")));
        let nt = self.roots.len();
        if self.depth.len() != nt {
            return bad(format!("{} roots but {} depths", nt, self.depth.len()));
        }
        if let Some(p) = &self.perfect {
            if p.depth != self.depth {
                return bad("perfect layout depths disagree with tree depths".into());
            }
            if p.node_offset.len() != nt || p.leaf_offset.len() != nt {
                return bad("perfect layout offset arrays disagree with tree count".into());
            }
            if p.lane_off.len() != p.threshold.len() {
                return bad("perfect layout lane/threshold arrays disagree".into());
            }
            for t in 0..nt {
                let d = p.depth[t];
                if d > PERFECT_DEPTH_CAP {
                    return bad(format!("tree {t} depth {d} exceeds the perfect cap"));
                }
                let internal = (1usize << d) - 1;
                let node_end = p.node_offset[t] as usize + internal;
                if node_end > p.lane_off.len() {
                    return bad(format!("tree {t} internal slots overrun the node arena"));
                }
                let leaf_end = p.leaf_offset[t] as usize + (1usize << d);
                if leaf_end > p.leaf_value.len() {
                    return bad(format!("tree {t} leaf slots overrun the leaf arena"));
                }
                for (i, &lo) in p.lane_off[p.node_offset[t] as usize..node_end]
                    .iter()
                    .enumerate()
                {
                    let lo = lo as usize;
                    if !lo.is_multiple_of(BLOCK) || lo / BLOCK >= self.n_features {
                        return bad(format!(
                            "tree {t} slot {i} lane offset {lo} is not a scaled feature \
                             below {}",
                            self.n_features
                        ));
                    }
                }
            }
        } else {
            let n = self.n_nodes;
            if self.feature.len() != n
                || self.threshold.len() != n
                || self.children.len() != n
                || self.value.len() != n
            {
                return bad("node arrays disagree with n_nodes".into());
            }
            // Memoized per-node walk depth; an in-progress marker catches
            // cycles in O(nodes).
            const UNSEEN: u32 = u32::MAX;
            const IN_PROGRESS: u32 = u32::MAX - 1;
            let mut memo = vec![UNSEEN; n];
            for (t, &root) in self.roots.iter().enumerate() {
                if root as usize >= n {
                    return bad(format!("tree {t} root {root} out of bounds ({n} nodes)"));
                }
                let mut stack = vec![root as usize];
                while let Some(&i) = stack.last() {
                    let l = (self.children[i] & 0xffff_ffff) as usize;
                    let r = (self.children[i] >> 32) as usize;
                    if l >= n || r >= n {
                        return bad(format!("node {i} child pointer out of bounds"));
                    }
                    if l == i && r == i {
                        memo[i] = 0; // leaf self-loop
                        stack.pop();
                        continue;
                    }
                    if self.feature[i] as usize >= self.n_features {
                        return bad(format!(
                            "node {i} splits on feature {} of {}",
                            self.feature[i], self.n_features
                        ));
                    }
                    let (dl, dr) = (memo[l], memo[r]);
                    let resolved = |d: u32| d != UNSEEN && d != IN_PROGRESS;
                    if resolved(dl) && resolved(dr) {
                        memo[i] = 1 + dl.max(dr);
                        stack.pop();
                    } else {
                        // A child still in progress means this branch is
                        // reachable from inside its own subtree — a cycle.
                        if memo[i] == IN_PROGRESS || dl == IN_PROGRESS || dr == IN_PROGRESS {
                            return bad(format!("tree {t} is cyclic at node {i}"));
                        }
                        memo[i] = IN_PROGRESS;
                        if dl == UNSEEN {
                            stack.push(l);
                        }
                        if dr == UNSEEN {
                            stack.push(r);
                        }
                    }
                }
                if memo[root as usize] > self.depth[t] {
                    return bad(format!(
                        "tree {t} records depth {} but walks {} levels",
                        self.depth[t], memo[root as usize]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Score every row of `x`, appending one score per row to `out`.
    /// Bit-identical to [`TreeEnsemble::predict`] on the source ensemble.
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) -> Result<()> {
        if x.cols() < self.n_features {
            return Err(MlError::ShapeMismatch(format!(
                "ensemble expects {} features, input has {}",
                self.n_features,
                x.cols()
            )));
        }
        let rows = x.rows();
        out.reserve(rows);
        let nf = self.n_features;
        let cols = x.cols();
        let data = x.data();
        if rows == 0 {
            return Ok(());
        }
        // Per-block feature-major scratch: lane f occupies
        // feat[f*BLOCK .. +BLOCK], reused for every block so the transpose
        // writes (stride 512 B) and the traversal reads both stay in one
        // small L1-resident window. At least one lane exists so the (dead)
        // feature-0 read of a root-leaf self-loop stays in bounds.
        let lanes = nf.max(1);
        let mut feat = vec![0.0f64; lanes * BLOCK];
        let mut block_out = [0.0f64; BLOCK];
        let mut start = 0;
        while start < rows {
            let blen = BLOCK.min(rows - start);
            // Transpose this block's rows into the feature-major lanes.
            for i in 0..blen {
                let row = &data[(start + i) * cols..(start + i) * cols + nf];
                for (f, &v) in row.iter().enumerate() {
                    feat[f * BLOCK + i] = v;
                }
            }
            self.score_lanes_block(&feat, blen, &mut block_out);
            out.extend_from_slice(&block_out[..blen]);
            start += blen;
        }
        Ok(())
    }

    /// Score one block of already-transposed feature-major lanes: lane `f`
    /// occupies `chunk[f*BLOCK .. f*BLOCK + BLOCK]`, rows `0..blen` of the
    /// block are live, and `out[0..blen]` receives the finished (combined)
    /// scores. This is the kernel boundary the fused featurization pipeline
    /// ([`crate::ops::kernels`]) feeds directly — its lane writers produce
    /// exactly this layout, so featurize→score never materializes a row-major
    /// matrix in between. Bit-identical to the interpreted walker.
    pub(crate) fn score_lanes_block(&self, chunk: &[f64], blen: usize, out: &mut [f64]) {
        assert!(
            blen <= BLOCK && chunk.len() >= self.n_features.max(1) * BLOCK && out.len() >= blen,
            "lane block shape violated"
        );
        // Single-tree kinds read only the first tree (matching the
        // interpreter, which ignores any extra trees on DT kinds) and
        // *assign* the leaf value instead of accumulating (so even a -0.0
        // leaf round-trips bit-identically with the interpreter's direct
        // return).
        let assign = matches!(
            self.kind,
            EnsembleKind::DecisionTreeClassifier | EnsembleKind::DecisionTreeRegressor
        );
        let n_trees = if assign {
            self.roots.len().min(1)
        } else {
            self.roots.len()
        };
        // zero-initialized so empty ensembles score 0.0 like the interpreter
        let mut acc = [0.0f64; BLOCK];
        self.accumulate_block(chunk, blen, &mut acc, assign, n_trees);
        match self.kind {
            EnsembleKind::DecisionTreeClassifier | EnsembleKind::DecisionTreeRegressor => {
                out[..blen].copy_from_slice(&acc[..blen]);
            }
            EnsembleKind::RandomForestClassifier => {
                if n_trees == 0 {
                    out[..blen].fill(0.0);
                } else {
                    let n = n_trees as f64;
                    for i in 0..blen {
                        out[i] = acc[i] / n;
                    }
                }
            }
            EnsembleKind::GradientBoostingClassifier => {
                for i in 0..blen {
                    out[i] = sigmoid(self.base_score + self.learning_rate * acc[i]);
                }
            }
            EnsembleKind::GradientBoostingRegressor => {
                for i in 0..blen {
                    out[i] = self.base_score + self.learning_rate * acc[i];
                }
            }
        }
    }

    /// Walk every tree over one lane block, folding per-row contributions
    /// into `acc[..blen]` in first-tree-assigns order (the `iter().sum()`
    /// fold the interpreter uses).
    fn accumulate_block(
        &self,
        chunk: &[f64],
        blen: usize,
        acc: &mut [f64; BLOCK],
        assign: bool,
        n_trees: usize,
    ) {
        let mut idx = [0u32; BLOCK];
        let (feature, threshold) = (&self.feature[..], &self.threshold[..]);
        let (children, value) = (&self.children[..], &self.value[..]);
        if let Some(p) = &self.perfect {
            // Perfect-tree traversal: children are computed (2n+1 /
            // 2n+2), so one step is three loads (feature, threshold,
            // feature lane) and pure arithmetic — no child pointers, no
            // leaf test, no data-dependent branch. `2n + 2 - (v <= t)`
            // sends NaN right (the compare is false), matching the
            // interpreted walker's missing-value convention.
            for t in 0..n_trees {
                // The first tree *assigns* its leaf (matching
                // `iter().sum()`, which folds from the first element, so
                // an all-(-0.0) sum keeps its sign bit); later trees
                // accumulate.
                let assign_first = assign || t == 0;
                let depth = p.depth[t];
                let node_off = p.node_offset[t] as usize;
                let leaf_off = p.leaf_offset[t] as usize;
                let first_bottom = (1usize << depth) - 1;
                // Cursors live in a fixed 8-lane group the compiler
                // keeps in registers (the inner `for j in 0..8` fully
                // unrolls): no per-level stack round-trip, eight
                // independent load chains in flight.
                //
                // SAFETY of the unchecked indexing: after `k` steps a
                // cursor holds a heap index in [2^k - 1, 2^{k+1} - 2],
                // so during the `depth` passes it stays below
                // 2^depth - 1 (the tree's internal-slot count) and ends
                // in the bottom row [2^depth - 1, 2^{depth+1} - 2],
                // i.e. a valid index into the tree's 2^depth leaf
                // slots. Every `feature` slot was validated
                // `< n_features` at compile time and the lane reads stay
                // below `lanes * BLOCK` because `g + j < blen <= BLOCK`.
                let lane_off = &p.lane_off[node_off..];
                let threshold = &p.threshold[node_off..];
                // The first two levels touch at most three fixed nodes
                // (heap slots 0, 1, 2), so their lane offsets and
                // thresholds live in registers: level 0 needs no node
                // load at all, level 1 a pair of conditional moves —
                // only from level 2 on does a step pay the dependent
                // node loads.
                let two_levels = depth >= 2;
                let (off0, th0) = if depth >= 1 {
                    (lane_off[0] as usize, threshold[0])
                } else {
                    (0, 0.0)
                };
                let (off1, th1, off2, th2) = if two_levels {
                    (
                        lane_off[1] as usize,
                        threshold[1],
                        lane_off[2] as usize,
                        threshold[2],
                    )
                } else {
                    (0, 0.0, 0, 0.0)
                };
                let mut g = 0;
                while g + 8 <= blen {
                    let mut n = [0usize; 8];
                    let mut level = 0;
                    if two_levels {
                        for (j, n) in n.iter_mut().enumerate() {
                            unsafe {
                                let v0 = *chunk.get_unchecked(off0 + g + j);
                                let n1 = 2 - (v0 <= th0) as usize;
                                let (offx, thx) = if n1 == 1 { (off1, th1) } else { (off2, th2) };
                                let v1 = *chunk.get_unchecked(offx + g + j);
                                *n = 2 * n1 + 2 - (v1 <= thx) as usize;
                            }
                        }
                        level = 2;
                    }
                    for _ in level..depth {
                        for (j, nj) in n.iter_mut().enumerate() {
                            unsafe {
                                let off = *lane_off.get_unchecked(*nj) as usize;
                                let v = *chunk.get_unchecked(off + g + j);
                                let th = *threshold.get_unchecked(*nj);
                                *nj = 2 * *nj + 2 - (v <= th) as usize;
                            }
                        }
                    }
                    // SAFETY: as above — bottom-row cursors map into
                    // the tree's leaf slots.
                    for j in 0..8 {
                        let leaf =
                            unsafe { *p.leaf_value.get_unchecked(leaf_off + n[j] - first_bottom) };
                        if assign_first {
                            acc[g + j] = leaf;
                        } else {
                            acc[g + j] += leaf;
                        }
                    }
                    g += 8;
                }
                // remainder lanes of a short tail block, one at a time
                for (i, a) in acc.iter_mut().enumerate().take(blen).skip(g) {
                    let mut n = 0usize;
                    for _ in 0..depth {
                        unsafe {
                            let off = *lane_off.get_unchecked(n) as usize;
                            let v = *chunk.get_unchecked(off + i);
                            let th = *threshold.get_unchecked(n);
                            n = 2 * n + 2 - (v <= th) as usize;
                        }
                    }
                    let leaf = unsafe { *p.leaf_value.get_unchecked(leaf_off + n - first_bottom) };
                    if assign_first {
                        *a = leaf;
                    } else {
                        *a += leaf;
                    }
                }
            }
            return;
        }
        for t in 0..n_trees {
            let root = self.roots[t];
            let depth = self.depth[t];
            idx[..blen].fill(root);
            // Exactly `depth` branchless passes: every cursor advances
            // one level per pass (leaves self-loop, so early arrivals
            // spin in place). The `v <= threshold` select picks one
            // half of the packed child lane — no data-dependent branch
            // to mispredict, and the 64 independent chains keep the
            // load ports saturated. NaN compares false, so missing
            // values go right, exactly like the interpreted walker.
            //
            // SAFETY of the unchecked indexing: `compile` established
            // that every child pointer is a valid arena index, that the
            // four node arrays have identical lengths, and that every
            // `feature[n] < n_features`; cursors only ever hold `roots`
            // or child values, and `i < blen <= BLOCK` with `chunk`
            // spanning this block's `lanes * BLOCK` slots. Four
            // in-bounds loads per step, zero bounds-check branches.
            for _ in 0..depth {
                for i in 0..blen {
                    unsafe {
                        let n = *idx.get_unchecked(i) as usize;
                        let f = *feature.get_unchecked(n) as usize;
                        let v = *chunk.get_unchecked(f * BLOCK + i);
                        let c = *children.get_unchecked(n);
                        *idx.get_unchecked_mut(i) = if v <= *threshold.get_unchecked(n) {
                            c as u32
                        } else {
                            (c >> 32) as u32
                        };
                    }
                }
            }
            // SAFETY: as above — cursors are valid arena indices. The
            // first tree assigns (see the perfect kernel), later trees
            // accumulate.
            if assign || t == 0 {
                for i in 0..blen {
                    acc[i] = unsafe { *value.get_unchecked(idx[i] as usize) };
                }
            } else {
                for i in 0..blen {
                    acc[i] += unsafe { *value.get_unchecked(idx[i] as usize) };
                }
            }
        }
    }

    /// Score every row of `x` into a fresh single-column matrix (the
    /// flattened drop-in for [`TreeEnsemble::predict`]).
    pub fn predict(&self, x: &Matrix) -> Result<Matrix> {
        let mut out = Vec::with_capacity(x.rows());
        self.predict_into(x, &mut out)?;
        Ok(Matrix::from_column(&out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Tree;

    fn deep_tree() -> Tree {
        Tree {
            nodes: vec![
                TreeNode::Branch {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Branch {
                    feature: 1,
                    threshold: -1.0,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 3.0 },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 2.0 },
            ],
            root: 0,
        }
    }

    #[test]
    fn flat_matches_interpreted_bitwise() {
        for kind in [
            EnsembleKind::DecisionTreeClassifier,
            EnsembleKind::DecisionTreeRegressor,
            EnsembleKind::RandomForestClassifier,
            EnsembleKind::GradientBoostingClassifier,
            EnsembleKind::GradientBoostingRegressor,
        ] {
            let ens = TreeEnsemble {
                kind,
                trees: vec![deep_tree(), Tree::leaf(0.25), deep_tree()],
                n_features: 2,
                learning_rate: 0.3,
                base_score: 0.1,
            };
            let flat = FlatEnsemble::compile(&ens).unwrap();
            // > BLOCK rows so multiple blocks run, plus NaN rows
            let rows = 150;
            let cols: Vec<Vec<f64>> = vec![
                (0..rows)
                    .map(|i| match i % 5 {
                        0 => f64::NAN,
                        r => r as f64 - 2.0,
                    })
                    .collect(),
                (0..rows).map(|i| (i as f64) * 0.1 - 4.0).collect(),
            ];
            let x = Matrix::from_columns(&cols).unwrap();
            let expected = ens.predict(&x).unwrap();
            let got = flat.predict(&x).unwrap();
            for r in 0..rows {
                assert_eq!(
                    expected.get(r, 0).to_bits(),
                    got.get(r, 0).to_bits(),
                    "kind {kind:?} row {r}"
                );
            }
        }
    }

    #[test]
    fn empty_input_and_empty_ensemble() {
        let ens = TreeEnsemble {
            kind: EnsembleKind::RandomForestClassifier,
            trees: vec![],
            n_features: 1,
            learning_rate: 1.0,
            base_score: 0.0,
        };
        let flat = FlatEnsemble::compile(&ens).unwrap();
        let x = Matrix::from_columns(&[vec![1.0, 2.0]]).unwrap();
        assert_eq!(flat.predict(&x).unwrap().column(0), vec![0.0, 0.0]);
        let empty = Matrix::from_columns(&[Vec::new()]).unwrap();
        assert_eq!(flat.predict(&empty).unwrap().rows(), 0);
    }

    #[test]
    fn compile_rejects_out_of_range_feature() {
        let ens = TreeEnsemble::single_tree(deep_tree(), 1); // feature 1 >= 1
        let err = FlatEnsemble::compile(&ens).unwrap_err();
        assert!(matches!(err, MlError::InvalidModel(_)), "{err}");
    }

    #[test]
    fn compile_rejects_cycles_and_dangling_children() {
        let cyclic = Tree {
            nodes: vec![TreeNode::Branch {
                feature: 0,
                threshold: 0.0,
                left: 0,
                right: 0,
            }],
            root: 0,
        };
        assert!(FlatEnsemble::compile(&TreeEnsemble::single_tree(cyclic, 1)).is_err());
        let dangling = Tree {
            nodes: vec![TreeNode::Branch {
                feature: 0,
                threshold: 0.0,
                left: 5,
                right: 5,
            }],
            root: 0,
        };
        assert!(FlatEnsemble::compile(&TreeEnsemble::single_tree(dangling, 1)).is_err());
    }

    #[test]
    fn degenerate_chain_compiles_without_recursion() {
        // A left-leaning chain deeper than any thread stack could absorb one
        // recursion frame per level for: compilation must stay iterative.
        let levels = 200_000usize;
        let mut nodes = Vec::with_capacity(2 * levels + 1);
        for i in 0..levels {
            nodes.push(TreeNode::Branch {
                feature: 0,
                threshold: (levels - i) as f64,
                left: i + 1,
                right: levels + 1 + i,
            });
        }
        nodes.push(TreeNode::Leaf { value: -1.0 });
        for i in 0..levels {
            nodes.push(TreeNode::Leaf { value: i as f64 });
        }
        let ens = TreeEnsemble::single_tree(Tree { nodes, root: 0 }, 1);
        let flat = FlatEnsemble::compile(&ens).unwrap();
        assert_eq!(flat.arena_len(), 2 * levels + 1);
        let x = Matrix::from_columns(&[vec![0.0, levels as f64 - 2.5, f64::NAN]]).unwrap();
        let expected = ens.predict(&x).unwrap();
        let got = flat.predict(&x).unwrap();
        for r in 0..3 {
            assert_eq!(
                expected.get(r, 0).to_bits(),
                got.get(r, 0).to_bits(),
                "row {r}"
            );
        }
    }

    #[test]
    fn shape_check_matches_interpreter() {
        let ens = TreeEnsemble::single_tree(deep_tree(), 2);
        let flat = FlatEnsemble::compile(&ens).unwrap();
        let narrow = Matrix::from_columns(&[vec![1.0]]).unwrap();
        assert!(flat.predict(&narrow).is_err());
        assert!(ens.predict(&narrow).is_err());
    }
}
