//! Random-walk subsystem: deterministic batched walkers on the simulated
//! GPU (ROADMAP item 4, modelled on C-SAW's per-warp sampling shape).
//!
//! A walk batch runs as one simulated kernel: one walker per lane, warps
//! stepping in lock-step, every neighbor fetch charged through the same
//! `Kernel` access API the traversal engines use — so sector-level cost
//! accounting and the race sanitizer both apply unchanged. Randomness is
//! *counter-based*: each draw is a pure hash of `(seed, walker, step,
//! draw-index)`, so walk outputs are bitwise identical regardless of host
//! thread count or warp scheduling, like everything else in the repo.
//!
//! One transition sampler, with no precomputation: under
//! [`WalkWeights::Synthetic`] each step scans the walker's CSR row by
//! inverse-transform sampling ([`sage_graph::sample::its_sample`]), and
//! under [`WalkWeights::Uniform`] it degenerates to a single modulo pick.
//! A batch therefore keeps no per-graph state: reorder commits, rollbacks
//! and updates leave nothing to rebuild.
//!
//! Apps plug in through [`WalkApp`]: `ppr` (Monte-Carlo personalized
//! PageRank from endpoint counts) and `node2vec` (second-order p/q-biased
//! walks via rejection sampling) live in [`apps`].

pub mod apps;
pub mod engine;

pub use apps::{Node2vec, Ppr};
pub use engine::{run_batch, WalkOutput};

use crate::access::AccessRecorder;
use crate::dgraph::DeviceGraph;
use sage_graph::NodeId;

/// Counter-based RNG: a pure stateless hash of the walk coordinates.
///
/// Draw `draw` of step `step` of walker `walker` is fully determined by the
/// seed — no generator state threads through the simulation, so any lane
/// can be replayed in isolation and host-parallel shards agree bitwise.
/// The finalizer is splitmix64's, with the three coordinates folded in
/// under distinct odd multipliers first.
#[must_use]
pub fn counter_rng(seed: u64, walker: u64, step: u64, draw: u64) -> u64 {
    let mut z = seed
        ^ walker.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ step.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ draw.wrapping_mul(0x1656_67B1_9E37_79F9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edge-weight model for transition probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkWeights {
    /// Every out-edge equally likely.
    Uniform,
    /// The repo's deterministic synthetic weights (`synthetic_weight`),
    /// hashed from *original* node ids so reordering never changes the
    /// sampled distribution.
    Synthetic,
}

/// What a walker does next, as decided by the app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkControl {
    /// Take a transition this step.
    Continue,
    /// Teleport back to the walker's source (PPR restart, dangling-node
    /// teleport) — consumes the step but traverses no edge.
    Restart,
    /// Stop here and record the current node as the walk's endpoint.
    Terminate,
}

/// Parameters of one walk batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkSpec {
    /// Walkers launched per source node.
    pub walks_per_source: usize,
    /// Hard cap on steps; walkers still alive here are force-terminated.
    pub max_length: usize,
    /// RNG seed; same seed ⇒ bitwise-identical batch.
    pub seed: u64,
    /// Edge-weight model.
    pub weights: WalkWeights,
}

impl Default for WalkSpec {
    fn default() -> Self {
        Self {
            walks_per_source: 256,
            max_length: 32,
            seed: 42,
            weights: WalkWeights::Uniform,
        }
    }
}

/// Charged adjacency oracle handed to [`WalkApp::accept_q32`] — answers
/// edge-existence probes (node2vec's "is `next` a neighbor of `prev`?")
/// and records the device reads each probe costs, so second-order bias is
/// not free in the cost model.
pub struct EdgeProbe<'a> {
    g: &'a DeviceGraph,
    rec: &'a mut AccessRecorder,
}

impl<'a> EdgeProbe<'a> {
    /// Wrap a graph and the recorder the probe charges into.
    pub fn new(g: &'a DeviceGraph, rec: &'a mut AccessRecorder) -> Self {
        Self { g, rec }
    }

    /// Binary-search `u`'s sorted row for `v`, charging the offset pair and
    /// every probed target word.
    pub fn has_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.rec.read(self.g.offset_addr(u));
        self.rec.read(self.g.offset_addr(u + 1));
        let row = self.g.csr().neighbors(u);
        let off = self.g.csr().offset(u);
        let (mut lo, mut hi) = (0usize, row.len());
        while lo < hi {
            let mid = usize::midpoint(lo, hi);
            self.rec.read(self.g.target_addr(off + mid as u32));
            if row[mid] < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo < row.len() && row[lo] == v
    }
}

/// A random-walk application: decides per-step control flow and biases
/// proposed transitions. All hooks are pure functions of their arguments
/// (randomness arrives pre-drawn), preserving batch determinism.
pub trait WalkApp {
    /// App name as printed in reports (`"ppr"`, `"node2vec"`).
    fn name(&self) -> &'static str;

    /// Decide this step's control flow from a uniform 64-bit draw, before
    /// any transition is sampled.
    fn control(&self, rng: u64) -> WalkControl {
        let _ = rng;
        WalkControl::Continue
    }

    /// What to do on a node with no out-edges.
    fn at_dangling(&self) -> WalkControl {
        WalkControl::Restart
    }

    /// Q32 acceptance threshold for a proposed transition `cur → next`
    /// given the previous node (rejection sampling for second-order bias).
    /// `u32::MAX` accepts unconditionally; the engine compares a fresh
    /// 32-bit draw against the returned threshold.
    fn accept_q32(
        &self,
        prev: Option<NodeId>,
        cur: NodeId,
        next: NodeId,
        probe: &mut EdgeProbe<'_>,
    ) -> u32 {
        let _ = (prev, cur, next, probe);
        u32::MAX
    }

    /// True when walks run to `max_length` by design (node2vec); reaching
    /// the cap then counts as convergence, not truncation.
    fn fixed_length(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rng_is_pure() {
        assert_eq!(counter_rng(1, 2, 3, 4), counter_rng(1, 2, 3, 4));
    }

    #[test]
    fn counter_rng_separates_coordinates() {
        let base = counter_rng(7, 0, 0, 0);
        assert_ne!(base, counter_rng(8, 0, 0, 0));
        assert_ne!(base, counter_rng(7, 1, 0, 0));
        assert_ne!(base, counter_rng(7, 0, 1, 0));
        assert_ne!(base, counter_rng(7, 0, 0, 1));
    }

    #[test]
    fn counter_rng_is_roughly_uniform() {
        // crude equidistribution check on the top bit
        let ones = (0..4096u64)
            .filter(|&i| counter_rng(3, i, 0, 0) >> 63 == 1)
            .count();
        assert!((1800..2300).contains(&ones), "top-bit ones = {ones}");
    }
}
