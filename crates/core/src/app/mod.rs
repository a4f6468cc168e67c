//! Graph applications on the node-centric pipeline (§4, Algorithm 1).
//!
//! The main logic of a graph application is its `filter(frontier, neighbor)`
//! — the only interface a developer implements on SAGE. Each filter both
//! *executes* (mutating per-node state held in [`gpu_sim::DeviceArray`]s)
//! and *describes* its memory behaviour by recording the touched addresses
//! on an [`AccessRecorder`]; the engine flushes the recorder per tile so the
//! lanes' accesses coalesce.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod pagerank;
pub mod sssp;

pub use bc::Bc;
pub use bfs::Bfs;
pub use cc::Cc;
pub use pagerank::PageRank;
pub use sssp::Sssp;

use crate::access::AccessRecorder;
use gpu_sim::{AccessKind, Device};
use sage_graph::{Csr, NodeId};
use std::ops::Range;

/// What the pipeline should do after an iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Run another iteration on this frontier.
    Frontier(Vec<NodeId>),
    /// The application converged.
    Done,
}

/// Outcome of one pull-mode edge visit ([`App::pull_update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullStep {
    /// The vertex claimed its final value: join the next frontier and stop
    /// scanning its remaining in-edges (BFS: parent found).
    Claim,
    /// The vertex improved but may improve further: join the next frontier
    /// and keep scanning (CC: a smaller label may still appear).
    Update,
    /// No state change from this in-edge; keep scanning.
    Skip,
}

/// The per-vertex kernel an app runs at the end of an iteration (e.g.
/// PageRank's rank update): vertex `v` touches element `v` of each listed
/// array, in list order, all on the one SM that handles `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexEpilogue {
    /// Per array: how each vertex touches its element, and the device
    /// address of element 0 (4-byte elements).
    pub arrays: Vec<(AccessKind, u64)>,
}

impl VertexEpilogue {
    /// Charge the epilogue for `vertices` as kernel `name` on `dev`. The
    /// range splits into one contiguous slice per SM, and each SM streams
    /// its own slice of every array, so no two SMs touch the same element.
    pub fn charge(&self, dev: &mut Device, name: &str, vertices: Range<usize>) {
        let sms = dev.cfg().num_sms;
        let warp = dev.cfg().warp_size;
        let per_sm = vertices.len().div_ceil(sms);
        let mut k = dev.launch(name);
        for sm in 0..sms {
            let lo = vertices.start + sm * per_sm;
            if lo >= vertices.end {
                break;
            }
            let cnt = per_sm.min(vertices.end - lo);
            let mut sh = k.shard(sm);
            sh.exec_uniform((cnt.div_ceil(warp) * 2 * self.arrays.len()) as u64);
            for &(kind, base) in &self.arrays {
                // one coalesced access per warp of elements
                sh.access_range(kind, base + lo as u64 * 4, cnt as u64, 4);
            }
        }
        let _ = k.finish();
    }
}

/// A graph application: per-edge filtering plus iteration control.
pub trait App {
    /// Short name for reports ("bfs", "bc", "pr", ...).
    fn name(&self) -> &'static str;

    /// Reset state for a fresh run and return the initial frontier.
    fn init(&mut self, dev: &mut Device, g: &Csr, source: NodeId) -> Vec<NodeId>;

    /// Per-frontier work at expansion time (e.g. reading `dist[frontier]`);
    /// records the state addresses it touches.
    fn on_frontier(&mut self, _frontier: NodeId, _rec: &mut AccessRecorder) {}

    /// The filtering step for one edge (Algorithm 1). Returns true when the
    /// neighbor passes the filter into the next frontier.
    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool;

    /// Run the end-of-iteration vertex step, if the app has one (e.g.
    /// PageRank's rank update), and describe the arrays it touches so the
    /// runner can charge it.
    fn iteration_epilogue(&mut self) -> Option<VertexEpilogue> {
        None
    }

    /// Decide the next step given the deduplicated contracted frontier.
    /// The default terminates when the frontier empties (BFS-like local
    /// traversal).
    fn control(&mut self, _iter: usize, contracted: Vec<NodeId>) -> Step {
        if contracted.is_empty() {
            Step::Done
        } else {
            Step::Frontier(contracted)
        }
    }

    /// True when the app implements the pull (bottom-up) contract below.
    /// Apps that only push keep the default and the runner never selects a
    /// pull iteration for them.
    fn supports_pull(&self) -> bool {
        false
    }

    /// Pull-mode candidate gate: should vertex `node`'s in-edges be scanned
    /// this iteration? Records the state reads the gate performs (e.g. BFS
    /// reads `dist[node]` and skips visited vertices). Default: scan all.
    fn pull_candidate(&mut self, _node: NodeId, _rec: &mut AccessRecorder) -> bool {
        true
    }

    /// Pull-mode edge visit: `in_neighbor` is a frontier member with an edge
    /// into `node`. Mutates `node`'s state (no atomics needed — one lane
    /// owns the vertex) and says whether to claim, keep scanning with
    /// membership, or skip.
    fn pull_update(
        &mut self,
        _node: NodeId,
        _in_neighbor: NodeId,
        _rec: &mut AccessRecorder,
    ) -> PullStep {
        PullStep::Skip
    }

    /// Per-candidate work after its in-edge scan completes (e.g. PageRank
    /// writing the accumulated rank once).
    fn pull_finish(&mut self, _node: NodeId, _rec: &mut AccessRecorder) {}
}

/// Deterministic per-edge weight in `1..=15` for weighted applications on
/// unweighted datasets (documented substitution: real weighted graphs are
/// not part of the paper's evaluation).
#[inline]
#[must_use]
pub fn synthetic_weight(u: NodeId, v: NodeId) -> u32 {
    let h = (u as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    ((h >> 33) % 15) as u32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_weight_in_range_and_deterministic() {
        for u in 0..50u32 {
            for v in 0..50u32 {
                let w = synthetic_weight(u, v);
                assert!((1..=15).contains(&w));
                assert_eq!(w, synthetic_weight(u, v));
            }
        }
    }

    #[test]
    fn synthetic_weight_varies() {
        let distinct: std::collections::HashSet<u32> =
            (0..100u32).map(|v| synthetic_weight(0, v)).collect();
        assert!(distinct.len() > 5);
    }
}
