//! Multi-source traversal apps: up to 64 BFS/SSSP queries sharing **one**
//! frontier pipeline.
//!
//! The classic MS-BFS idea (Then et al., VLDB 2014) carried onto SAGE's
//! node-centric pipeline: each node holds a 64-bit source bitmask, the
//! frontier is the union of the per-source frontiers, and one `filter`
//! invocation advances every batched source across an edge at once. A batch
//! of k compatible queries therefore pays for one traversal of the shared
//! edge set instead of k.

use gpu_sim::{Device, DeviceArray};
use sage::app::{layout_weight, refill, App, Step};
use sage::{AccessRecorder, DeviceGraph, OriginalIds};
use sage_graph::NodeId;

/// Maximum sources a single multi-source run can carry (bitmask width).
pub const MAX_SOURCES: usize = 64;

/// SSSP's unreached marker, re-exported for result decoding.
pub const UNREACHED: u32 = u32::MAX;

/// `sources` as the slots of one multi-source run.
fn slots(sources: &[NodeId]) -> Vec<NodeId> {
    assert!(
        !sources.is_empty() && sources.len() <= MAX_SOURCES,
        "multi-source batch must hold 1..={MAX_SOURCES} sources, got {}",
        sources.len()
    );
    sources.to_vec()
}

/// Slot `j`'s per-node values out of a node-major `[v * k + j]` array.
fn column<T: Copy>(values: &DeviceArray<T>, k: usize, j: usize) -> Vec<T> {
    values
        .as_slice()
        .iter()
        .skip(j)
        .step_by(k)
        .copied()
        .collect()
}

/// Advance the per-node frontier masks one level: the sources that reached
/// a node this level form its mask for the next.
fn advance(
    cur: &mut DeviceArray<u64>,
    next: &mut DeviceArray<u64>,
    contracted: Vec<NodeId>,
) -> Step {
    std::mem::swap(cur, next);
    next.fill(0);
    if contracted.is_empty() {
        Step::Done
    } else {
        Step::Frontier(contracted)
    }
}

/// Multi-source BFS: per-(node, source) hop distances in one pipeline.
pub struct MsBfs {
    /// Sources in *current* (device) id space.
    sources: Vec<NodeId>,
    /// `dist[v * k + j]`: hop distance of node `v` from source `j`.
    dist: DeviceArray<i32>,
    /// Sources whose frontier contains the node this level.
    cur_mask: DeviceArray<u64>,
    /// Sources that newly reached the node during this level.
    next_mask: DeviceArray<u64>,
    /// Sources that have ever reached the node.
    visited: DeviceArray<u64>,
    level: i32,
}

impl MsBfs {
    /// Build a run for `sources` (current-id space, at most [`MAX_SOURCES`]).
    ///
    /// # Panics
    /// Panics when `sources` is empty or exceeds [`MAX_SOURCES`].
    #[must_use]
    pub fn new(dev: &mut Device, sources: &[NodeId]) -> Self {
        Self {
            sources: slots(sources),
            dist: dev.alloc_array(0, 0),
            cur_mask: dev.alloc_array(0, 0),
            next_mask: dev.alloc_array(0, 0),
            visited: dev.alloc_array(0, 0),
            level: 0,
        }
    }

    /// Distances from source slot `j`, as a per-node vector in current-id
    /// space (-1 = unreached).
    #[must_use]
    pub fn distances_for(&self, j: usize) -> Vec<i32> {
        column(&self.dist, self.sources.len(), j)
    }
}

impl App for MsBfs {
    fn name(&self) -> &'static str {
        "ms-bfs"
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, _source: NodeId) -> Vec<NodeId> {
        let n = g.csr().num_nodes();
        let k = self.sources.len();
        refill(dev, &mut self.dist, n * k, -1);
        for arr in [&mut self.cur_mask, &mut self.next_mask, &mut self.visited] {
            refill(dev, arr, n, 0);
        }
        self.level = 0;
        let mut frontier: Vec<NodeId> = Vec::with_capacity(k);
        for (j, &s) in self.sources.iter().enumerate() {
            let bit = 1u64 << j;
            self.dist[s as usize * k + j] = 0;
            self.cur_mask[s as usize] |= bit;
            self.visited[s as usize] |= bit;
            frontier.push(s);
        }
        frontier.sort_unstable();
        frontier.dedup();
        frontier
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.cur_mask.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let u = frontier as usize;
        let v = neighbor as usize;
        let k = self.sources.len();
        rec.read(self.visited.addr(v));
        let fresh = self.cur_mask[u] & !self.visited[v];
        if fresh == 0 {
            return false;
        }
        // atomicOr on the masks; one write per newly reached (node, source)
        self.visited[v] |= fresh;
        rec.atomic(self.visited.addr(v));
        // dirty: idempotent OR — concurrent SMs may hit the same mask
        // word, but every winner writes the same value (§7.2 benign race)
        self.next_mask[v] |= fresh;
        rec.write_dirty(self.next_mask.addr(v));
        let mut bits = fresh;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // dirty: same-level store — racing parents at one BFS level all write level+1
            self.dist[v * k + j] = self.level + 1;
            rec.write_dirty(self.dist.addr(v * k + j));
        }
        true
    }

    fn control(&mut self, _iter: usize, contracted: Vec<NodeId>) -> Step {
        self.level += 1;
        advance(&mut self.cur_mask, &mut self.next_mask, contracted)
    }
}

/// Multi-source SSSP: per-(node, source) shortest distances over the same
/// synthetic weights the single-source app uses.
pub struct MsSssp {
    sources: Vec<NodeId>,
    /// `dist[v * k + j]`: distance of node `v` from source `j`.
    dist: DeviceArray<u32>,
    /// Sources whose distance at the node improved last level.
    cur_mask: DeviceArray<u64>,
    next_mask: DeviceArray<u64>,
    /// The current → original id map of the graph of the last `init`, read
    /// by [`layout_weight`] (the rule `Sssp` shares), so distances are
    /// invariant under the runtime's reordering.
    ids: OriginalIds,
}

impl MsSssp {
    /// Build a run for `sources` (current-id space, at most [`MAX_SOURCES`]).
    ///
    /// # Panics
    /// Panics when `sources` is empty or exceeds [`MAX_SOURCES`].
    #[must_use]
    pub fn new(dev: &mut Device, sources: &[NodeId]) -> Self {
        Self {
            sources: slots(sources),
            dist: dev.alloc_array(0, 0),
            cur_mask: dev.alloc_array(0, 0),
            next_mask: dev.alloc_array(0, 0),
            ids: OriginalIds::default(),
        }
    }

    /// Distances from source slot `j` in current-id space
    /// ([`UNREACHED`] = unreachable).
    #[must_use]
    pub fn distances_for(&self, j: usize) -> Vec<u32> {
        column(&self.dist, self.sources.len(), j)
    }
}

impl App for MsSssp {
    fn name(&self) -> &'static str {
        "ms-sssp"
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, _source: NodeId) -> Vec<NodeId> {
        let n = g.csr().num_nodes();
        let k = self.sources.len();
        self.ids = g.original_ids().clone();
        refill(dev, &mut self.dist, n * k, UNREACHED);
        for arr in [&mut self.cur_mask, &mut self.next_mask] {
            refill(dev, arr, n, 0);
        }
        let mut frontier: Vec<NodeId> = Vec::with_capacity(k);
        for (j, &s) in self.sources.iter().enumerate() {
            self.dist[s as usize * k + j] = 0;
            self.cur_mask[s as usize] |= 1u64 << j;
            frontier.push(s);
        }
        frontier.sort_unstable();
        frontier.dedup();
        frontier
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.cur_mask.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let u = frontier as usize;
        let v = neighbor as usize;
        let k = self.sources.len();
        let w = layout_weight(&self.ids, frontier, neighbor);
        let mut improved = 0u64;
        let mut bits = self.cur_mask[u];
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            rec.read(self.dist.addr(v * k + j));
            let candidate = self.dist[u * k + j].saturating_add(w);
            if candidate < self.dist[v * k + j] {
                // atomicMin per improved (node, source) pair
                self.dist[v * k + j] = candidate;
                rec.atomic(self.dist.addr(v * k + j));
                improved |= 1u64 << j;
            }
        }
        if improved == 0 {
            return false;
        }
        // dirty: idempotent OR into the shared mask word (§7.2 benign race)
        self.next_mask[v] |= improved;
        rec.write_dirty(self.next_mask.addr(v));
        true
    }

    fn control(&mut self, _iter: usize, contracted: Vec<NodeId>) -> Step {
        advance(&mut self.cur_mask, &mut self.next_mask, contracted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use sage::app::{Bfs, Sssp};
    use sage::engine::ResidentEngine;
    use sage::Runner;
    use sage_graph::gen::uniform_graph;
    use sage_graph::Csr;

    fn run_single_bfs(g: &Csr, source: NodeId) -> Vec<i32> {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, source);
        app.distances().to_vec()
    }

    fn run_single_sssp(g: &Csr, source: NodeId) -> Vec<u32> {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut app = Sssp::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut app, source);
        app.distances().to_vec()
    }

    #[test]
    fn ms_bfs_matches_single_source_runs() {
        let g = uniform_graph(250, 1200, 11);
        let sources = [0u32, 7, 42, 199, 7]; // duplicate source on purpose
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut ms = MsBfs::new(&mut dev, &sources);
        let report = Runner::new().run(&mut dev, &dg, &mut engine, &mut ms, sources[0]);
        assert!(report.edges > 0);
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(
                ms.distances_for(j),
                run_single_bfs(&g, s),
                "source slot {j} (node {s}) diverged"
            );
        }
    }

    #[test]
    fn ms_bfs_shares_one_pipeline() {
        // batched edges processed must be well under k independent runs
        let g = uniform_graph(300, 2400, 3);
        let sources: Vec<NodeId> = (0..16).collect();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut ms = MsBfs::new(&mut dev, &sources);
        let batched = Runner::new().run(&mut dev, &dg, &mut engine, &mut ms, 0);

        let mut single_edges = 0u64;
        for &s in &sources {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let dg = DeviceGraph::upload(&mut dev, g.clone());
            let mut engine = ResidentEngine::new();
            let mut app = Bfs::new(&mut dev);
            single_edges += Runner::new()
                .run(&mut dev, &dg, &mut engine, &mut app, s)
                .edges;
        }
        assert!(
            batched.edges * 2 < single_edges,
            "sharing should at least halve traversed edges: {} vs {}",
            batched.edges,
            single_edges
        );
    }

    #[test]
    fn ms_sssp_matches_single_source_runs() {
        let g = uniform_graph(200, 900, 23);
        let sources = [3u32, 50, 111];
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut ms = MsSssp::new(&mut dev, &sources);
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut ms, sources[0]);
        for (j, &s) in sources.iter().enumerate() {
            assert_eq!(
                ms.distances_for(j),
                run_single_sssp(&g, s),
                "source slot {j} (node {s}) diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 sources")]
    fn too_many_sources_rejected() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let sources: Vec<NodeId> = (0..65).collect();
        let _ = MsBfs::new(&mut dev, &sources);
    }

    #[test]
    fn full_64_source_batch_works() {
        let g = uniform_graph(128, 700, 9);
        let sources: Vec<NodeId> = (0..64).collect();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut dev, g.clone());
        let mut engine = ResidentEngine::new();
        let mut ms = MsBfs::new(&mut dev, &sources);
        let _ = Runner::new().run(&mut dev, &dg, &mut engine, &mut ms, 0);
        assert_eq!(ms.distances_for(63), run_single_bfs(&g, 63));
    }
}
