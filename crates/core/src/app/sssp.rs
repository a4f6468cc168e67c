//! Single-Source Shortest Path (frontier-based Bellman–Ford relaxation) —
//! §4's "iteratively update neighbors' distances" primitive, with
//! deterministic synthetic edge weights (the paper's datasets are
//! unweighted) hashed from *original* node ids, so distances survive
//! reordering.

use super::{layout_weight, refill, App};
use crate::{AccessRecorder, DeviceGraph, OriginalIds};
use gpu_sim::{Device, DeviceArray};
use sage_graph::NodeId;

/// Unreached distance marker.
pub const UNREACHED: u32 = u32::MAX;

/// SSSP with `atomicMin` relaxations.
pub struct Sssp {
    dist: DeviceArray<u32>,
    /// The current → original id map of the graph of the last `init`,
    /// read by [`layout_weight`].
    ids: OriginalIds,
}

impl Sssp {
    /// Create an uninitialised SSSP app.
    #[must_use]
    pub fn new(dev: &mut Device) -> Self {
        Self {
            dist: dev.alloc_array(0, 0),
            ids: OriginalIds::default(),
        }
    }

    /// Distances after a run, by current id ([`UNREACHED`] when
    /// unreachable). They equal the Dijkstra reference on the original
    /// graph once mapped back to original ids; the serve worker returns
    /// them that way for a one-source SSSP batch.
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        self.dist.as_slice()
    }
}

impl App for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, source: NodeId) -> Vec<NodeId> {
        self.ids = g.original_ids().clone();
        refill(dev, &mut self.dist, g.csr().num_nodes(), UNREACHED);
        self.dist[source as usize] = 0;
        vec![source]
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.dist.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let f = frontier as usize;
        let n = neighbor as usize;
        rec.read(self.dist.addr(n));
        let candidate = self.dist[f].saturating_add(layout_weight(&self.ids, frontier, neighbor));
        if candidate < self.dist[n] {
            // atomicMin
            self.dist[n] = candidate;
            rec.atomic(self.dist.addr(n));
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{synthetic_weight, Step};
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    fn run_direct(g: &Csr, source: NodeId) -> Vec<u32> {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut app = Sssp::new(&mut dev);
        let mut frontier = app.init(&mut dev, &DeviceGraph::unplaced(g.clone()), source);
        let mut rec = AccessRecorder::new();
        for iter in 1..100_000 {
            let mut next = Vec::new();
            for &f in &frontier {
                for &n in g.neighbors(f) {
                    if app.filter(f, n, &mut rec) {
                        next.push(n);
                    }
                }
            }
            rec.clear();
            next.sort_unstable();
            next.dedup();
            match app.control(iter, next) {
                Step::Done => break,
                Step::Frontier(f) => frontier = f,
            }
        }
        app.distances().to_vec()
    }

    /// Dijkstra reference over the same synthetic weights.
    fn dijkstra(g: &Csr, source: NodeId) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![UNREACHED; g.num_nodes()];
        dist[source as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &v in g.neighbors(u) {
                let nd = d + synthetic_weight(u, v);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let g = sage_graph::gen::uniform_graph(200, 800, 7);
        assert_eq!(run_direct(&g, 0), dijkstra(&g, 0));
    }

    #[test]
    fn unreachable_stays_unreached() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]);
        let d = run_direct(&g, 0);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[0], 0);
    }

    #[test]
    fn relaxation_improves_through_longer_paths() {
        // weight(0,2) may exceed weight(0,1)+weight(1,2); just check
        // optimality against dijkstra on a triangle
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 1), (1, 0), (2, 0)]);
        assert_eq!(run_direct(&g, 0), dijkstra(&g, 0));
    }
}
