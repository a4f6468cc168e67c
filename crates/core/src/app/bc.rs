//! Betweenness Centrality (Brandes' algorithm; Algorithm 1, lines 8–24).
//!
//! Two phases over the same filter interface:
//! * **forward** — level-synchronous shortest-path DAG: `atomicCAS` claims
//!   unvisited neighbors, `atomicAdd` accumulates path counts `sigma`;
//! * **backward** — walk the saved level frontiers deepest-first and
//!   accumulate dependencies `delta[frontier] += sigma[f]/sigma[n] ·
//!   (delta[n]+1)`.
//!
//! BC is the paper's atomic-heavy local-traversal application: improved
//! locality raises atomic conflicts (§7.2's "double-edged sword").

use super::{refill, App, Step};
use crate::{AccessRecorder, DeviceGraph};
use gpu_sim::{Device, DeviceArray};
use sage_graph::NodeId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Forward,
    Backward,
}

/// Betweenness centrality contribution of a single source.
pub struct Bc {
    dist: DeviceArray<i32>,
    sigma: DeviceArray<f32>,
    delta: DeviceArray<f32>,
    phase: Phase,
    level: i32,
    /// Frontier of each forward level, for the backward sweep.
    levels: Vec<Vec<NodeId>>,
    backward_cursor: usize,
}

impl Bc {
    /// Create an uninitialised BC app.
    #[must_use]
    pub fn new(dev: &mut Device) -> Self {
        Self {
            dist: dev.alloc_array(0, 0),
            sigma: dev.alloc_array(0, 0.0),
            delta: dev.alloc_array(0, 0.0),
            phase: Phase::Forward,
            level: 0,
            levels: Vec::new(),
            backward_cursor: 0,
        }
    }

    /// Dependency scores after a run.
    #[must_use]
    pub fn scores(&self) -> &[f32] {
        self.delta.as_slice()
    }

    /// Shortest-path counts after a run.
    #[cfg(test)]
    pub(crate) fn sigmas(&self) -> &[f32] {
        self.sigma.as_slice()
    }
}

impl App for Bc {
    fn name(&self) -> &'static str {
        "bc"
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, source: NodeId) -> Vec<NodeId> {
        let n = g.csr().num_nodes();
        refill(dev, &mut self.dist, n, -1);
        refill(dev, &mut self.sigma, n, 0.0);
        refill(dev, &mut self.delta, n, 0.0);
        self.dist[source as usize] = 0;
        self.sigma[source as usize] = 1.0;
        self.phase = Phase::Forward;
        self.level = 0;
        self.levels = vec![vec![source]];
        self.backward_cursor = 0;
        vec![source]
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.dist.addr(frontier as usize));
        rec.read(self.sigma.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let f = frontier as usize;
        let n = neighbor as usize;
        match self.phase {
            Phase::Forward => {
                rec.read(self.dist.addr(n));
                let mut pass = false;
                if self.dist[n] == -1 {
                    // atomicCAS claim (Algorithm 1 line 10)
                    self.dist[n] = self.level + 1;
                    rec.atomic(self.dist.addr(n));
                    pass = true;
                }
                if self.dist[n] == self.level + 1 {
                    // atomicAdd(sigma[neighbor], sigma[frontier])
                    self.sigma[n] += self.sigma[f];
                    rec.atomic(self.sigma.addr(n));
                }
                pass
            }
            Phase::Backward => {
                rec.read(self.dist.addr(n));
                if self.dist[n] == self.dist[f] + 1 {
                    rec.read(self.sigma.addr(n));
                    rec.read(self.delta.addr(n));
                    let inc = self.sigma[f] / self.sigma[n] * (self.delta[n] + 1.0);
                    self.delta[f] += inc;
                    rec.atomic(self.delta.addr(f));
                }
                false
            }
        }
    }

    fn control(&mut self, _iter: usize, contracted: Vec<NodeId>) -> Step {
        match self.phase {
            Phase::Forward => {
                self.level += 1;
                if contracted.is_empty() {
                    // switch to backward, starting from the deepest level
                    // that still has a level above it
                    self.phase = Phase::Backward;
                    if self.levels.len() < 2 {
                        return Step::Done;
                    }
                    self.backward_cursor = self.levels.len() - 2;
                    Step::Frontier(self.levels[self.backward_cursor].clone())
                } else {
                    self.levels.push(contracted.clone());
                    Step::Frontier(contracted)
                }
            }
            Phase::Backward => {
                if self.backward_cursor == 0 {
                    Step::Done
                } else {
                    self.backward_cursor -= 1;
                    Step::Frontier(self.levels[self.backward_cursor].clone())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    /// Drive the app directly (engine-free) over a graph.
    fn run_direct(g: &Csr, source: NodeId) -> (Vec<f32>, Vec<f32>) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut bc = Bc::new(&mut dev);
        let mut frontier = bc.init(&mut dev, &DeviceGraph::unplaced(g.clone()), source);
        let mut rec = AccessRecorder::new();
        for iter in 1..10_000 {
            let mut next = Vec::new();
            for &f in &frontier {
                bc.on_frontier(f, &mut rec);
                for &n in g.neighbors(f) {
                    if bc.filter(f, n, &mut rec) {
                        next.push(n);
                    }
                }
            }
            rec.clear();
            next.sort_unstable();
            next.dedup();
            match bc.control(iter, next) {
                Step::Done => break,
                Step::Frontier(f) => frontier = f,
            }
        }
        (bc.sigmas().to_vec(), bc.scores().to_vec())
    }

    #[test]
    fn path_graph_dependencies() {
        // undirected path 0-1-2-3, source 0
        let g = Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        let (sigma, delta) = run_direct(&g, 0);
        assert_eq!(sigma, vec![1.0, 1.0, 1.0, 1.0]);
        // delta(1) = 2 (paths to 2 and 3 pass through), delta(2) = 1
        assert!((delta[1] - 2.0).abs() < 1e-6);
        assert!((delta[2] - 1.0).abs() < 1e-6);
        assert_eq!(delta[3], 0.0);
    }

    #[test]
    fn diamond_splits_dependency() {
        // 0->1,2 ; 1,2->3 (undirected diamond)
        let g = Csr::from_edges(
            4,
            &[
                (0, 1),
                (1, 0),
                (0, 2),
                (2, 0),
                (1, 3),
                (3, 1),
                (2, 3),
                (3, 2),
            ],
        );
        let (sigma, delta) = run_direct(&g, 0);
        assert_eq!(sigma[3], 2.0, "two shortest paths to node 3");
        // each middle node carries half of node 3's dependency
        assert!((delta[1] - 0.5).abs() < 1e-6);
        assert!((delta[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn isolated_source_is_done_immediately() {
        let g = Csr::from_edges(3, &[(1, 2), (2, 1)]);
        let (_sigma, delta) = run_direct(&g, 0);
        assert!(delta.iter().all(|&d| d == 0.0));
    }
}
