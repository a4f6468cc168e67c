//! Breadth-First Search (Algorithm 1, lines 2–6).
//!
//! BFS needs no atomics: dirty writes do not affect correctness (§7.2) — a
//! neighbor raced by two frontiers gets the same distance either way.

use super::{App, Step};
use crate::access::AccessRecorder;
use gpu_sim::{Device, DeviceArray};
use sage_graph::{Csr, NodeId};

/// BFS: computes hop distances from a source.
pub struct Bfs {
    dist: DeviceArray<i32>,
    level: i32,
}

impl Bfs {
    /// Create an uninitialised BFS app (arrays are allocated at `init`).
    #[must_use]
    pub fn new(dev: &mut Device) -> Self {
        Self {
            dist: dev.alloc_array(0, 0),
            level: 0,
        }
    }

    /// Hop distances after a run (-1 = unreached).
    #[must_use]
    pub fn distances(&self) -> &[i32] {
        self.dist.as_slice()
    }
}

impl App for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init(&mut self, dev: &mut Device, g: &Csr, source: NodeId) -> Vec<NodeId> {
        if self.dist.len() != g.num_nodes() {
            self.dist = dev.alloc_array(g.num_nodes(), -1);
        } else {
            self.dist.fill(-1);
        }
        self.dist[source as usize] = 0;
        self.level = 0;
        vec![source]
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.dist.addr(frontier as usize));
    }

    fn filter(&mut self, _frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        rec.read(self.dist.addr(neighbor as usize));
        if self.dist[neighbor as usize] == -1 {
            self.dist[neighbor as usize] = self.level + 1;
            // dirty: every racing parent stores the same level — §7.2 benign write-write race
            rec.write_dirty(self.dist.addr(neighbor as usize));
            true
        } else {
            false
        }
    }

    fn control(&mut self, _iter: usize, contracted: Vec<NodeId>) -> Step {
        self.level += 1;
        if contracted.is_empty() {
            Step::Done
        } else {
            Step::Frontier(contracted)
        }
    }

    fn supports_pull(&self) -> bool {
        true
    }

    fn pull_candidate(&mut self, node: NodeId, rec: &mut AccessRecorder) -> bool {
        rec.read(self.dist.addr(node as usize));
        self.dist[node as usize] == -1
    }

    fn pull_claim(&mut self, node: NodeId, _parent: NodeId, rec: &mut AccessRecorder) {
        // dirty: any frontier parent gives the same distance — claim on the first
        self.dist[node as usize] = self.level + 1;
        rec.write_dirty(self.dist.addr(node as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    #[test]
    fn filter_passes_unvisited_only() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut bfs = Bfs::new(&mut dev);
        let f = bfs.init(&mut dev, &g, 0);
        assert_eq!(f, vec![0]);
        let mut rec = AccessRecorder::new();
        assert!(bfs.filter(0, 1, &mut rec));
        assert!(!bfs.filter(0, 1, &mut rec), "second visit filtered out");
        assert_eq!(bfs.distances()[1], 1);
        assert!(!rec.is_empty());
    }

    #[test]
    fn control_advances_level() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut bfs = Bfs::new(&mut dev);
        bfs.init(&mut dev, &g, 0);
        let mut rec = AccessRecorder::new();
        bfs.filter(0, 1, &mut rec);
        assert_eq!(bfs.control(1, vec![1]), Step::Frontier(vec![1]));
        bfs.filter(1, 2, &mut rec);
        assert_eq!(bfs.distances()[2], 2);
        assert_eq!(bfs.control(2, vec![]), Step::Done);
    }

    #[test]
    fn reinit_resets_state() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut bfs = Bfs::new(&mut dev);
        bfs.init(&mut dev, &g, 0);
        let mut rec = AccessRecorder::new();
        bfs.filter(0, 1, &mut rec);
        bfs.init(&mut dev, &g, 2);
        assert_eq!(bfs.distances(), &[-1, -1, 0]);
    }
}
