//! Connected Components via min-label propagation — one of the primitives
//! §4 lists as expressible through the filter interface ("merge two
//! components of the frontier and the neighbor").

use super::{refill, App};
use crate::{AccessRecorder, DeviceGraph};
use gpu_sim::{Device, DeviceArray};
use sage_graph::NodeId;

/// Connected components: every node converges to the minimum *original* id
/// among the nodes that reach it (its component's minimum on a symmetric
/// graph), whatever the graph's layout.
pub struct Cc {
    label: DeviceArray<u32>,
}

impl Cc {
    /// Create an uninitialised CC app.
    #[must_use]
    pub fn new(dev: &mut Device) -> Self {
        Self {
            label: dev.alloc_array(0, 0),
        }
    }

    /// Component labels after a run, by current id; each label is an
    /// original id.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        self.label.as_slice()
    }
}

impl App for Cc {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn init(&mut self, dev: &mut Device, g: &DeviceGraph, _source: NodeId) -> Vec<NodeId> {
        let n = g.csr().num_nodes();
        refill(dev, &mut self.label, n, 0);
        // seeded with original ids, min-propagation lands on each node's
        // minimum original reacher directly
        let ids = g.original_ids();
        for u in 0..n {
            self.label[u] = ids.of(u as NodeId);
        }
        (0..n as NodeId).collect()
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.label.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let f = frontier as usize;
        let n = neighbor as usize;
        rec.read(self.label.addr(n));
        if self.label[f] < self.label[n] {
            // atomicMin
            self.label[n] = self.label[f];
            rec.atomic(self.label.addr(n));
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Step;
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    /// Labels by current id after driving `cc` on `g` engine-free.
    fn run_on(g: &DeviceGraph) -> Vec<u32> {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut cc = Cc::new(&mut dev);
        let mut frontier = cc.init(&mut dev, g, 0);
        let mut rec = AccessRecorder::new();
        for iter in 1..10_000 {
            let mut next = Vec::new();
            for &f in &frontier {
                for &n in g.csr().neighbors(f) {
                    if cc.filter(f, n, &mut rec) {
                        next.push(n);
                    }
                }
            }
            rec.clear();
            next.sort_unstable();
            next.dedup();
            match cc.control(iter, next) {
                Step::Done => break,
                Step::Frontier(f) => frontier = f,
            }
        }
        cc.labels().to_vec()
    }

    fn run_direct(g: &Csr) -> Vec<u32> {
        run_on(&DeviceGraph::unplaced(g.clone()))
    }

    #[test]
    fn two_components_get_two_labels() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let labels = run_direct(&g);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[2], 0);
        assert_eq!(labels[3], 3);
        assert_eq!(labels[4], 3);
    }

    #[test]
    fn isolated_nodes_keep_own_label() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]);
        let labels = run_direct(&g);
        assert_eq!(labels, vec![0, 0, 2]);
    }

    #[test]
    fn labels_are_original_ids_on_a_relabelled_directed_graph() {
        // a -> b <- c (original ids 0, 1, 2): b's minimum reacher is a in
        // every layout
        let csr = Csr::from_edges(3, &[(0, 1), (2, 1)]);
        let mut g = DeviceGraph::unplaced(csr.clone());
        g.relabel(&sage_graph::Permutation::new(vec![2, 1, 0]));
        let labels = g.original_ids().to_original_order(&run_on(&g));
        assert_eq!(labels, crate::reference::cc_labels(&csr));
        assert_eq!(labels, vec![0, 0, 2]);
    }

    #[test]
    fn long_path_converges() {
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
        let g = Csr::from_edges(n as usize, &edges);
        let labels = run_direct(&g);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
