//! PageRank (Algorithm 1, lines 26–29): push-style with atomic
//! accumulation.
//!
//! PR is the paper's *global-traversal* application — the frontier of every
//! iteration is the entire node set — with atomic aggregation
//! (`atomicAdd(pr_out[neighbor], increment)`).

use super::{App, Step, VertexEpilogue};
use crate::access::AccessRecorder;
use gpu_sim::{AccessKind, Device, DeviceArray};
use sage_graph::{Csr, NodeId};

/// Damping factor used throughout the paper's pseudo-code.
pub const DAMPING: f32 = 0.85;

/// Fixed-point scale for the rank accumulator. Per-edge increments are
/// computed in f32 (as the GPU would) and then accumulated as scaled
/// integers, making the sum independent of edge visit order — every engine
/// schedule produces bitwise-identical ranks.
const ACC_SCALE: f64 = (1u64 << 40) as f64;

/// Push-style PageRank.
pub struct PageRank {
    pr_in: DeviceArray<f32>,
    pr_out: DeviceArray<f32>,
    outdeg: DeviceArray<u32>,
    acc: Vec<i64>,
    n: usize,
    max_iters: usize,
    tolerance: f32,
    last_delta: f32,
}

/// One edge's rank contribution in the f32 precision a GPU kernel would
/// use, then widened to the order-independent fixed-point domain.
#[inline]
fn fixed_increment(pr: f32, deg: u32) -> i64 {
    let inc = pr * DAMPING / deg.max(1) as f32;
    (f64::from(inc) * ACC_SCALE).round() as i64
}

impl PageRank {
    /// PageRank with the given iteration cap and L1 convergence tolerance.
    #[must_use]
    pub fn new(dev: &mut Device, max_iters: usize, tolerance: f32) -> Self {
        Self {
            pr_in: dev.alloc_array(0, 0.0),
            pr_out: dev.alloc_array(0, 0.0),
            outdeg: dev.alloc_array(0, 0),
            acc: Vec::new(),
            n: 0,
            max_iters,
            tolerance,
            last_delta: f32::INFINITY,
        }
    }

    /// Default configuration (20 iterations or mean L1 change < 1e-7).
    #[must_use]
    pub fn with_defaults(dev: &mut Device) -> Self {
        Self::new(dev, 20, 1e-7)
    }

    /// Ranks after a run.
    #[must_use]
    pub fn ranks(&self) -> &[f32] {
        self.pr_in.as_slice()
    }
}

impl App for PageRank {
    fn name(&self) -> &'static str {
        "pr"
    }

    fn init(&mut self, dev: &mut Device, g: &Csr, _source: NodeId) -> Vec<NodeId> {
        let n = g.num_nodes();
        self.n = n;
        if self.pr_in.len() != n {
            self.pr_in = dev.alloc_array(n, 0.0);
            self.pr_out = dev.alloc_array(n, 0.0);
            self.outdeg = dev.alloc_array(n, 0);
        }
        let init = 1.0 / n as f32;
        self.pr_in.fill(init);
        self.pr_out.fill(0.0);
        self.acc.clear();
        self.acc.resize(n, 0);
        for u in 0..n {
            self.outdeg[u] = g.degree(u as NodeId) as u32;
        }
        self.last_delta = f32::INFINITY;
        (0..n as NodeId).collect()
    }

    fn on_frontier(&mut self, frontier: NodeId, rec: &mut AccessRecorder) {
        rec.read(self.pr_in.addr(frontier as usize));
        rec.read(self.outdeg.addr(frontier as usize));
    }

    fn filter(&mut self, frontier: NodeId, neighbor: NodeId, rec: &mut AccessRecorder) -> bool {
        let f = frontier as usize;
        let n = neighbor as usize;
        self.acc[n] += fixed_increment(self.pr_in[f], self.outdeg[f]);
        rec.atomic(self.pr_out.addr(n));
        false
    }

    fn iteration_epilogue(&mut self) -> Option<VertexEpilogue> {
        // rank-update kernel: read pr_out, write pr_in, reset pr_out
        let base = (1.0 - DAMPING) / self.n as f32;
        let mut delta = 0.0f32;
        for v in 0..self.n {
            let new = base + (self.acc[v] as f64 / ACC_SCALE) as f32;
            delta += (new - self.pr_in[v]).abs();
            self.pr_in[v] = new;
            self.acc[v] = 0;
        }
        self.last_delta = delta / self.n as f32;
        Some(VertexEpilogue {
            arrays: vec![
                (AccessKind::Read, self.pr_out.addr(0)),
                (AccessKind::Write, self.pr_in.addr(0)),
                (AccessKind::Write, self.pr_out.addr(0)),
            ],
        })
    }

    fn control(&mut self, iter: usize, _contracted: Vec<NodeId>) -> Step {
        if iter >= self.max_iters || self.last_delta < self.tolerance {
            Step::Done
        } else {
            Step::Frontier((0..self.n as NodeId).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    fn run_direct(g: &Csr, max_iters: usize) -> Vec<f32> {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut pr = PageRank::new(&mut dev, max_iters, 1e-7);
        let mut frontier = pr.init(&mut dev, g, 0);
        let mut rec = AccessRecorder::new();
        for iter in 1..=max_iters + 1 {
            for &f in frontier.clone().iter() {
                pr.on_frontier(f, &mut rec);
                for &n in g.neighbors(f) {
                    pr.filter(f, n, &mut rec);
                }
            }
            rec.clear();
            pr.iteration_epilogue();
            match pr.control(iter, vec![]) {
                Step::Done => break,
                Step::Frontier(f) => frontier = f,
            }
        }
        pr.ranks().to_vec()
    }

    #[test]
    fn ranks_sum_to_roughly_one_on_strongly_connected_graph() {
        // directed 4-cycle: every node has outdegree 1
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let ranks = run_direct(&g, 30);
        let sum: f32 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum = {sum}");
        // symmetry: all equal
        for &r in &ranks {
            assert!((r - 0.25).abs() < 1e-4);
        }
    }

    #[test]
    fn hub_gets_higher_rank() {
        // stars pointing at node 0 (with back-edges so rank circulates)
        let g = Csr::from_edges(4, &[(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)]);
        let ranks = run_direct(&g, 40);
        assert!(ranks[0] > ranks[1]);
        assert!(ranks[0] > ranks[2]);
    }

    #[test]
    fn converges_before_cap_on_tiny_graph() {
        let g = Csr::from_edges(2, &[(0, 1), (1, 0)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut pr = PageRank::new(&mut dev, 100, 1e-3);
        let mut frontier = pr.init(&mut dev, &g, 0);
        let mut rec = AccessRecorder::new();
        let mut iters = 0;
        for iter in 1..=100 {
            for &f in frontier.clone().iter() {
                for &n in g.neighbors(f) {
                    pr.filter(f, n, &mut rec);
                }
            }
            rec.clear();
            pr.iteration_epilogue();
            iters = iter;
            match pr.control(iter, vec![]) {
                Step::Done => break,
                Step::Frontier(f) => frontier = f,
            }
        }
        assert!(iters < 100, "should converge early, took {iters}");
    }

    #[test]
    fn epilogue_reports_vertex_work() {
        let g = Csr::from_edges(100, &[(0, 1)]);
        let mut dev = Device::new(DeviceConfig {
            sanitize: true,
            ..DeviceConfig::test_tiny()
        });
        let mut pr = PageRank::with_defaults(&mut dev);
        pr.init(&mut dev, &g, 0);
        let epi = pr.iteration_epilogue().expect("PageRank updates ranks");
        assert_eq!(
            epi.arrays,
            vec![
                (AccessKind::Read, pr.pr_out.addr(0)),
                (AccessKind::Write, pr.pr_in.addr(0)),
                (AccessKind::Write, pr.pr_out.addr(0)),
            ]
        );
        // each SM reads and resets only its own slice of pr_out
        epi.charge(&mut dev, "vertex_epilogue", 0..100);
        assert!(dev.hazards().is_empty(), "{:?}", dev.hazards());
        assert!(dev.profiler().write_sectors > 0);
    }
}
