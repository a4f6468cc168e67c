//! Ligra \[42\]: the CPU baseline — a lightweight shared-memory framework
//! with direction-optimising traversal on a NUMA multiprocessor.
//!
//! Functional behaviour is identical (push-style filters); cost is charged
//! through the [`gpu_sim::Cpu`] model and added to the device clock so one
//! timeline compares CPU and GPU engines. Direction optimisation is
//! modelled on the *cost* side: when the active edge count exceeds a
//! fraction of |E|, a dense (pull) iteration scans edges more cheaply per
//! edge than frontier bookkeeping-heavy sparse iterations.

use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::{Cpu, CpuConfig, Device};
use sage_graph::NodeId;

/// Ligra-style CPU engine.
pub struct LigraEngine {
    cpu: Cpu,
    /// Dense-mode threshold as a fraction of |E| (Ligra uses 1/20).
    pub dense_threshold: f64,
}

impl Default for LigraEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl LigraEngine {
    /// Ligra on the paper's evaluation host (2× Xeon Gold 6140).
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(CpuConfig::default())
    }

    /// Ligra on an explicit host configuration (the harness passes a
    /// cache-scaled Xeon so the working-set-to-LLC ratio matches the
    /// dataset scale).
    #[must_use]
    pub fn with_config(cfg: CpuConfig) -> Self {
        Self {
            cpu: Cpu::new(cfg),
            dense_threshold: 0.05,
        }
    }
}

// sage-lint: allow(sanitize-coverage) — CPU reference engine: it issues no device probe streams, so the shadow-memory sanitizer has nothing to check
impl Engine for LigraEngine {
    fn name(&self) -> &'static str {
        "Ligra"
    }

    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput {
        let mut out = IterationOutput::default();
        let mut rec = AccessRecorder::new();

        // functional pass (push semantics)
        for &f in frontier {
            app.on_frontier(f, &mut rec);
            for &n in g.csr().neighbors(f) {
                out.edges += 1;
                if app.filter(f, n, &mut rec) {
                    out.next.push(n);
                }
            }
            rec.clear();
        }

        // cost model: sparse (push) vs dense (pull) iteration
        let m = g.csr().num_edges() as f64;
        let n_nodes = g.csr().num_nodes();
        let active = out.edges as f64;
        let dense = active > m * self.dense_threshold;
        let (edges_scanned, imbalance) = if dense {
            // pull scans all edges but with cheap sequential access
            (g.csr().num_edges() as u64, 1.05)
        } else {
            // sparse pays per-frontier bookkeeping and skew (dynamic
            // work-stealing keeps CPU imbalance mild)
            (out.edges + frontier.len() as u64 * 4, 1.2)
        };
        let bytes = edges_scanned * 8 + out.next.len() as u64 * 4;
        let t = self
            .cpu
            .parallel_step(edges_scanned, bytes, (n_nodes * 8) as u64, imbalance);
        dev.advance_seconds(t);
        // contraction runs inside the CPU step above, which already paid
        // for the queue writes; no device kernel is involved
        out.next.sort_unstable();
        out.next.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use crate::pipeline::Runner;
    use crate::reference;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::{social_graph, SocialParams};

    fn graph() -> sage_graph::Csr {
        social_graph(&SocialParams {
            nodes: 600,
            avg_deg: 10.0,
            ..SocialParams::default()
        })
    }

    #[test]
    fn bfs_matches_reference() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 2);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = LigraEngine::new();
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 2);
        assert_eq!(app.distances(), expect.as_slice());
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn slower_than_gpu_engine_on_large_traversal() {
        // the paper's headline: GPU-accelerated computation wins by a large
        // margin (Figure 7)
        let csr = graph();
        let cpu_time = {
            let mut dev = Device::new(DeviceConfig::default());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            let mut e = LigraEngine::new();
            Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
        };
        let gpu_time = {
            let mut dev = Device::new(DeviceConfig::default());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            let mut e = crate::engine::ResidentEngine::new();
            Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
        };
        assert!(
            cpu_time > gpu_time,
            "CPU {cpu_time} should be slower than GPU {gpu_time}"
        );
    }

    #[test]
    fn per_iteration_overhead_dominates_tiny_frontiers() {
        let csr = sage_graph::Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = LigraEngine::new();
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 0);
        // 3 iterations × fork/join overhead at least
        assert!(r.seconds >= 3.0 * CpuConfig::default().parallel_overhead_sec);
    }
}
