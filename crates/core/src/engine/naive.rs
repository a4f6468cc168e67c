//! Thread-per-frontier baseline: the textbook node-centric mapping with no
//! load reallocation at all.
//!
//! Each thread walks its own frontier's whole adjacency; a warp of 32
//! consecutive frontiers executes in lockstep, so the warp runs as many
//! steps as its *largest* degree while smaller lanes idle (warp divergence,
//! §3.1), target reads are scattered across 32 different rows (uncoalesced,
//! §3.2), and an SM whose block holds a super-node runs long after every
//! other SM drained (inter-SM imbalance). This is the "none of the
//! techniques" baseline of the ablation (Figure 10).

use super::common::{charge_offset_reads, contract, gather_filter_scattered, PullConfig};
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::Device;
use sage_graph::NodeId;

/// Thread-per-vertex engine.
#[derive(Debug, Default)]
pub struct NaiveEngine {
    /// Threads per block for SM placement.
    pub block_size: usize,
}

impl NaiveEngine {
    /// Default configuration (256-thread blocks).
    #[must_use]
    pub fn new() -> Self {
        Self { block_size: 256 }
    }
}

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "ThreadPerVertex"
    }

    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput {
        let warp = dev.cfg().warp_size;
        let sms = dev.cfg().num_sms;
        let mut out = IterationOutput::default();
        let mut rec = AccessRecorder::new();
        let mut scratch = Vec::new();
        let mut pairs: Vec<(NodeId, u32)> = Vec::with_capacity(warp);

        let mut k = dev.launch("naive_expand");
        // plenty of independent warps: occupancy-limited concurrency
        let warps_total = frontier.len().div_ceil(warp);
        k.set_concurrency((warps_total as f64 / sms as f64).max(1.0));

        for (wi, chunk) in frontier.chunks(warp).enumerate() {
            let block = wi / (self.block_size / warp).max(1);
            let mut sh = k.shard(block % sms);
            charge_offset_reads(&mut sh, g, chunk, &mut scratch);
            for &f in chunk {
                app.on_frontier(f, &mut rec);
            }
            rec.flush(&mut sh);

            let degs: Vec<u32> = chunk.iter().map(|&f| g.csr().degree(f) as u32).collect();
            let offs: Vec<u32> = chunk.iter().map(|&f| g.csr().offset(f)).collect();
            let max_deg = degs.iter().copied().max().unwrap_or(0);

            // lockstep stepping: step j processes each lane's j-th neighbor
            for j in 0..max_deg {
                pairs.clear();
                for (i, &f) in chunk.iter().enumerate() {
                    if j < degs[i] {
                        pairs.push((f, offs[i] + j));
                    }
                }
                // loop bookkeeping with divergence: idle lanes stay masked
                sh.exec(2, pairs.len(), warp);
                out.edges += gather_filter_scattered(
                    &mut sh,
                    g,
                    app,
                    &pairs,
                    &mut rec,
                    &mut out.next,
                    &mut scratch,
                );
            }
        }
        contract(&mut k, g, &mut out.next);
        let _ = k.finish();
        out
    }

    fn bottom_up(&self, dev: &Device, g: &DeviceGraph) -> Option<PullConfig> {
        let warp = dev.cfg().warp_size;
        let sms = dev.cfg().num_sms;
        // one thread per candidate vertex, no cooperation — the same
        // occupancy-limited character as the push kernel
        let warps_total = g.csr().num_nodes().div_ceil(warp);
        Some(PullConfig {
            kernel: "naive_pull",
            matrix_kernel: "naive_matrix",
            block_size: self.block_size,
            concurrency: (warps_total as f64 / sms as f64).max(1.0),
            cooperative: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    #[test]
    fn traverses_all_frontier_edges() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let csr = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let f = app.init(&mut dev, &g, 0);
        let mut e = NaiveEngine::new();
        let out = e.iterate(&mut dev, &g, &mut app, &f);
        assert_eq!(out.edges, 2);
        assert_eq!(out.next, vec![1, 2]);
        let out2 = e.iterate(&mut dev, &g, &mut app, &[1, 2]);
        assert_eq!(out2.edges, 2);
        assert_eq!(out2.next, vec![3, 4]);
    }

    #[test]
    fn skewed_frontier_shows_divergence() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        // node 0 has degree 32, nodes 1..7 have degree 1
        let mut edges: Vec<(u32, u32)> = (0..32).map(|i| (0u32, 8 + i)).collect();
        for u in 1..8u32 {
            edges.push((u, 40));
        }
        let g = DeviceGraph::upload(&mut dev, Csr::from_edges(41, &edges));
        let mut app = Bfs::new(&mut dev);
        app.init(&mut dev, &g, 0);
        let frontier: Vec<u32> = (0..8).collect();
        let mut e = NaiveEngine::new();
        let out = e.iterate(&mut dev, &g, &mut app, &frontier);
        assert_eq!(out.edges, 32 + 7);
        // warp divergence visible in the profiler
        assert!(
            dev.profiler().simt_efficiency() < 0.9,
            "lockstep over skewed degrees must diverge: {}",
            dev.profiler().simt_efficiency()
        );
    }

    #[test]
    fn empty_frontier_is_cheap() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, Csr::from_edges(2, &[(0, 1)]));
        let mut app = Bfs::new(&mut dev);
        app.init(&mut dev, &g, 0);
        let mut e = NaiveEngine::new();
        let out = e.iterate(&mut dev, &g, &mut app, &[]);
        assert_eq!(out.edges, 0);
        assert!(out.next.is_empty());
    }
}
