//! Gunrock \[48\]: advance with merge-based load balancing — a global prefix
//! scan over frontier degrees partitions the *edges* evenly across blocks,
//! each block binary-searching the scan for its source rows.
//!
//! Balance is excellent (edge-exact), but every iteration pays the scan +
//! search kernels and their launches — overhead that SAGE avoids by
//! reusing resident tiles instead of re-planning each iteration.

use super::common::{charge_offset_reads, contract, gather_filter_range, NoObserver};
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::{AccessKind, Device};
use sage_graph::NodeId;

/// The Gunrock-style load-balanced engine.
#[derive(Debug)]
pub struct GunrockEngine {
    /// Edges per balanced chunk (one block's share).
    pub chunk_edges: u32,
}

impl Default for GunrockEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl GunrockEngine {
    /// Default 256-edge chunks.
    #[must_use]
    pub fn new() -> Self {
        Self { chunk_edges: 256 }
    }
}

impl Engine for GunrockEngine {
    fn name(&self) -> &'static str {
        "Gunrock"
    }

    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput {
        let sms = dev.cfg().num_sms;
        let warp = dev.cfg().warp_size;
        let mut out = IterationOutput::default();
        let mut rec = AccessRecorder::new();
        let mut scratch = Vec::new();

        // --- scan kernel: exclusive prefix sum of frontier degrees ---
        let mut prefix: Vec<u64> = Vec::with_capacity(frontier.len() + 1);
        prefix.push(0);
        {
            let mut k = dev.launch("gunrock_scan");
            k.set_concurrency(k.cfg().max_resident_warps as f64);
            for (ci, chunk) in frontier.chunks(warp).enumerate() {
                let mut sh = k.shard(ci % sms);
                charge_offset_reads(&mut sh, g, chunk, &mut scratch);
                sh.exec_uniform(2 + warp.trailing_zeros() as u64);
                for &f in chunk {
                    prefix.push(prefix.last().unwrap() + g.csr().degree(f) as u64);
                }
            }
            let _ = k.finish();
        }
        let total_edges = *prefix.last().unwrap();

        // --- advance kernel: edge-balanced chunks with binary search ---
        let mut k = dev.launch("gunrock_advance");
        k.set_concurrency(k.cfg().max_resident_warps as f64);
        // per-frontier state work
        for (ci, chunk) in frontier.chunks(warp).enumerate() {
            for &f in chunk {
                app.on_frontier(f, &mut rec);
            }
            rec.flush(&mut k.shard(ci % sms));
        }

        let chunks = total_edges.div_ceil(u64::from(self.chunk_edges)).max(1);
        let log_f = (frontier.len().max(2) as f64).log2().ceil() as u64;
        let mut row = 0usize; // walk rows alongside the chunk sweep
        for chunk_id in 0..chunks {
            let sm = (chunk_id as usize) % sms;
            let lo = chunk_id * u64::from(self.chunk_edges);
            let hi = (lo + u64::from(self.chunk_edges)).min(total_edges);
            if lo >= hi {
                break;
            }
            // merge-path: every lane binary-searches the scan for its own
            // source row — this per-edge search is the recurring cost SAGE's
            // resident tiles avoid re-paying each iteration
            let lanes = (hi - lo) as usize;
            let warp_sz = k.cfg().warp_size;
            let mut sh = k.shard(sm);
            sh.exec(
                log_f * lanes.div_ceil(warp_sz) as u64,
                lanes.min(warp_sz),
                warp_sz,
            );

            // consume [lo, hi) across the covered rows
            let mut pos = lo;
            while pos < hi {
                while prefix[row + 1] <= pos {
                    row += 1;
                }
                let f = frontier[row];
                // each covered row's offsets are re-read by its lanes
                sh.access(
                    AccessKind::Read,
                    &[g.offset_addr(f), g.offset_addr(f + 1)],
                    4,
                );
                let row_beg = g.csr().offset(f);
                let in_row = (pos - prefix[row]) as u32;
                let len = ((prefix[row + 1] - pos).min(hi - pos)) as u32;
                out.edges += gather_filter_range(
                    &mut sh,
                    g,
                    app,
                    f,
                    row_beg + in_row,
                    len,
                    &mut rec,
                    &mut out.next,
                    &mut NoObserver,
                    &mut scratch,
                );
                pos += u64::from(len);
            }
        }
        contract(&mut k, g, &mut out.next);
        let _ = k.finish();
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
            avg_deg: 14.0,
            alpha: 1.9,
            max_deg_frac: 0.3,
            ..SocialParams::default()
        })
    }

    #[test]
    fn bfs_matches_reference() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 6);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = GunrockEngine { chunk_edges: 64 };
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 6);
        assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn edge_counts_are_exact() {
        let csr = sage_graph::Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5)]);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        app.init(&mut dev, &g, 0);
        let mut eng = GunrockEngine { chunk_edges: 2 };
        let o = eng.iterate(&mut dev, &g, &mut app, &[0, 1, 2]);
        assert_eq!(o.edges, 6);
    }

    #[test]
    fn two_kernels_per_iteration() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        app.init(&mut dev, &g, 0);
        let before = dev.profiler().kernels;
        let mut eng = GunrockEngine::new();
        let _ = eng.iterate(&mut dev, &g, &mut app, &[0]);
        assert!(
            dev.profiler().kernels - before >= 2,
            "scan + advance kernels"
        );
    }
}
