//! Subway \[38\]: the out-of-core baseline — minimise data transfer by
//! extracting the *active* subgraph each iteration and preloading it into
//! device memory asynchronously.
//!
//! Per iteration: identify the active edges (the frontier's adjacency),
//! build a compact SubCSR, and ship it over PCIe as one bulk transfer that
//! overlaps with the previous iteration's GPU compute; the kernel then runs
//! entirely on device-local, densely packed data. "Planned" regular access
//! keeps the effective PCIe bandwidth high (§7.2), at the price of the
//! per-iteration extraction work and of transferring every active edge
//! whether or not the filter ends up needing it.

use super::common::contract;
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::{pcie, AccessKind, Device};
use sage_graph::NodeId;

/// The Subway out-of-core engine. Expects a host-placed [`DeviceGraph`].
pub struct SubwayEngine {
    /// Host-side subgraph-extraction throughput, edges per second
    /// (multithreaded scan + compaction).
    pub extract_edges_per_sec: f64,
    staging_base: [u64; 2],
    staging_len: usize,
    flip: usize,
    prev_compute: f64,
}

impl SubwayEngine {
    /// Set up with two device staging regions of `capacity_edges` each.
    #[must_use]
    pub fn new(dev: &mut Device, capacity_edges: usize) -> Self {
        let a = dev.alloc_array::<u32>(capacity_edges.max(1), 0);
        let b = dev.alloc_array::<u32>(capacity_edges.max(1), 0);
        Self {
            extract_edges_per_sec: 1.2e9,
            staging_base: [a.base(), b.base()],
            staging_len: capacity_edges.max(1),
            flip: 0,
            prev_compute: 0.0,
        }
    }
}

impl Engine for SubwayEngine {
    fn name(&self) -> &'static str {
        "Subway"
    }

    fn iterate(
        &mut self,
        dev: &mut Device,
        g: &DeviceGraph,
        app: &mut dyn App,
        frontier: &[NodeId],
    ) -> IterationOutput {
        let sms = dev.cfg().num_sms;
        let mut out = IterationOutput::default();
        let mut rec = AccessRecorder::new();
        let mut scratch = Vec::new();

        // 1. identify active edges + extract the SubCSR: scan the
        //    activeness flags over all nodes, then compact the active rows
        let active_edges: u64 = frontier.iter().map(|&f| g.csr().degree(f) as u64).sum();
        let extract_sec =
            (g.csr().num_nodes() as u64 + active_edges) as f64 / self.extract_edges_per_sec;

        // 2. bulk async transfer of the SubCSR (overlaps prior compute)
        let bytes = active_edges * 4 + frontier.len() as u64 * 8;
        let transfer_sec =
            pcie::transfer_seconds(&dev.cfg().pcie, bytes, bytes.div_ceil(1 << 20).max(1));
        let hidden = self.prev_compute.min(transfer_sec);
        dev.advance_seconds(extract_sec + transfer_sec - hidden);
        {
            // account the traffic in the profiler
            let mut k = dev.launch("subway_preload");
            k.pcie_traffic(bytes, bytes.div_ceil(1 << 20).max(1));
            let _ = k.finish();
        }

        // 3. GPU kernel over the densely packed device-local subgraph
        let compute_start = dev.elapsed_seconds();
        {
            let mut k = dev.launch("subway_compute");
            k.set_concurrency(k.cfg().max_resident_warps as f64);
            let base = self.staging_base[self.flip];
            self.flip ^= 1;
            let mut cursor = 0usize; // packed position in the staging buffer
            for (bi, chunk) in frontier.chunks(256).enumerate() {
                let mut sh = k.shard(bi % sms);
                for &f in chunk {
                    app.on_frontier(f, &mut rec);
                }
                rec.flush(&mut sh);
                for &f in chunk {
                    let deg = g.csr().degree(f) as u32;
                    if deg == 0 {
                        continue;
                    }
                    // packed SubCSR: perfectly coalesced target reads from
                    // the staging region
                    let mut off = 0u32;
                    while off < deg {
                        let len = 32u32.min(deg - off);
                        scratch.clear();
                        for i in 0..len as usize {
                            let pos = (cursor + i) % self.staging_len;
                            scratch.push(base + (pos * 4) as u64);
                        }
                        sh.access(AccessKind::Read, &scratch, 4);
                        cursor += len as usize;
                        // filter via functional adjacency
                        for i in 0..len {
                            let nb = g.csr().neighbors(f)[(off + i) as usize];
                            out.edges += 1;
                            if app.filter(f, nb, &mut rec) {
                                out.next.push(nb);
                            }
                        }
                        rec.flush(&mut sh);
                        off += len;
                    }
                }
            }
            contract(&mut k, g, &mut out.next);
            let _ = k.finish();
        }
        self.prev_compute = dev.elapsed_seconds() - compute_start;
        out
    }

    fn reset(&mut self) {
        self.prev_compute = 0.0;
        self.flip = 0;
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
            nodes: 500,
            avg_deg: 10.0,
            ..SocialParams::default()
        })
    }

    #[test]
    fn bfs_matches_reference_out_of_core() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 3);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut eng = SubwayEngine::new(&mut dev, csr.num_edges());
        let g = DeviceGraph::upload_host(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 3);
        assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn transfers_are_bulk_and_recorded() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut eng = SubwayEngine::new(&mut dev, csr.num_edges());
        let g = DeviceGraph::upload_host(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 3);
        let p = dev.profiler();
        assert!(p.pcie_bytes > 0, "subgraph preloads must cross PCIe");
        // bulk: average request ≥ 64 KiB
        assert!(
            p.pcie_bytes / p.pcie_requests.max(1) >= 64 * 1024 || p.pcie_requests <= 2 * 20,
            "requests should be bulky: {} bytes / {} reqs",
            p.pcie_bytes,
            p.pcie_requests
        );
    }

    #[test]
    fn reset_clears_pipeline_state() {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut eng = SubwayEngine::new(&mut dev, 100);
        eng.prev_compute = 5.0;
        eng.reset();
        assert_eq!(eng.prev_compute, 0.0);
    }
}
