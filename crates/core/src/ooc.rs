//! Out-of-core execution (§3.3, Figure 8): the graph exceeds device memory
//! and lives in host memory behind PCIe.
//!
//! Two strategies, matching the paper's discussion:
//!
//! * **SAGE-OOC** — on-demand access: CSR arrays are host-placed and every
//!   tile gather crosses PCIe. Because SAGE gathers in sector-aligned
//!   tiles, the requests are merged and aligned (the \[31\]-style behaviour),
//!   so payloads stay large; Resident Tile Stealing keeps many requests in
//!   flight to occupy the external-memory pipeline.
//! * **Subway** ([`crate::engine::SubwayEngine`]) — extract the active
//!   subgraph each iteration and preload it in bulk, asynchronously.
//!
//! A third option, the UM page pool ([`gpu_sim::UmPool`]), is provided for
//! ablations of cache-like pooling versus direct access.

use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::engine::common::contract;
use crate::engine::{Engine, IterationOutput, ResidentEngine};
use gpu_sim::{AccessKind, Device, UmPool};
use sage_graph::{Csr, NodeId};

/// Assemble the SAGE out-of-core setup: host-placed graph + resident-tile
/// engine (per-node state stays in device memory).
///
/// ```
/// use gpu_sim::Device;
/// use sage::app::Bfs;
/// use sage::ooc::sage_out_of_core;
/// use sage::Runner;
///
/// let mut dev = Device::default_device();
/// let csr = sage_graph::gen::uniform_graph(300, 2000, 1);
/// let (g, mut engine) = sage_out_of_core(&mut dev, csr);
/// let mut bfs = Bfs::new(&mut dev);
/// let _ = Runner::new().run(&mut dev, &g, &mut engine, &mut bfs, 0);
/// assert!(dev.profiler().pcie_bytes > 0); // graph reads crossed PCIe
/// ```
pub fn sage_out_of_core(dev: &mut Device, csr: Csr) -> (DeviceGraph, ResidentEngine) {
    let g = DeviceGraph::upload_host(dev, csr);
    (g, ResidentEngine::new())
}

/// A unified-memory style page pool sized to a fraction of the graph, for
/// the UM-ablation: `pool_fraction` of the CSR bytes stay resident.
///
/// # Panics
/// Panics unless `0 < pool_fraction <= 1`.
#[must_use]
pub fn um_pool_for(csr: &Csr, pool_fraction: f64, page_bytes: u64) -> UmPool {
    assert!(
        pool_fraction > 0.0 && pool_fraction <= 1.0,
        "pool fraction must be in (0, 1]"
    );
    let bytes = (csr.bytes() as f64 * pool_fraction) as u64;
    UmPool::new(bytes.max(page_bytes), page_bytes)
}

/// Out-of-core execution through a unified-memory page pool (the paper's
/// §3.3 "out-of-core data pool in the local device memory in a cache-like
/// manner, e.g. unified memory"): graph reads fault whole pages over PCIe
/// and are then served from device memory. The HALO/UM baseline shape:
/// great when the active working set fits the pool and revisits pages,
/// painful when traversal touches more pages than the pool holds.
pub struct UmOocEngine {
    pool: UmPool,
}

impl UmOocEngine {
    /// A UM engine whose pool holds `pool_fraction` of the graph in
    /// `page_bytes` pages.
    ///
    /// # Panics
    /// Panics unless `0 < pool_fraction <= 1`.
    #[must_use]
    pub fn new(csr: &Csr, pool_fraction: f64, page_bytes: u64) -> Self {
        Self {
            pool: um_pool_for(csr, pool_fraction, page_bytes),
        }
    }
}

impl Engine for UmOocEngine {
    fn name(&self) -> &'static str {
        "SAGE-UM"
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
        let mut addrs: Vec<u64> = Vec::new();

        let mut k = dev.launch("um_ooc_expand");
        k.set_concurrency(k.cfg().max_resident_warps as f64);
        let warp = k.cfg().warp_size;
        for (ci, chunk) in frontier.chunks(warp).enumerate() {
            let mut sh = k.shard(ci % sms);
            // offsets through the pool
            addrs.clear();
            for &f in chunk {
                addrs.push(g.offset_addr(f));
                addrs.push(g.offset_addr(f + 1));
            }
            sh.access_um(AccessKind::Read, &addrs, 4, &mut self.pool);
            for &f in chunk {
                app.on_frontier(f, &mut rec);
            }
            rec.flush(&mut sh);

            for &f in chunk {
                let deg = g.csr().degree(f) as u32;
                let beg = g.csr().offset(f);
                let mut off = 0u32;
                while off < deg {
                    let len = (warp as u32).min(deg - off);
                    addrs.clear();
                    for i in 0..len {
                        addrs.push(g.target_addr(beg + off + i));
                    }
                    sh.access_um(AccessKind::Read, &addrs, 4, &mut self.pool);
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
        out
    }

    fn reset(&mut self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use crate::app::Bfs;
    use crate::engine::SubwayEngine;
    use crate::pipeline::Runner;
    use crate::reference;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::{social_graph, SocialParams};

    fn graph() -> Csr {
        social_graph(&SocialParams {
            nodes: 600,
            avg_deg: 10.0,
            ..SocialParams::default()
        })
    }

    #[test]
    fn sage_ooc_is_correct_and_crosses_pcie() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 1);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let (g, mut eng) = sage_out_of_core(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 1);
        assert_eq!(app.distances(), expect.as_slice());
        assert!(dev.profiler().pcie_bytes > 0, "graph reads must cross PCIe");
    }

    #[test]
    fn ooc_slower_than_in_core() {
        let csr = graph();
        let in_core = {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut eng = ResidentEngine::new();
            let mut app = Bfs::new(&mut dev);
            Runner::new()
                .run(&mut dev, &g, &mut eng, &mut app, 1)
                .seconds
        };
        let ooc = {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let (g, mut eng) = sage_out_of_core(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            Runner::new()
                .run(&mut dev, &g, &mut eng, &mut app, 1)
                .seconds
        };
        assert!(
            ooc > in_core,
            "PCIe-bound run ({ooc}) must be slower than in-core ({in_core})"
        );
    }

    #[test]
    fn sage_ooc_competitive_with_subway() {
        // Figure 8's shape: SAGE achieves satisfactory out-of-core BFS
        let csr = graph();
        let sage = {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let (g, mut eng) = sage_out_of_core(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            Runner::new()
                .run(&mut dev, &g, &mut eng, &mut app, 0)
                .seconds
        };
        let subway = {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let mut eng = SubwayEngine::new(&mut dev, csr.num_edges());
            let g = DeviceGraph::upload_host(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            Runner::new()
                .run(&mut dev, &g, &mut eng, &mut app, 0)
                .seconds
        };
        assert!(
            sage < subway * 3.0,
            "SAGE-OOC ({sage}) should be competitive with Subway ({subway})"
        );
    }

    #[test]
    fn um_pool_sizing() {
        let csr = graph();
        let pool = um_pool_for(&csr, 0.25, 4096);
        assert!(pool.page_bytes() == 4096);
    }

    #[test]
    #[should_panic(expected = "pool fraction")]
    fn bad_pool_fraction_rejected() {
        let _ = um_pool_for(&graph(), 0.0, 4096);
    }

    #[test]
    fn um_engine_is_correct_and_faults_pages() {
        let csr = graph();
        let expect = reference::bfs_levels(&csr, 2);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut eng = UmOocEngine::new(&csr, 0.25, 4096);
        let g = DeviceGraph::upload_host(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 2);
        assert_eq!(app.distances(), expect.as_slice());
        let (_, faults, _) = eng.pool.stats();
        assert!(faults > 0, "cold pool must fault");
        assert!(
            dev.profiler().pcie_bytes > 0,
            "faults migrate pages over PCIe"
        );
    }

    #[test]
    fn bigger_um_pool_faults_less() {
        let csr = graph();
        let run = |frac: f64| {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let mut eng = UmOocEngine::new(&csr, frac, 4096);
            let g = DeviceGraph::upload_host(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 2);
            eng.pool.stats().1
        };
        assert!(run(1.0) <= run(0.1), "full-size pool should fault less");
    }

    #[test]
    fn state_arrays_stay_on_device() {
        let csr = graph();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let (g, _eng) = sage_out_of_core(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let _ = app.init(&mut dev, &g, 0);
        // BFS dist array must be device-resident even though the graph is not
        assert!(gpu_sim::mem::is_host_addr(g.target_addr(0)));
    }
}
