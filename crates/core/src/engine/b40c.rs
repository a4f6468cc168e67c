//! B40C — Merrill, Garland & Grimshaw's high-performance graph traversal
//! \[30\]: frontiers are classified into three buckets by `|outdegree|` and
//! each bucket is handled by a pre-configured concurrency scheme.
//!
//! * **CTA takeover** (deg ≥ block): the whole block strip-mines the
//!   adjacency, synchronising between strips;
//! * **warp takeover** (deg ≥ warp): the owning warp consumes it;
//! * **scan-based gathering** (small): a CTA-wide prefix scan packs the
//!   leftovers into dense gather batches.
//!
//! The rescheduling relies on intra-block synchronisation, so it "can only
//! steal workloads in the same SM due to the device limitation" (§5.3) —
//! inter-SM imbalance remains, which is exactly what SAGE's resident tiles
//! remove.

use super::common::{
    charge_offset_reads, contract, gather_filter_range, gather_filter_scattered, NoObserver,
};
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::Device;
use sage_graph::NodeId;

/// The three-bucket B40C engine.
#[derive(Debug)]
pub struct B40cEngine {
    /// Threads per CTA.
    pub block_size: usize,
}

impl Default for B40cEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl B40cEngine {
    /// Default 256-thread CTAs.
    #[must_use]
    pub fn new() -> Self {
        Self { block_size: 256 }
    }
}

impl Engine for B40cEngine {
    fn name(&self) -> &'static str {
        "B40C"
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
        let dev_max_warps = dev.cfg().max_resident_warps as f64;
        let mut out = IterationOutput::default();
        let mut rec = AccessRecorder::new();
        let mut scratch = Vec::new();

        let mut k = dev.launch("b40c_expand");
        // warp-level buckets keep many independent streams in flight, but
        // the CTA barriers between strips cost about a quarter of the
        // occupancy headroom
        k.set_concurrency(dev_max_warps * 0.75);

        // grid-stride frontier tiles: enough CTAs to fill every SM twice
        let chunk_size = frontier
            .len()
            .div_ceil(2 * sms)
            .clamp(warp, self.block_size);

        for (bi, chunk) in frontier.chunks(chunk_size).enumerate() {
            let mut sh = k.shard(bi % sms);
            charge_offset_reads(&mut sh, g, chunk, &mut scratch);
            for &f in chunk {
                app.on_frontier(f, &mut rec);
            }
            rec.flush(&mut sh);

            let mut small: Vec<(NodeId, u32)> = Vec::new();
            for &f in chunk {
                let deg = g.csr().degree(f) as u32;
                let beg = g.csr().offset(f);
                if deg as usize >= self.block_size {
                    // CTA takeover: strip-mine with a barrier per strip
                    let mut off = beg;
                    while off < beg + deg {
                        let len = (self.block_size as u32).min(beg + deg - off);
                        sh.sync();
                        out.edges += gather_filter_range(
                            &mut sh,
                            g,
                            app,
                            f,
                            off,
                            len,
                            &mut rec,
                            &mut out.next,
                            &mut NoObserver,
                            &mut scratch,
                        );
                        off += len;
                    }
                } else if deg as usize >= warp {
                    // warp takeover
                    let mut off = beg;
                    while off < beg + deg {
                        let len = (warp as u32).min(beg + deg - off);
                        out.edges += gather_filter_range(
                            &mut sh,
                            g,
                            app,
                            f,
                            off,
                            len,
                            &mut rec,
                            &mut out.next,
                            &mut NoObserver,
                            &mut scratch,
                        );
                        off += len;
                    }
                } else {
                    for idx in beg..beg + deg {
                        small.push((f, idx));
                    }
                }
            }
            // scan-based gathering of the small bucket: CTA prefix scan +
            // barrier per packed batch
            let log_b = self.block_size.trailing_zeros() as u64;
            for batch in small.chunks(self.block_size) {
                sh.exec_uniform(2 * log_b);
                sh.sync();
                out.edges += gather_filter_scattered(
                    &mut sh,
                    g,
                    app,
                    batch,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use crate::pipeline::Runner;
    use crate::reference;
    use gpu_sim::DeviceConfig;
    use sage_graph::gen::{social_graph, SocialParams};
    use sage_graph::Csr;

    #[test]
    fn bfs_matches_reference() {
        let csr = social_graph(&SocialParams {
            nodes: 500,
            avg_deg: 12.0,
            alpha: 1.9,
            max_deg_frac: 0.2,
            ..SocialParams::default()
        });
        let expect = reference::bfs_levels(&csr, 4);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = B40cEngine { block_size: 16 };
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 4);
        assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn all_three_buckets_consume_their_edges() {
        // node 0: deg 40 (CTA), node 1: deg 10 (warp on tiny gpu warp=8),
        // node 2: deg 2 (scan)
        let mut edges = Vec::new();
        for i in 0..40u32 {
            edges.push((0, 3 + i));
        }
        for i in 0..10u32 {
            edges.push((1, 43 + i));
        }
        edges.push((2, 53));
        edges.push((2, 54));
        let csr = Csr::from_edges(60, &edges);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        app.init(&mut dev, &g, 0);
        let mut eng = B40cEngine { block_size: 16 };
        let out = eng.iterate(&mut dev, &g, &mut app, &[0, 1, 2]);
        assert_eq!(out.edges, 52);
        assert!(dev.profiler().syncs > 0, "CTA strips must synchronise");
    }

    #[test]
    fn beats_naive_on_skewed_graph() {
        let csr = social_graph(&SocialParams {
            nodes: 800,
            avg_deg: 16.0,
            alpha: 1.8,
            max_deg_frac: 0.3,
            ..SocialParams::default()
        });
        let run = |b40c: bool| {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            if b40c {
                let mut e = B40cEngine { block_size: 16 };
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
            } else {
                let mut e = crate::engine::NaiveEngine::new();
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
            }
        };
        assert!(run(true) < run(false));
    }
}
