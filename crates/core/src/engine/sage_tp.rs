//! **Tiled Partitioning** — Algorithm 2 (§5.1), SAGE's runtime load
//! reallocation.
//!
//! Every block starts as one cooperative tile spanning all its threads. As
//! long as any lane's remaining `|outdegree|` is at least the tile size, the
//! tile elects that lane leader and consumes its adjacency in tile-wide
//! coalesced strides; when no lane qualifies the tile binary-partitions and
//! each half continues independently, down to `MIN_TILE_SIZE`; the
//! sub-`MIN_TILE_SIZE` leftovers are handled by scan-based fragment
//! gathering \[30\].
//!
//! The election/shuffle/partition instructions are tracked as *scheduling
//! overhead* (Table 3). Because the whole block cooperates as one tile while
//! the large degrees drain, the SM has few independent instruction streams —
//! the latency-hiding deficiency (Figure 4a) that Resident Tile Stealing
//! fixes.

use super::common::{
    charge_offset_reads, contract, gather_filter_range, gather_filter_scattered, NoObserver,
    PullConfig,
};
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use gpu_sim::tile::{charge_partition, charge_shfl, charge_vote};
use gpu_sim::{Device, Tile};
use sage_graph::NodeId;

/// Nodes per 32-byte sector with 4-byte values: the tile-alignment unit
/// (§5.3) and the sector sampling-based reordering measures locality in (§6).
pub const SECTOR_NODES: u32 = 8;

/// The Tiled Partitioning engine (Algorithm 2).
#[derive(Debug)]
pub struct TiledPartitioningEngine {
    /// Threads per block (power of two).
    pub block_size: usize,
    /// `MIN_TILE_SIZE` (power of two).
    pub min_tile: usize,
    /// Align tile strides to memory sectors (§5.3's tile alignment).
    pub align_tiles: bool,
}

impl Default for TiledPartitioningEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TiledPartitioningEngine {
    /// Paper-default configuration: 256-thread blocks, `MIN_TILE_SIZE = 8`,
    /// tile alignment on.
    #[must_use]
    pub fn new() -> Self {
        Self {
            block_size: 256,
            min_tile: 8,
            align_tiles: true,
        }
    }
}

impl Engine for TiledPartitioningEngine {
    fn name(&self) -> &'static str {
        "SAGE-TP"
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

        let blocks = frontier.len().div_ceil(self.block_size);
        let warps_per_block = (self.block_size / dev.cfg().warp_size).max(1) as f64;
        let mut k = dev.launch("sage_tp_expand");
        // Figure 4a: the tiles of one block execute sequentially, so only
        // the warps of the active tile (plus co-resident blocks) have
        // requests in flight — far below full occupancy.
        let co_resident = (blocks as f64 / sms as f64).clamp(1.0, 2.0);
        k.set_concurrency(warps_per_block * co_resident);

        for (bi, chunk) in frontier.chunks(self.block_size).enumerate() {
            let mut sh = k.shard(bi % sms);
            charge_offset_reads(&mut sh, g, chunk, &mut scratch);
            for &f in chunk {
                app.on_frontier(f, &mut rec);
            }
            rec.flush(&mut sh);

            // per-lane expansion state
            let mut beg: Vec<u32> = chunk.iter().map(|&f| g.csr().offset(f)).collect();
            let end: Vec<u32> = chunk
                .iter()
                .map(|&f| g.csr().offset(f) + g.csr().degree(f) as u32)
                .collect();

            // §5.3 tile alignment: peel the misaligned head into the
            // fragment pass so every stride starts on a sector boundary
            let mut head_frags: Vec<(NodeId, u32)> = Vec::new();
            if self.align_tiles {
                for (i, &f) in chunk.iter().enumerate() {
                    let misalign = beg[i] % SECTOR_NODES;
                    if misalign != 0 && end[i] - beg[i] >= self.min_tile as u32 {
                        let peel = (SECTOR_NODES - misalign).min(end[i] - beg[i]);
                        for p in 0..peel {
                            head_frags.push((f, beg[i] + p));
                        }
                        beg[i] += peel;
                    }
                }
            }

            // lines 8-29: elect-consume-partition
            let mut tile_size = self.block_size;
            while tile_size >= self.min_tile {
                let tile = Tile::new(tile_size);
                let groups = self.block_size / tile_size;
                for gi in 0..groups {
                    let lo = gi * tile_size;
                    if lo >= chunk.len() {
                        continue;
                    }
                    let hi = (lo + tile_size).min(chunk.len());
                    loop {
                        // line 9: tile.any(neighbor_size >= tile.size())
                        charge_vote(&mut sh, tile);
                        let leader = (lo..hi).find(|&i| (end[i] - beg[i]) as usize >= tile_size);
                        let Some(li) = leader else { break };
                        // lines 10-19: elect + shfl(u_beg) + shfl(u_end) +
                        // shfl(frontier)
                        charge_vote(&mut sh, tile);
                        charge_shfl(&mut sh, tile);
                        charge_shfl(&mut sh, tile);
                        charge_shfl(&mut sh, tile);

                        let f = chunk[li];
                        let d = end[li] - beg[li];
                        let strides = d / tile_size as u32;
                        for s in 0..strides {
                            // line 21: tile.all(gather < gather_end)
                            charge_vote(&mut sh, tile);
                            out.edges += gather_filter_range(
                                &mut sh,
                                g,
                                app,
                                f,
                                beg[li] + s * tile_size as u32,
                                tile_size as u32,
                                &mut rec,
                                &mut out.next,
                                &mut NoObserver,
                                &mut scratch,
                            );
                        }
                        // lines 14-17: leader keeps only d mod tile_size
                        beg[li] = end[li] - (d % tile_size as u32);
                    }
                }
                // line 28: cg::partition
                charge_partition(&mut sh, tile);
                if tile_size == 1 {
                    break;
                }
                tile_size /= 2;
            }

            // line 31-32: block sync, then scan-based fragment handling [30]
            sh.sync();
            let mut frags = head_frags;
            for (i, &f) in chunk.iter().enumerate() {
                for idx in beg[i]..end[i] {
                    frags.push((f, idx));
                }
            }
            // CTA-wide prefix scan over fragment counts
            let warp = sh.cfg().warp_size;
            sh.exec_sched(2 * u64::from(self.block_size.trailing_zeros()), warp, warp);
            out.edges += gather_filter_scattered(
                &mut sh,
                g,
                app,
                &frags,
                &mut rec,
                &mut out.next,
                &mut scratch,
            );
        }

        contract(&mut k, g, &mut out.next);
        let _ = k.finish();
        out
    }

    fn bottom_up(&self, dev: &Device, g: &DeviceGraph) -> Option<PullConfig> {
        let sms = dev.cfg().num_sms;
        // same latency-hiding character as the push kernel: the block's
        // tiles cooperate on one candidate's in-range at a time
        let blocks = g.csr().num_nodes().div_ceil(self.block_size);
        let warps_per_block = (self.block_size / dev.cfg().warp_size).max(1) as f64;
        let co_resident = (blocks as f64 / sms as f64).clamp(1.0, 2.0);
        Some(PullConfig {
            kernel: "sage_tp_pull",
            matrix_kernel: "sage_tp_matrix",
            block_size: self.block_size,
            concurrency: warps_per_block * co_resident,
            cooperative: true,
        })
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

    fn tp() -> TiledPartitioningEngine {
        TiledPartitioningEngine {
            block_size: 16,
            min_tile: 4,
            align_tiles: true,
        }
    }

    #[test]
    fn bfs_matches_reference_on_skewed_graph() {
        let csr = social_graph(&SocialParams {
            nodes: 400,
            avg_deg: 12.0,
            alpha: 1.9,
            max_deg_frac: 0.3,
            ..SocialParams::default()
        });
        let expect = reference::bfs_levels(&csr, 3);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = tp();
        let r = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 3);
        assert_eq!(app.distances(), expect.as_slice());
        assert!(
            r.overhead_seconds > 0.0,
            "TP must report scheduling overhead"
        );
        assert!(r.overhead_seconds < r.seconds);
    }

    #[test]
    fn figure3_example_consumes_all_edges() {
        // the paper's Figure 3: 16 threads, degrees as drawn
        let degrees = [1, 1, 34, 1, 11, 1, 1, 9, 1, 27, 1, 1, 6, 1, 1, 1];
        let mut edges = Vec::new();
        let mut next_target = 16u32;
        let n = 16 + degrees.iter().sum::<u32>();
        for (u, &d) in degrees.iter().enumerate() {
            for _ in 0..d {
                edges.push((u as u32, next_target));
                next_target += 1;
            }
        }
        let csr = Csr::from_edges(n as usize, &edges);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let frontier: Vec<u32> = (0..16).collect();
        app.init(&mut dev, &g, 0);
        let mut eng = TiledPartitioningEngine {
            block_size: 16,
            min_tile: 8,
            align_tiles: false,
        };
        let out = eng.iterate(&mut dev, &g, &mut app, &frontier);
        let total: u32 = degrees.iter().sum();
        assert_eq!(
            out.edges,
            u64::from(total),
            "every outdegree consumed exactly once"
        );
    }

    #[test]
    fn better_simt_efficiency_than_naive_on_skewed_frontier() {
        let run = |use_tp: bool| {
            let csr = social_graph(&SocialParams {
                nodes: 600,
                avg_deg: 16.0,
                alpha: 1.8,
                max_deg_frac: 0.3,
                ..SocialParams::default()
            });
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, csr);
            let mut app = Bfs::new(&mut dev);
            if use_tp {
                let mut e = tp();
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0);
            } else {
                let mut e = crate::engine::NaiveEngine::new();
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0);
            }
            dev.profiler().simt_efficiency()
        };
        let tp_eff = run(true);
        let naive_eff = run(false);
        assert!(
            tp_eff > naive_eff,
            "TP SIMT efficiency {tp_eff} should beat naive {naive_eff}"
        );
    }

    #[test]
    fn alignment_reduces_sectors() {
        // one frontier with a misaligned long adjacency
        let mut edges: Vec<(u32, u32)> = (0..3).map(|i| (0u32, 1 + i)).collect(); // node 0: deg 3
        for i in 0..64u32 {
            edges.push((1, 4 + i)); // node 1: deg 64, offset starts at 3 (misaligned)
        }
        let csr = Csr::from_edges(128, &edges);
        let run = |align: bool| {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            app.init(&mut dev, &g, 0);
            let mut eng = TiledPartitioningEngine {
                block_size: 16,
                min_tile: 8,
                align_tiles: align,
            };
            let _ = eng.iterate(&mut dev, &g, &mut app, &[0, 1]);
            dev.profiler().total_sectors()
        };
        assert!(run(true) <= run(false));
    }
}
