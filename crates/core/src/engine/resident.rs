//! **Resident Tile Stealing** — Algorithm 3 (§5.2), the full SAGE engine.
//!
//! A push iteration is one cooperative kernel in two phases split by a
//! grid barrier. `expandTiles` materialises each frontier's tiled
//! partitions in device memory ("resident tiles"); a node whose tiles are
//! already resident (revisited in a later iteration or a later run) skips
//! the online scheduling entirely and just reads its records back. After
//! the barrier, *any* cooperative group of a matching size steals tiles
//! from the globally-visible array: work is spread evenly over all SMs
//! (fixing inter-SM imbalance) and every warp is an independent
//! instruction stream (fixing the serialised-tile latency problem of
//! Figure 4a).
//!
//! The engine optionally carries the Sampling-based Reordering observer
//! (§6): each consumed tile's member nodes are reported to it.

use super::common::{
    charge_offset_reads, contract, gather_filter_range, gather_filter_scattered, NoObserver,
    PullConfig, TileObserver,
};
use super::sage_tp::SECTOR_NODES;
use super::{Engine, IterationOutput};
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::reorder::Sampler;
use gpu_sim::tile::{charge_shfl, charge_vote};
use gpu_sim::{AccessKind, Device, Tile};
use sage_graph::NodeId;

/// One resident tile: a `size`-wide slice of some node's adjacency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRec {
    /// First CSR index of the slice.
    pub beg: u32,
    /// Width (a power of two ≥ `min_tile`, or a fragment below it).
    pub len: u32,
}

/// Span marker of a node whose tiles are not resident yet.
const NOT_EXPANDED: u32 = u32::MAX;

/// The Resident Tile Stealing engine (Tiled Partitioning + resident tiles).
pub struct ResidentEngine {
    /// Threads per block (bounds the largest tile).
    pub block_size: usize,
    /// `MIN_TILE_SIZE`.
    pub min_tile: usize,
    /// Align tiles to memory sectors (§5.3).
    pub align_tiles: bool,
    /// Every resident tile record, in expansion order: record `i` lives at
    /// device address `records_base + 8 * i`.
    records: Vec<TileRec>,
    /// Per node, `(first, count)` of its records in `records`; `first ==
    /// NOT_EXPANDED` means not yet expanded.
    spans: Vec<(u32, u32)>,
    /// Device region holding the records (addresses only).
    records_base: u64,
    /// One past the last address of the reserved record region; records
    /// must never cross it, or record writes would alias later
    /// allocations.
    records_end: u64,
    /// Optional Sampling-based Reordering observer.
    pub sampler: Option<Sampler>,
}

impl Default for ResidentEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidentEngine {
    /// Paper-default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            block_size: 256,
            min_tile: 8,
            align_tiles: true,
            records: Vec::new(),
            spans: Vec::new(),
            records_base: 0,
            records_end: 0,
            sampler: None,
        }
    }

    /// Configure geometry.
    #[must_use]
    pub fn with_geometry(block_size: usize, min_tile: usize, align_tiles: bool) -> Self {
        Self {
            block_size,
            min_tile,
            align_tiles,
            ..Self::new()
        }
    }

    /// Fraction of nodes whose tiles are currently resident.
    #[must_use]
    pub fn resident_fraction(&self) -> f64 {
        if self.spans.is_empty() {
            0.0
        } else {
            let expanded = self.spans.iter().filter(|s| s.0 != NOT_EXPANDED).count();
            expanded as f64 / self.spans.len() as f64
        }
    }

    /// Decompose a degree range into power-of-two tiles plus a fragment,
    /// appended to the record arena; returns their `(first, count)` span.
    fn decompose(&mut self, mut beg: u32, end: u32) -> (u32, u32) {
        let first = self.records.len();
        let recs = &mut self.records;
        // sector alignment: peel the misaligned head into a fragment record
        if self.align_tiles {
            let mis = beg % SECTOR_NODES;
            if mis != 0 && end - beg >= self.min_tile as u32 {
                let peel = (SECTOR_NODES - mis).min(end - beg);
                recs.push(TileRec { beg, len: peel });
                beg += peel;
            }
        }
        let mut rem = end - beg;
        while rem >= self.min_tile as u32 {
            let size = (1u32 << (31 - rem.leading_zeros())).min(self.block_size as u32);
            recs.push(TileRec { beg, len: size });
            beg += size;
            rem -= size;
        }
        if rem > 0 {
            recs.push(TileRec { beg, len: rem });
        }
        (first as u32, (recs.len() - first) as u32)
    }

    /// Device address of arena record `index`.
    fn record_addr(&self, index: u32) -> u64 {
        self.records_base + u64::from(index) * 8
    }

    fn ensure_capacity(&mut self, dev: &mut Device, n: usize, edges: usize) {
        if self.spans.len() < n {
            self.spans.resize(n, (NOT_EXPANDED, 0));
        }
        let need = edges.max(1) as u64 * 8;
        if self.records_base == 0 || self.records_end - self.records_base < need {
            // Reserve the resident-tile record region at its worst-case
            // size: every record spans at least one edge, so `edges` u64
            // slots bound the bump cursor. Undersizing this region would
            // let record writes alias arrays allocated later (the race
            // sanitizer flags exactly that on the serving path, where app
            // state is allocated per query after the engine's first run).
            // A larger graph on a reused engine re-reserves; the old region
            // is abandoned (the simulator's bump allocator never frees).
            self.records.clear();
            self.spans.fill((NOT_EXPANDED, 0));
            let region = dev.alloc_array::<u64>(edges.max(1), 0);
            self.records_base = region.base();
            self.records_end = region.base() + region.len() as u64 * 8;
        }
    }
}

impl Engine for ResidentEngine {
    fn name(&self) -> &'static str {
        "SAGE"
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
        let mut scratch: Vec<u64> = Vec::new();
        self.ensure_capacity(dev, g.csr().num_nodes(), g.csr().num_edges());

        let mut k = dev.launch("sage_consume_tiles");
        // every warp is an independent stream in both phases: full occupancy
        k.set_concurrency(k.cfg().max_resident_warps as f64);

        // ---- phase 1: expandTiles (Algorithm 3, lines 2-7) ----
        let mut work: Vec<(NodeId, TileRec)> = Vec::new();
        let mut frags: Vec<(NodeId, u32)> = Vec::new();
        {
            // building the tile schedule is all this phase does
            k.mark_scheduling();
            // expandTiles is plain data-parallel work: grid-stride it so
            // every SM takes part even on small frontiers
            let warp = k.cfg().warp_size;
            let chunk_size = frontier
                .len()
                .div_ceil(2 * sms)
                .clamp(warp, self.block_size.max(warp));
            for (bi, chunk) in frontier.chunks(chunk_size).enumerate() {
                let sm = bi % sms;
                let mut sh = k.shard(sm);
                charge_offset_reads(&mut sh, g, chunk, &mut scratch);
                for &f in chunk {
                    app.on_frontier(f, &mut rec);
                }
                rec.flush(&mut sh);

                for &f in chunk {
                    let fi = f as usize;
                    let deg = g.csr().degree(f) as u32;
                    if deg == 0 {
                        continue;
                    }
                    let (first, count, kind) = if self.spans[fi].0 == NOT_EXPANDED {
                        // online scheduling: decompose and write the records
                        let beg = g.csr().offset(f);
                        let (first, count) = self.decompose(beg, beg + deg);
                        self.spans[fi] = (first, count);
                        debug_assert!(
                            self.record_addr(first + count) <= self.records_end,
                            "resident record region overflow"
                        );
                        // decomposition bookkeeping
                        let w = sh.cfg().warp_size;
                        sh.exec(2 + u64::from(count), 1, w);
                        (first, count, AccessKind::Write)
                    } else {
                        // reuse: read the resident records back
                        let (first, count) = self.spans[fi];
                        (first, count, AccessKind::Read)
                    };
                    scratch.clear();
                    scratch.extend((first..first + count).map(|i| self.record_addr(i)));
                    sh.access(kind, &scratch, 8);
                    for r in &self.records[first as usize..(first + count) as usize] {
                        if r.len >= self.min_tile as u32 {
                            work.push((f, *r));
                        } else {
                            for idx in r.beg..r.beg + r.len {
                                frags.push((f, idx));
                            }
                        }
                    }
                }
            }
        }
        // every record is written before any warp steals one
        k.grid_sync();

        // ---- phase 2: consume by stealing (Algorithm 3, lines 9-20) ----
        {
            // size-major order: CGs of each size drain their class
            work.sort_unstable_by(|a, b| b.1.len.cmp(&a.1.len).then(a.1.beg.cmp(&b.1.beg)));
            let mut sampler = self.sampler.take();
            for (i, &(f, r)) in work.iter().enumerate() {
                // fine-grained stealing: records are claimed device-wide
                let sm = i % sms;
                // line 12-13: vote + elect on the matching size class.
                // Stealing from the globally-visible record array happens at
                // warp granularity (an atomic claim plus an intra-warp
                // broadcast), regardless of how wide the claimed tile is.
                let warp = k.cfg().warp_size;
                let tile = Tile::new((r.len as usize).next_power_of_two().clamp(2, warp));
                let mut sh = k.shard(sm);
                charge_vote(&mut sh, tile);
                charge_shfl(&mut sh, tile);
                let obs: &mut dyn TileObserver = match sampler.as_mut() {
                    Some(s) => s,
                    None => &mut NoObserver,
                };
                out.edges += gather_filter_range(
                    &mut sh,
                    g,
                    app,
                    f,
                    r.beg,
                    r.len,
                    &mut rec,
                    &mut out.next,
                    obs,
                    &mut scratch,
                );
            }
            self.sampler = sampler;
            // fragments: scan-based gathering spread across SMs
            let warp = k.cfg().warp_size;
            for (ci, chunk) in frags.chunks(warp).enumerate() {
                out.edges += gather_filter_scattered(
                    &mut k.shard(ci % sms),
                    g,
                    app,
                    chunk,
                    &mut rec,
                    &mut out.next,
                    &mut scratch,
                );
            }
            contract(&mut k, g, &mut out.next);
        }
        let _ = k.finish();
        out
    }

    fn bottom_up(&self, dev: &Device, _g: &DeviceGraph) -> Option<PullConfig> {
        // Resident tile records describe *out*-adjacency, so neither
        // bottom-up gear consults them: in pull every warp independently
        // claims candidates, keeping the full-occupancy stealing character,
        // and in matrix the adjacency fragments stream once per iteration,
        // block-coalesced.
        Some(PullConfig {
            kernel: "sage_pull",
            matrix_kernel: "sage_matrix",
            block_size: self.block_size,
            concurrency: dev.cfg().max_resident_warps as f64,
            cooperative: true,
        })
    }

    fn reset(&mut self) {
        self.records.clear();
        self.spans.clear();
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

    fn engine() -> ResidentEngine {
        ResidentEngine::with_geometry(16, 4, true)
    }

    fn skewed() -> sage_graph::Csr {
        social_graph(&SocialParams {
            nodes: 500,
            avg_deg: 12.0,
            alpha: 1.9,
            max_deg_frac: 0.2,
            ..SocialParams::default()
        })
    }

    #[test]
    fn decompose_covers_range_exactly() {
        let mut e = ResidentEngine::with_geometry(256, 8, false);
        let (first, count) = e.decompose(10, 10 + 300);
        assert_eq!((first, count as usize), (0, e.records.len()));
        let recs = &e.records;
        let total: u32 = recs.iter().map(|r| r.len).sum();
        assert_eq!(total, 300);
        // contiguous, no overlap
        let mut cur = 10;
        for r in recs.iter() {
            assert_eq!(r.beg, cur);
            cur += r.len;
        }
        // 300 = 256 + 32 + 8 + fragment 4
        let sizes: Vec<u32> = recs.iter().map(|r| r.len).collect();
        assert_eq!(sizes, vec![256, 32, 8, 4]);
    }

    #[test]
    fn decompose_with_alignment_peels_head() {
        let mut e = ResidentEngine::with_geometry(256, 8, true);
        let _ = e.decompose(100, 100 + 3);
        // a second node's records append to the arena after the first's
        let (first, count) = e.decompose(3, 3 + 64);
        assert_eq!(first, 1);
        let recs = &e.records[first as usize..(first + count) as usize];
        assert_eq!(recs[0], TileRec { beg: 3, len: 5 }); // peel to sector boundary
        assert_eq!(recs[1].beg % SECTOR_NODES, 0);
        let total: u32 = recs.iter().map(|r| r.len).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn bfs_matches_reference() {
        let csr = skewed();
        let expect = reference::bfs_levels(&csr, 1);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut app = Bfs::new(&mut dev);
        let mut eng = engine();
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 1);
        assert_eq!(app.distances(), expect.as_slice());
    }

    #[test]
    fn second_run_reuses_resident_tiles_and_is_faster() {
        let csr = skewed();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut eng = engine();
        let mut app = Bfs::new(&mut dev);
        let r1 = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 1);
        assert!(eng.resident_fraction() > 0.5, "most nodes expanded once");
        let r2 = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 1);
        assert!(
            r2.seconds < r1.seconds,
            "resident reuse should speed up the re-run: {} vs {}",
            r2.seconds,
            r1.seconds
        );
        assert!(
            r2.overhead_seconds < r1.overhead_seconds,
            "scheduling overhead should shrink on reuse"
        );
    }

    #[test]
    fn reset_clears_residency() {
        let csr = skewed();
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr);
        let mut eng = engine();
        let mut app = Bfs::new(&mut dev);
        let _ = Runner::new().run(&mut dev, &g, &mut eng, &mut app, 1);
        eng.reset();
        assert_eq!(eng.resident_fraction(), 0.0);
    }

    #[test]
    fn balances_sms_better_than_tp_on_skewed_frontier() {
        // measure kernel imbalance via profiler cycles is indirect; instead
        // compare total runtime on a very skewed graph
        let csr = social_graph(&SocialParams {
            nodes: 800,
            avg_deg: 20.0,
            alpha: 1.75,
            max_deg_frac: 0.4,
            ..SocialParams::default()
        });
        let run = |resident: bool| {
            let mut dev = Device::new(DeviceConfig::test_tiny());
            let g = DeviceGraph::upload(&mut dev, csr.clone());
            let mut app = Bfs::new(&mut dev);
            if resident {
                let mut e = engine();
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
            } else {
                let mut e = crate::engine::TiledPartitioningEngine {
                    block_size: 16,
                    min_tile: 4,
                    align_tiles: true,
                };
                Runner::new().run(&mut dev, &g, &mut e, &mut app, 0).seconds
            }
        };
        let rts = run(true);
        let tp = run(false);
        assert!(
            rts < tp,
            "resident tile stealing ({rts}) should beat plain TP ({tp})"
        );
    }
}
