//! Shared engine plumbing: charging CSR reads, gathering targets, running
//! filters tile-by-tile.

use super::IterationOutput;
use crate::access::AccessRecorder;
use crate::app::{App, PullStep};
use crate::dgraph::DeviceGraph;
use crate::frontier::BitFrontier;
use gpu_sim::tile::{charge_shfl, charge_vote};
use gpu_sim::{AccessKind, Device, Kernel, SmShard, Tile};
use sage_graph::NodeId;

/// Observes the node groups each tile accesses concurrently — the hook
/// Sampling-based Reordering (§6, Algorithm 4) attaches to.
pub trait TileObserver {
    /// One concurrent tile access over `members` (the neighbor nodes whose
    /// values the tile's lanes read together).
    fn observe(&mut self, members: &[NodeId]);
}

/// A no-op observer.
pub struct NoObserver;

impl TileObserver for NoObserver {
    fn observe(&mut self, _members: &[NodeId]) {}
}

/// Charge the `u_offset[f]`/`u_offset[f+1]` reads for a group of frontiers
/// (each lane reads its frontier's range — two adjacent 4-byte words).
pub fn charge_offset_reads(
    sh: &mut SmShard<'_, '_>,
    g: &DeviceGraph,
    frontiers: &[NodeId],
    addr_scratch: &mut Vec<u64>,
) {
    let warp = sh.cfg().warp_size;
    for chunk in frontiers.chunks(warp) {
        addr_scratch.clear();
        for &f in chunk {
            addr_scratch.push(g.offset_addr(f));
            addr_scratch.push(g.offset_addr(f + 1));
        }
        sh.access(AccessKind::Read, addr_scratch, 4);
    }
}

/// Gather `len` consecutive targets starting at CSR index `beg` with a tile
/// of cooperating lanes, run the filter on each neighbor, flush the state
/// accesses, and return the number of edges traversed.
///
/// The target reads are coalesced (consecutive indices); the filter's state
/// accesses coalesce only as well as the neighbor ids are local — the gap
/// Sampling-based Reordering closes.
#[allow(clippy::too_many_arguments)]
pub fn gather_filter_range(
    sh: &mut SmShard<'_, '_>,
    g: &DeviceGraph,
    app: &mut dyn App,
    frontier: NodeId,
    beg: u32,
    len: u32,
    rec: &mut AccessRecorder,
    next: &mut Vec<NodeId>,
    observer: &mut dyn TileObserver,
    addr_scratch: &mut Vec<u64>,
) -> u64 {
    if len == 0 {
        return 0;
    }
    let warp = sh.cfg().warp_size as u32;
    let targets = g.csr().targets();
    let members = &targets[beg as usize..(beg + len) as usize];
    observer.observe(members);

    // coalesced target reads, one request per warp of lanes
    let mut idx = beg;
    while idx < beg + len {
        let n = warp.min(beg + len - idx);
        addr_scratch.clear();
        for i in 0..n {
            addr_scratch.push(g.target_addr(idx + i));
        }
        sh.access(AccessKind::Read, addr_scratch, 4);
        idx += n;
    }

    for &nb in members {
        if app.filter(frontier, nb, rec) {
            next.push(nb);
        }
    }
    rec.flush(sh);
    u64::from(len)
}

/// Scattered gather: each lane holds its own `(frontier, csr_index)` pair
/// (scan-based fragment handling, thread-per-vertex stepping). Target reads
/// coalesce only accidentally.
#[allow(clippy::too_many_arguments)]
pub fn gather_filter_scattered(
    sh: &mut SmShard<'_, '_>,
    g: &DeviceGraph,
    app: &mut dyn App,
    pairs: &[(NodeId, u32)],
    rec: &mut AccessRecorder,
    next: &mut Vec<NodeId>,
    addr_scratch: &mut Vec<u64>,
) -> u64 {
    let warp = sh.cfg().warp_size;
    let targets = g.csr().targets();
    for chunk in pairs.chunks(warp) {
        addr_scratch.clear();
        for &(_, idx) in chunk {
            addr_scratch.push(g.target_addr(idx));
        }
        sh.access(AccessKind::Read, addr_scratch, 4);
        for &(f, idx) in chunk {
            let nb = targets[idx as usize];
            if app.filter(f, nb, rec) {
                next.push(nb);
            }
        }
        rec.flush(sh);
    }
    pairs.len() as u64
}

/// Charge the frontier-array writes and the prefix-scan of contraction
/// (Figure 2's third stage): `kept` compacted entries written contiguously.
pub fn charge_contraction(k: &mut Kernel<'_>, kept: usize, buffer_base: u64) {
    let warp = k.cfg().warp_size;
    let sms = k.num_sms();
    let mut addrs: Vec<u64> = Vec::with_capacity(warp);
    let mut written = 0usize;
    let mut block = 0usize;
    while written < kept {
        let n = warp.min(kept - written);
        addrs.clear();
        for i in 0..n {
            addrs.push(buffer_base + ((written + i) * 4) as u64);
        }
        let sm = block % sms;
        k.exec(sm, 4, n, warp); // scan + ballot + compact
        k.access(sm, AccessKind::Write, &addrs, 4);
        written += n;
        block += 1;
    }
}

/// Geometry and concurrency knobs of the shared pull (bottom-up) driver —
/// each engine keeps its push-side scheduling character in pull mode too.
#[derive(Debug, Clone)]
pub struct PullConfig {
    /// Kernel name for the profiler breakdown.
    pub kernel: &'static str,
    /// Vertices per block for SM placement.
    pub block_size: usize,
    /// Independent warps per SM (latency hiding).
    pub concurrency: f64,
    /// Charge tile election/broadcast per candidate scan (SAGE engines
    /// cooperate on a candidate's in-adjacency; the naive baseline does
    /// not).
    pub cooperative: bool,
}

/// Scan one candidate vertex's in-edges against the frontier bitmap:
/// coalesced in-target reads, one bitmap-word probe per lane, the app's
/// `pull_update` per frontier member, early exit on a claim. Returns the
/// number of in-edges examined.
#[allow(clippy::too_many_arguments)]
pub fn pull_scan_node(
    sh: &mut SmShard<'_, '_>,
    g: &DeviceGraph,
    app: &mut dyn App,
    u: NodeId,
    fr: &BitFrontier,
    rec: &mut AccessRecorder,
    next: &mut Vec<NodeId>,
    addr_scratch: &mut Vec<u64>,
) -> u64 {
    let in_csr = g.in_csr().expect("pull requires the in-edge view");
    let warp = sh.cfg().warp_size;
    let beg = in_csr.offset(u);
    let deg = in_csr.degree(u) as u32;
    if deg == 0 {
        app.pull_finish(u, rec);
        rec.flush(sh);
        return 0;
    }
    let sources = &in_csr.targets()[beg as usize..(beg + deg) as usize];
    let mut edges = 0u64;
    let mut joined = false;
    'scan: for (ci, chunk) in sources.chunks(warp).enumerate() {
        let idx0 = beg + (ci * warp) as u32;
        // consecutive CSR indices: one coalesced request per warp
        sh.access_range(
            AccessKind::Read,
            g.in_target_addr(idx0),
            chunk.len() as u64,
            4,
        );
        // each lane probes its source's bitmap word
        addr_scratch.clear();
        for &v in chunk {
            addr_scratch.push(fr.word_addr(v));
        }
        sh.access(AccessKind::Read, addr_scratch, 8);
        for &v in chunk {
            edges += 1;
            if !fr.contains(v) {
                continue;
            }
            match app.pull_update(u, v, rec) {
                PullStep::Claim => {
                    if !joined {
                        next.push(u);
                    }
                    // the remaining in-edges go unscanned — the pull win
                    break 'scan;
                }
                PullStep::Update => {
                    if !joined {
                        next.push(u);
                        joined = true;
                    }
                }
                PullStep::Skip => {}
            }
        }
        rec.flush(sh);
    }
    rec.flush(sh);
    app.pull_finish(u, rec);
    rec.flush(sh);
    edges
}

/// Shared pull iteration: gate every vertex through `pull_candidate`, read
/// the candidates' in-offset ranges, then scan each candidate's in-edges
/// against the bitmap. Candidates are processed in ascending order, so
/// `next` comes back sorted and duplicate-free — no host-side contraction
/// sort needed.
///
/// The launch is fused end to end the way a real bottom-up kernel is: the
/// bitmap build runs as its prologue and the surviving vertices append to
/// the queue at `queue_base` through an atomic cursor, so a pull iteration
/// costs exactly one kernel launch.
pub fn pull_iterate(
    dev: &mut Device,
    g: &DeviceGraph,
    app: &mut dyn App,
    fr: &BitFrontier,
    cfg: &PullConfig,
    queue_base: u64,
) -> IterationOutput {
    let n = g.csr().num_nodes();
    let clock = dev.cfg().clock_hz;
    let issue = dev.cfg().issue_width;
    let mut out = IterationOutput::default();
    let mut rec = AccessRecorder::new();
    let mut scratch: Vec<u64> = Vec::new();
    let mut overhead_insts = 0u64;

    let mut k = dev.launch(cfg.kernel);
    k.set_concurrency(cfg.concurrency);
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    let block = cfg.block_size.max(warp);

    // prologue: materialize the frontier bitmap inside this launch
    charge_bitmap_build(&mut k, fr, queue_base);

    // candidate gate: every vertex evaluates it in its block's SM
    let mut candidates: Vec<NodeId> = Vec::new();
    for (bi, lo) in (0..n).step_by(block).enumerate() {
        let sm = bi % sms;
        let hi = (lo + block).min(n);
        let mut chunk_lo = lo;
        let mut sh = k.shard(sm);
        while chunk_lo < hi {
            let chunk_hi = (chunk_lo + warp).min(hi);
            sh.exec(1, chunk_hi - chunk_lo, warp);
            for u in chunk_lo..chunk_hi {
                if app.pull_candidate(u as NodeId, &mut rec) {
                    candidates.push(u as NodeId);
                }
            }
            rec.flush(&mut sh);
            chunk_lo = chunk_hi;
        }
    }

    // each surviving lane reads its candidate's in-offset range
    let warps_per_block = (block / warp).max(1);
    for (ci, chunk) in candidates.chunks(warp).enumerate() {
        let sm = (ci / warps_per_block) % sms;
        scratch.clear();
        for &u in chunk {
            scratch.push(g.in_offset_addr(u));
            scratch.push(g.in_offset_addr(u + 1));
        }
        k.access(sm, AccessKind::Read, &scratch, 4);
    }

    // in-edge scans, ascending candidate order
    let tile = Tile::new(warp);
    for (bi, chunk) in candidates.chunks(block).enumerate() {
        let mut sh = k.shard(bi % sms);
        for &u in chunk {
            if cfg.cooperative {
                // the tile elects the candidate leader and broadcasts its
                // in-range before the coalesced strides
                overhead_insts += charge_vote(&mut sh, tile);
                overhead_insts += charge_shfl(&mut sh, tile);
            }
            out.edges += pull_scan_node(
                &mut sh,
                g,
                app,
                u,
                fr,
                &mut rec,
                &mut out.next,
                &mut scratch,
            );
        }
    }

    // epilogue: surviving vertices append to the next queue through an
    // atomic cursor — contiguous coalesced writes, no separate contraction
    let kept = out.next.len();
    let per_sm = kept.div_ceil(sms);
    for sm in 0..sms {
        let lo = sm * per_sm;
        if lo >= kept {
            break;
        }
        let cnt = per_sm.min(kept - lo);
        k.exec_uniform(sm, (cnt.div_ceil(warp) * 2) as u64);
        k.access_range(
            sm,
            AccessKind::Write,
            queue_base + (lo * 4) as u64,
            cnt as u64,
            4,
        );
    }

    let _ = k.finish();
    out.overhead_seconds = overhead_insts as f64 / issue / clock;
    out
}

/// Charge the dense-frontier build (Figure 2's contraction replaced by a
/// bitmap): zero the words, then each frontier lane reads its queue entry
/// and atomically sets its bit.
pub fn charge_bitmap_build(k: &mut Kernel<'_>, fr: &BitFrontier, queue_base: u64) {
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    // memset of the word array, grid-strided over SMs
    let words = fr.num_words();
    let per_sm = words.div_ceil(sms);
    for sm in 0..sms {
        let lo = sm * per_sm;
        if lo >= words {
            break;
        }
        let cnt = per_sm.min(words - lo);
        k.access_range(
            sm,
            AccessKind::Write,
            fr.device_base() + (lo * 8) as u64,
            cnt as u64,
            8,
        );
    }
    // the memset must complete before any bit is set — a grid-wide barrier
    // (separate kernel in real Gunrock/Enterprise code)
    k.grid_sync();
    // queue reads + scattered word writes
    let mut addrs: Vec<u64> = Vec::with_capacity(warp);
    let members = fr.to_vec();
    for (ci, chunk) in members.chunks(warp).enumerate() {
        let sm = ci % sms;
        k.exec(sm, 2, chunk.len(), warp);
        addrs.clear();
        for (i, _) in chunk.iter().enumerate() {
            addrs.push(queue_base + ((ci * warp + i) * 4) as u64);
        }
        k.access(sm, AccessKind::Read, &addrs, 4);
        addrs.clear();
        for &u in chunk {
            addrs.push(fr.word_addr(u));
        }
        // dirty: atomicOr-equivalent bit set — chunks on different SMs may
        // land in the same 64-bit word, a benign idempotent race
        k.access_dirty(sm, &addrs, 8);
    }
    // bits must be visible before the pull scan / contraction that follows
    k.grid_sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use gpu_sim::{Device, DeviceConfig};
    use sage_graph::Csr;

    fn setup() -> (Device, DeviceGraph) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let csr = Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]);
        let g = DeviceGraph::upload(&mut dev, csr);
        (dev, g)
    }

    #[test]
    fn gather_filter_range_traverses_and_charges() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let frontier = crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        assert_eq!(frontier, vec![0]);
        let mut rec = AccessRecorder::new();
        let mut next = Vec::new();
        let mut scratch = Vec::new();
        let mut k = dev.launch("test");
        let edges = gather_filter_range(
            &mut k.shard(0),
            &g,
            &mut app,
            0,
            g.csr().offset(0),
            g.csr().degree(0) as u32,
            &mut rec,
            &mut next,
            &mut NoObserver,
            &mut scratch,
        );
        let _ = k.finish();
        assert_eq!(edges, 5);
        assert_eq!(next, vec![1, 2, 3, 4, 5]);
        assert!(dev.profiler().mem_requests > 0);
    }

    #[test]
    fn scattered_gather_matches_range_semantics() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let pairs: Vec<(NodeId, u32)> = (0..5).map(|i| (0, g.csr().offset(0) + i)).collect();
        let mut rec = AccessRecorder::new();
        let mut next = Vec::new();
        let mut scratch = Vec::new();
        let mut k = dev.launch("test");
        let edges = gather_filter_scattered(
            &mut k.shard(0),
            &g,
            &mut app,
            &pairs,
            &mut rec,
            &mut next,
            &mut scratch,
        );
        let _ = k.finish();
        assert_eq!(edges, 5);
        assert_eq!(next.len(), 5);
    }

    #[test]
    fn observer_sees_tile_members() {
        struct Collect(Vec<Vec<NodeId>>);
        impl TileObserver for Collect {
            fn observe(&mut self, members: &[NodeId]) {
                self.0.push(members.to_vec());
            }
        }
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let mut obs = Collect(Vec::new());
        let mut rec = AccessRecorder::new();
        let mut next = Vec::new();
        let mut scratch = Vec::new();
        let mut k = dev.launch("test");
        gather_filter_range(
            &mut k.shard(0),
            &g,
            &mut app,
            0,
            g.csr().offset(0),
            5,
            &mut rec,
            &mut next,
            &mut obs,
            &mut scratch,
        );
        let _ = k.finish();
        assert_eq!(obs.0, vec![vec![1, 2, 3, 4, 5]]);
    }

    #[test]
    fn zero_length_gather_is_free() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        crate::app::App::init(&mut app, &mut dev, g.csr(), 0);
        let mut rec = AccessRecorder::new();
        let mut next = Vec::new();
        let mut scratch = Vec::new();
        let mut k = dev.launch("test");
        let edges = gather_filter_range(
            &mut k.shard(0),
            &g,
            &mut app,
            0,
            0,
            0,
            &mut rec,
            &mut next,
            &mut NoObserver,
            &mut scratch,
        );
        let _ = k.finish();
        assert_eq!(edges, 0);
        assert!(next.is_empty());
    }

    #[test]
    fn contraction_charges_writes() {
        let (mut dev, _g) = setup();
        let mut k = dev.launch("contract");
        charge_contraction(&mut k, 100, 1 << 20);
        let _ = k.finish();
        assert!(dev.profiler().write_sectors > 0);
    }
}
