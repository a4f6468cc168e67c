//! Shared engine plumbing: charging CSR reads, gathering targets, running
//! filters tile-by-tile.

use super::sage_tp::SECTOR_NODES;
use super::IterationOutput;
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::frontier::BitFrontier;
use gpu_sim::tile::{charge_shfl, charge_vote};
use gpu_sim::{AccessKind, Device, Kernel, SmShard, Tile};
use sage_graph::NodeId;
use std::ops::Range;

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

/// Figure 2's contraction, fused into the kernel `k` that produced `next`
/// (Gunrock's LB_CULL shape) so a push iteration pays no launch of its own:
/// `next` leaves sorted and duplicate-free, and `k` is charged for writing
/// it to the graph's frontier queue before it finishes. A blown-up queue
/// (at least one entry per eight nodes) dedups through the frontier bitmap
/// first; a smaller one goes straight to the scan and compaction. The host
/// sort and dedup that produce the functional queue charge nothing.
pub fn contract(k: &mut Kernel<'_>, g: &DeviceGraph, next: &mut Vec<NodeId>) {
    let n = g.csr().num_nodes();
    let blown_up = !next.is_empty() && next.len() >= n / 8;
    next.sort_unstable();
    next.dedup();
    if blown_up {
        let bits = BitFrontier::from_nodes(next, n, g.bitmap_base());
        charge_bitmap_build(k, &bits, g.queue_base());
    }
    // scan + ballot + compact, one warp of entries per block, written
    // contiguously to the queue
    let warp = k.cfg().warp_size;
    let sms = k.num_sms();
    let mut addrs: Vec<u64> = Vec::with_capacity(warp);
    for (block, chunk) in next.chunks(warp).enumerate() {
        addrs.clear();
        addrs.extend((0..chunk.len()).map(|i| g.queue_base() + ((block * warp + i) * 4) as u64));
        let mut sh = k.shard(block % sms);
        sh.exec(4, chunk.len(), warp);
        sh.access(AccessKind::Write, &addrs, 4);
    }
}

/// Geometry and concurrency knobs of the shared bottom-up drivers — each
/// engine keeps its push-side scheduling character in pull mode too. An
/// engine describes them once per run through
/// [`Engine::bottom_up`](super::Engine::bottom_up).
#[derive(Debug, Clone)]
pub struct PullConfig {
    /// Pull kernel name for the profiler breakdown.
    pub kernel: &'static str,
    /// Matrix (masked SpMV) kernel name for the profiler breakdown; the
    /// matrix gear takes no other knob from the engine.
    pub matrix_kernel: &'static str,
    /// Vertices per block for SM placement.
    pub block_size: usize,
    /// Independent warps per SM (latency hiding).
    pub concurrency: f64,
    /// Charge one warp-wide vote and shuffle per candidate group (the SAGE
    /// engines elect each tile's candidate and broadcast its in-range; the
    /// naive baseline does not). The scan itself is the same either way.
    pub cooperative: bool,
}

/// One candidate's sector-wide pull tile: its next unread in-edge `cur` and
/// the end of its in-range.
#[derive(Debug, Clone, Copy)]
struct PullTile {
    u: NodeId,
    cur: u32,
    end: u32,
    claimed: bool,
}

impl PullTile {
    fn live(&self) -> bool {
        self.cur < self.end
    }

    /// End of the tile's next slice: the next sector boundary of the
    /// in-target array, or the range end if that comes first.
    fn slice_end(&self) -> u32 {
        ((self.cur / SECTOR_NODES + 1) * SECTOR_NODES).min(self.end)
    }
}

/// Scan one warp's `group` of candidates in lock-step, one sector-wide tile
/// per candidate. At each step every live tile reads its candidate's next
/// sector-aligned slice of in-edges (the first slice peels to the sector
/// boundary), all slices in one warp-wide target request, then probes the
/// slices' bitmap words in one warp-wide request. A tile claims its
/// candidate through `pull_claim` at the first frontier in-neighbor of its
/// slice and drops out, as does a tile that reaches the end of its range;
/// each step's claims flush together. Claimed candidates append to `next`
/// in group order. Returns the number of in-edges examined (up to and
/// including each claiming edge).
#[allow(clippy::too_many_arguments)]
fn pull_scan_group(
    sh: &mut SmShard<'_, '_>,
    g: &DeviceGraph,
    app: &mut dyn App,
    group: &[NodeId],
    fr: &BitFrontier,
    rec: &mut AccessRecorder,
    next: &mut Vec<NodeId>,
    tiles: &mut Vec<PullTile>,
    addr_scratch: &mut Vec<u64>,
) -> u64 {
    let in_csr = g.in_csr().expect("pull requires the in-edge view");
    let sources = in_csr.targets();
    tiles.clear();
    tiles.extend(group.iter().map(|&u| {
        let beg = in_csr.offset(u);
        PullTile {
            u,
            cur: beg,
            end: beg + in_csr.degree(u) as u32,
            claimed: false,
        }
    }));
    let mut edges = 0u64;
    loop {
        addr_scratch.clear();
        for t in tiles.iter().filter(|t| t.live()) {
            addr_scratch.extend((t.cur..t.slice_end()).map(|i| g.in_target_addr(i)));
        }
        if addr_scratch.is_empty() {
            break;
        }
        sh.access(AccessKind::Read, addr_scratch, 4);
        // each lane probes its source's bitmap word
        addr_scratch.clear();
        for t in tiles.iter().filter(|t| t.live()) {
            let slice = &sources[t.cur as usize..t.slice_end() as usize];
            addr_scratch.extend(slice.iter().map(|&v| fr.word_addr(v)));
        }
        sh.access(AccessKind::Read, addr_scratch, 8);
        for t in tiles.iter_mut().filter(|t| t.live()) {
            let stop = t.slice_end();
            let slice = &sources[t.cur as usize..stop as usize];
            match slice.iter().position(|&v| fr.contains(v)) {
                Some(i) => {
                    edges += i as u64 + 1;
                    app.pull_claim(t.u, slice[i], rec);
                    t.claimed = true;
                    // the remaining in-edges go unscanned — the pull win
                    t.cur = t.end;
                }
                None => {
                    edges += slice.len() as u64;
                    t.cur = stop;
                }
            }
        }
        rec.flush(sh);
    }
    next.extend(tiles.iter().filter(|t| t.claimed).map(|t| t.u));
    edges
}

/// Shared pull iteration: gate every vertex through `pull_candidate`, read
/// the candidates' in-offset ranges, then scan the candidates' in-edges
/// against the bitmap. Each warp carries `warp_size / SECTOR_NODES`
/// consecutive candidates in lock-step (at least one), one sector-wide tile
/// each, and every tile stops at its candidate's first frontier in-neighbor
/// (see `pull_scan_group`). Groups run in ascending candidate order, so
/// `next` comes back sorted and duplicate-free — no host-side contraction
/// sort needed.
///
/// The launch is fused end to end the way a real bottom-up kernel is: the
/// bitmap build runs as its prologue and the surviving vertices append to
/// the graph's frontier queue through an atomic cursor, so a pull
/// iteration costs exactly one kernel launch.
pub fn pull_iterate(
    dev: &mut Device,
    g: &DeviceGraph,
    app: &mut dyn App,
    fr: &BitFrontier,
    cfg: &PullConfig,
) -> IterationOutput {
    let n = g.csr().num_nodes();
    let mut out = IterationOutput::default();
    let mut rec = AccessRecorder::new();
    let mut scratch: Vec<u64> = Vec::new();

    let mut k = dev.launch(cfg.kernel);
    k.set_concurrency(cfg.concurrency);
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    let block = cfg.block_size.max(warp);

    // prologue: materialize the frontier bitmap inside this launch
    charge_bitmap_build(&mut k, fr, g.queue_base());

    // candidate gate: every vertex evaluates it in its block's SM
    let mut candidates: Vec<NodeId> = Vec::new();
    for (bi, lo) in (0..n).step_by(block).enumerate() {
        let hi = (lo + block).min(n);
        let mut sh = k.shard(bi % sms);
        gate_rows(&mut sh, app, lo..hi, &mut rec, &mut candidates);
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
        k.shard(sm).access(AccessKind::Read, &scratch, 4);
    }

    // in-edge scans: sector-wide tiles, ascending candidate order
    let group = (warp / SECTOR_NODES as usize).max(1);
    let mut tiles: Vec<PullTile> = Vec::with_capacity(group);
    let wide = Tile::new(warp);
    for (bi, chunk) in candidates.chunks(block).enumerate() {
        let mut sh = k.shard(bi % sms);
        for members in chunk.chunks(group) {
            if cfg.cooperative {
                // the warp elects each tile's candidate and broadcasts its
                // in-range before the steps
                charge_vote(&mut sh, wide);
                charge_shfl(&mut sh, wide);
            }
            out.edges += pull_scan_group(
                &mut sh,
                g,
                app,
                members,
                fr,
                &mut rec,
                &mut out.next,
                &mut tiles,
                &mut scratch,
            );
        }
    }

    charge_queue_append(&mut k, out.next.len(), g.queue_base());
    let _ = k.finish();
    out
}

/// The candidate gate of a bottom-up launch: `rows` evaluate
/// `pull_candidate` on `sh`'s SM, one lane per row, and the rows that pass
/// append to `candidates` in ascending order.
pub(super) fn gate_rows(
    sh: &mut SmShard<'_, '_>,
    app: &mut dyn App,
    rows: Range<usize>,
    rec: &mut AccessRecorder,
    candidates: &mut Vec<NodeId>,
) {
    let warp = sh.cfg().warp_size;
    let (mut chunk_lo, hi) = (rows.start, rows.end);
    while chunk_lo < hi {
        let chunk_hi = (chunk_lo + warp).min(hi);
        sh.exec(1, chunk_hi - chunk_lo, warp);
        for u in chunk_lo..chunk_hi {
            if app.pull_candidate(u as NodeId, rec) {
                candidates.push(u as NodeId);
            }
        }
        rec.flush(sh);
        chunk_lo = chunk_hi;
    }
}

/// The epilogue of a bottom-up launch: the `kept` surviving vertices append
/// to the queue at `queue_base` through an atomic cursor — contiguous
/// coalesced writes split evenly over the SMs, no separate contraction.
pub(super) fn charge_queue_append(k: &mut Kernel<'_>, kept: usize, queue_base: u64) {
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    let per_sm = kept.div_ceil(sms);
    for sm in 0..sms {
        let lo = sm * per_sm;
        if lo >= kept {
            break;
        }
        let cnt = per_sm.min(kept - lo);
        let mut sh = k.shard(sm);
        sh.exec_uniform((cnt.div_ceil(warp) * 2) as u64);
        sh.access_range(
            AccessKind::Write,
            queue_base + (lo * 4) as u64,
            cnt as u64,
            4,
        );
    }
}

/// Charge the dense-frontier build (Figure 2's contraction replaced by a
/// bitmap): zero the words, then each frontier lane reads its queue entry
/// and atomically sets its bit.
pub(super) fn charge_bitmap_build(k: &mut Kernel<'_>, fr: &BitFrontier, queue_base: u64) {
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
        k.shard(sm).access_range(
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
        let mut sh = k.shard(ci % sms);
        sh.exec(2, chunk.len(), warp);
        addrs.clear();
        for (i, _) in chunk.iter().enumerate() {
            addrs.push(queue_base + ((ci * warp + i) * 4) as u64);
        }
        sh.access(AccessKind::Read, &addrs, 4);
        addrs.clear();
        for &u in chunk {
            addrs.push(fr.word_addr(u));
        }
        // dirty: atomicOr-equivalent bit set — chunks on different SMs may
        // land in the same 64-bit word, a benign idempotent race
        sh.access_dirty(&addrs, 8);
    }
    // bits must be visible before the pull scan / compaction that follows
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
        let frontier = crate::app::App::init(&mut app, &mut dev, &g, 0);
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
        crate::app::App::init(&mut app, &mut dev, &g, 0);
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
        crate::app::App::init(&mut app, &mut dev, &g, 0);
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
        crate::app::App::init(&mut app, &mut dev, &g, 0);
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

    /// Node 40 has in-edges from 0..20; nodes 30..33 each have one from
    /// 47, so node 40's in-range starts off a sector boundary.
    fn fan_in() -> (Device, DeviceGraph) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let mut edges: Vec<(u32, u32)> = (0..20).map(|s| (s, 40)).collect();
        edges.extend((30..33).map(|t| (47, t)));
        let csr = Csr::from_edges(48, &edges);
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        (dev, g)
    }

    /// Scan candidate 40 of [`fan_in`] against `frontier` in one kernel;
    /// returns the in-edges examined, `next`, and the kernel's memory
    /// requests and sector probes.
    fn scan_fan_in(frontier: &[NodeId]) -> (u64, Vec<NodeId>, u64, u64) {
        let (mut dev, g) = fan_in();
        let mut app = Bfs::new(&mut dev);
        crate::app::App::init(&mut app, &mut dev, &g, 0);
        let fr = BitFrontier::from_nodes(frontier, 48, g.bitmap_base());
        let (mut rec, mut next, mut tiles, mut scratch) =
            (AccessRecorder::new(), Vec::new(), Vec::new(), Vec::new());
        let before = dev.profiler().clone();
        let mut k = dev.launch("test");
        let edges = pull_scan_group(
            &mut k.shard(0),
            &g,
            &mut app,
            &[40],
            &fr,
            &mut rec,
            &mut next,
            &mut tiles,
            &mut scratch,
        );
        let _ = k.finish();
        let p = dev.profiler();
        let probes = |q: &gpu_sim::Profiler| q.l1_hit_sectors + q.l2_hit_sectors + q.dram_sectors;
        (
            edges,
            next,
            p.mem_requests - before.mem_requests,
            probes(p) - probes(&before),
        )
    }

    #[test]
    fn pull_tile_stops_after_one_sector_at_a_first_edge_parent() {
        let (_, g) = fan_in();
        let in_csr = g.in_csr().unwrap();
        assert_eq!(
            in_csr.offset(40) % SECTOR_NODES,
            3,
            "range starts mid-sector"
        );
        assert_eq!(in_csr.neighbors(40)[0], 0);
        let (edges, next, requests, probes) = scan_fan_in(&[0]);
        assert_eq!((edges, next), (1, vec![40]));
        // one step: one in-edge sector, one bitmap sector, the claim write
        assert_eq!((requests, probes), (3, 3));
    }

    #[test]
    fn pull_tile_without_parent_reads_each_sector_of_its_range_once() {
        let (_, g) = fan_in();
        let in_csr = g.in_csr().unwrap();
        let (beg, end) = (in_csr.offset(40), in_csr.offset(40) + 20);
        let sectors = u64::from((end - 1) / SECTOR_NODES - beg / SECTOR_NODES + 1);
        assert_eq!(sectors, 3, "a peeled head, one full sector, a tail");
        // 47 is no in-neighbor of 40
        let (edges, next, requests, probes) = scan_fan_in(&[47]);
        assert_eq!((edges, next), (20, vec![]));
        // each step: one in-edge sector, then one sector of bitmap word 0
        assert_eq!((requests, probes), (2 * sectors, 2 * sectors));
    }

    /// Pull contract recorder: every node outside the frontier is a
    /// candidate, and each claim is kept with its parent.
    struct Claims {
        frontier: Vec<bool>,
        claims: Vec<(NodeId, NodeId)>,
    }

    impl App for Claims {
        fn name(&self) -> &'static str {
            "claims"
        }
        fn init(&mut self, _: &mut Device, _: &DeviceGraph, _: NodeId) -> Vec<NodeId> {
            Vec::new()
        }
        fn filter(&mut self, _: NodeId, _: NodeId, _: &mut AccessRecorder) -> bool {
            false
        }
        fn pull_candidate(&mut self, node: NodeId, _: &mut AccessRecorder) -> bool {
            !self.frontier[node as usize]
        }
        fn pull_claim(&mut self, node: NodeId, parent: NodeId, _: &mut AccessRecorder) {
            self.claims.push((node, parent));
        }
    }

    #[test]
    fn grouped_pull_matches_a_plain_ascending_scan() {
        let csr = sage_graph::gen::rmat_graph(9, 8, 3);
        let n = csr.num_nodes();
        let frontier: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 7 == 0).collect();
        // the plain scan: each candidate in ascending order claims its
        // first frontier in-neighbor and examines the in-edges up to it
        let in_csr = csr.reversed();
        let mut want_claims = Vec::new();
        let mut want_edges = 0u64;
        for u in (0..n as NodeId).filter(|u| u % 7 != 0) {
            let nbrs = in_csr.neighbors(u);
            match nbrs.iter().position(|v| v % 7 == 0) {
                Some(i) => {
                    want_claims.push((u, nbrs[i]));
                    want_edges += i as u64 + 1;
                }
                None => want_edges += nbrs.len() as u64,
            }
        }
        let want_next: Vec<NodeId> = want_claims.iter().map(|c| c.0).collect();
        assert!(want_next.len() > 100, "the graph must exercise many groups");
        for cfg in [DeviceConfig::default(), DeviceConfig::test_tiny()] {
            let mut dev = Device::new(cfg);
            let g = DeviceGraph::upload(&mut dev, csr.clone()).with_in_edges(&mut dev);
            let fr = BitFrontier::from_nodes(&frontier, n, g.bitmap_base());
            let mut app = Claims {
                frontier: (0..n).map(|v| v % 7 == 0).collect(),
                claims: Vec::new(),
            };
            let pull = PullConfig {
                kernel: "p",
                matrix_kernel: "m",
                block_size: 64,
                concurrency: 1.0,
                cooperative: true,
            };
            let out = pull_iterate(&mut dev, &g, &mut app, &fr, &pull);
            assert_eq!(out.next, want_next);
            assert_eq!(out.edges, want_edges);
            app.claims.sort_unstable();
            assert_eq!(app.claims, want_claims);
        }
    }

    #[test]
    fn contraction_charges_writes() {
        let (mut dev, g) = setup();
        let mut next = vec![5, 2, 5, 1];
        let mut k = dev.launch("test");
        contract(&mut k, &g, &mut next);
        let _ = k.finish();
        assert_eq!(next, vec![1, 2, 5]);
        assert!(dev.profiler().write_sectors > 0);
        // fused: the producing kernel is the only launch
        assert_eq!(dev.profiler().kernels, 1);
    }
}
