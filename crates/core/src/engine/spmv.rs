//! **Matrix traversal mode** — the direction optimizer's third gear.
//!
//! A pull iteration is a masked sparse-matrix/vector product in disguise:
//! `next = (Aᵀ ⊙ mask) · f`, where `Aᵀ` is the reversed adjacency, `f` the
//! frontier bitmap and `mask` the candidate gate (BFS's unvisited
//! vertices; BFS is the one app with a pull contract). When the frontier is
//! *dense*, executing that product block-by-block on the matrix units beats
//! lane-by-lane CSR scanning: the adjacency is processed as
//! `block_dim × block_dim` binary blocks, each block-column of the frontier
//! is loaded once as a bitmap fragment (one 64-bit word read per active
//! pair instead of one probe per edge), and the block multiply itself
//! retires as a single tensor-unit op (`SmShard::mma`) instead of a
//! cooperative per-candidate election.
//!
//! Early exit survives at block granularity: column blocks are consumed in
//! ascending order and a row claimed at its first frontier parent drops
//! out of every later fragment, so a row-block stops multiplying as soon
//! as all its candidate rows have converged — the block-level
//! convergence check of tensor-core BFS kernels. The residual trade is
//! granularity (a claimed row still pays for the whole fragment that
//! claimed it), which is why the runner only picks this mode above a
//! frontier-density threshold, where first fragments almost always hit.
//!
//! Functionally the mode is *identical* to pull: candidates are walked in
//! ascending order and each claims through the same `pull_claim` at its
//! first frontier in-neighbor, so outputs stay bitwise identical to
//! push-only runs. Cost charging is block-granular and independent of the
//! functional early exit, so simulated cycles are deterministic too.

use super::common::{charge_bitmap_build, charge_queue_append, gate_rows};
use super::IterationOutput;
use crate::access::AccessRecorder;
use crate::app::App;
use crate::dgraph::DeviceGraph;
use crate::frontier::BitFrontier;
use gpu_sim::{AccessKind, Device};
use sage_graph::NodeId;

/// Shared masked-SpMV iteration: the runner drives it for every engine
/// with a bottom-up geometry ([`Engine::bottom_up`](super::Engine::bottom_up)),
/// so the mode's cost character (and its bitwise-deterministic event
/// stream) is engine-independent; only the kernel name is the engine's.
///
/// Per row-block of `block_dim` consecutive vertices (placed round-robin
/// over SMs):
///
/// 1. gate the rows through `pull_candidate` — a fully masked-out block is
///    skipped outright, the `⊙ mask` saving;
/// 2. read the surviving rows' in-offset ranges and split each row's
///    in-adjacency into per-column-block runs (contiguous CSR ranges,
///    because adjacency lists are sorted ascending);
/// 3. walk the active column blocks in ascending order. Per block: read the
///    bitmap fragment (the 64-bit words covering the column range), gather
///    the live rows' runs with coalesced range reads (the on-the-fly `Aᵀ`
///    fragment — no preprocessed block storage), retire one tensor op via
///    [`gpu_sim::SmShard::mma`], and claim each live row whose run holds a
///    frontier member (`pull_claim` at the first one). A claimed row is
///    dead for every later block; once all rows are claimed the row-block
///    stops early.
/// 4. append survivors to the graph's frontier queue in ascending order.
///
/// Because each row's runs are visited in ascending column order — the
/// order its CSR targets are already in — every row claims at the same
/// first frontier in-neighbor a scalar pull scan finds, so outputs are
/// bitwise identical to pull (and therefore to push). Cost charging is
/// run-granular and independent of the functional early exit inside a
/// fragment, so simulated cycles are deterministic too.
pub fn matrix_iterate(
    dev: &mut Device,
    g: &DeviceGraph,
    app: &mut dyn App,
    fr: &BitFrontier,
    kernel: &'static str,
) -> IterationOutput {
    let n = g.csr().num_nodes();
    let block_dim = dev.cfg().tensor.block_dim.max(1);
    let mut out = IterationOutput::default();
    let mut rec = AccessRecorder::new();
    let mut scratch: Vec<u64> = Vec::new();
    let mut candidates: Vec<NodeId> = Vec::new();
    // (col_block, candidate slot, csr range) runs of the current row-block
    let mut runs: Vec<(usize, usize, u32, u32)> = Vec::new();
    let mut claimed: Vec<bool> = Vec::new();

    let row_blocks = n.div_ceil(block_dim);
    let mut k = dev.launch(kernel);
    let sms = k.num_sms();
    let warp = k.cfg().warp_size;
    // full occupancy: warpgroups double-buffer their fragment loads
    // (cp.async software pipelining), so every resident warp is an
    // independent latency-hiding stream, as in the stealing consume kernel
    k.set_concurrency(k.cfg().max_resident_warps as f64);

    // prologue: materialize the frontier bitmap inside this launch
    charge_bitmap_build(&mut k, fr, g.queue_base());

    let in_csr = g.in_csr().expect("matrix mode requires the in-edge view");
    for rb in 0..row_blocks {
        let lo = rb * block_dim;
        let hi = (lo + block_dim).min(n);
        let mut sh = k.shard(rb % sms);

        // 1. candidate gate, one lane per row
        candidates.clear();
        gate_rows(&mut sh, app, lo..hi, &mut rec, &mut candidates);
        if candidates.is_empty() {
            continue; // masked-out block: no fragment work at all
        }

        // 2. in-offset ranges, then split each candidate row into
        // per-column-block runs (contiguous, since targets sort ascending)
        for chunk in candidates.chunks(warp) {
            scratch.clear();
            for &u in chunk {
                scratch.push(g.in_offset_addr(u));
                scratch.push(g.in_offset_addr(u + 1));
            }
            sh.access(AccessKind::Read, &scratch, 4);
        }
        runs.clear();
        for (slot, &u) in candidates.iter().enumerate() {
            let beg = in_csr.offset(u);
            let end = beg + in_csr.degree(u) as u32;
            let targets = in_csr.targets();
            let mut i = beg;
            while i < end {
                let cb = targets[i as usize] as usize / block_dim;
                let mut j = i + 1;
                while j < end && targets[j as usize] as usize / block_dim == cb {
                    j += 1;
                }
                runs.push((cb, slot, i, j));
                i = j;
            }
        }
        // candidate-major build + stable sort = column-major groups whose
        // runs keep ascending row order
        runs.sort_by_key(|&(cb, _, _, _)| cb);
        claimed.clear();
        claimed.resize(candidates.len(), false);
        let mut live = candidates.len();

        // 3. consume column blocks in ascending order with block-level
        // convergence: claimed rows are dead for every later fragment
        let mut gi = 0;
        while gi < runs.len() && live > 0 {
            let cb = runs[gi].0;
            let mut ge = gi;
            while ge < runs.len() && runs[ge].0 == cb {
                ge += 1;
            }
            let group = &runs[gi..ge];
            gi = ge;
            if group.iter().all(|&(_, slot, _, _)| claimed[slot]) {
                continue; // every row of this fragment already converged
            }

            // bitmap fragment: the 64-bit words covering the column block
            scratch.clear();
            let w_lo = cb * block_dim / 64;
            let w_hi = (((cb + 1) * block_dim - 1) / 64).min(fr.num_words() - 1);
            for w in w_lo..=w_hi {
                scratch.push(fr.word_addr_at(w));
            }
            sh.access(AccessKind::Read, &scratch, 8);
            // one tensor op per active pair + fragment steering
            sh.mma(1);
            sh.exec_sched(2, warp, warp);

            // gather the live rows' fragment slices cooperatively: the
            // warp's lanes pack the group's nonzeros into warp-wide loads
            // (a run is contiguous CSR indices, so they coalesce), charged
            // whole regardless of where a claim lands inside them
            scratch.clear();
            for &(_, slot, beg, end) in group {
                if claimed[slot] {
                    continue;
                }
                for idx in beg..end {
                    scratch.push(g.in_target_addr(idx));
                }
                out.edges += u64::from(end - beg);
            }
            for chunk in scratch.chunks(warp) {
                sh.access(AccessKind::Read, chunk, 4);
            }

            for &(_, slot, beg, end) in group {
                if claimed[slot] {
                    continue;
                }
                let u = candidates[slot];
                let parent = in_csr.targets()[beg as usize..end as usize]
                    .iter()
                    .find(|&&v| fr.contains(v));
                if let Some(&v) = parent {
                    app.pull_claim(u, v, &mut rec);
                    claimed[slot] = true;
                    live -= 1;
                }
            }
            rec.flush(&mut sh);
        }

        // 4. survivors in ascending row order — `next` matches a pull
        // iteration bit for bit
        for (slot, &u) in candidates.iter().enumerate() {
            if claimed[slot] {
                out.next.push(u);
            }
        }
    }

    charge_queue_append(&mut k, out.next.len(), g.queue_base());
    let _ = k.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Bfs;
    use crate::engine::common::{pull_iterate, PullConfig};
    use gpu_sim::DeviceConfig;
    use sage_graph::Csr;

    fn chain_plus_fan() -> Csr {
        // 0 -> everyone in 1..40, plus a chain 40 -> 41 -> 42
        let mut edges: Vec<(u32, u32)> = (1..40).map(|t| (0u32, t)).collect();
        edges.push((1, 40));
        edges.push((40, 41));
        edges.push((41, 42));
        Csr::from_edges(43, &edges)
    }

    fn setup() -> (Device, DeviceGraph) {
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, chain_plus_fan()).with_in_edges(&mut dev);
        (dev, g)
    }

    #[test]
    fn matrix_output_matches_pull_output() {
        let run = |matrix: bool| {
            let (mut dev, g) = setup();
            let mut app = Bfs::new(&mut dev);
            let f = crate::app::App::init(&mut app, &mut dev, &g, 0);
            let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
            let out = if matrix {
                matrix_iterate(&mut dev, &g, &mut app, &fr, "m")
            } else {
                let cfg = PullConfig {
                    kernel: "p",
                    matrix_kernel: "m",
                    block_size: 256,
                    concurrency: 1.0,
                    cooperative: false,
                };
                pull_iterate(&mut dev, &g, &mut app, &fr, &cfg)
            };
            out.next
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (1..40).collect::<Vec<u32>>());
    }

    #[test]
    fn matrix_retires_tensor_ops() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, &g, 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m");
        assert!(
            dev.profiler().mma_ops > 0,
            "block pairs must hit the mma pipe"
        );
        // every row here has a single one-block run, so each candidate's
        // first (and only) fragment covers all its in-edges
        assert_eq!(out.edges, g.in_csr().unwrap().num_edges() as u64);
        assert!(dev.overhead_seconds() > 0.0, "fragment steering is charged");
    }

    #[test]
    fn claimed_rows_drop_out_of_later_fragments() {
        // node 50's in-edges span col-blocks 0..3 (sources 0..40); with the
        // frontier at {0} it claims inside its first fragment and the later
        // fragments of its row must not be gathered
        let mut edges: Vec<(u32, u32)> = (0..40).map(|s| (s, 50u32)).collect();
        edges.push((50, 51));
        let csr = Csr::from_edges(52, &edges);
        let mut dev = Device::new(DeviceConfig::test_tiny());
        let g = DeviceGraph::upload(&mut dev, csr).with_in_edges(&mut dev);
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, &g, 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m");
        assert_eq!(out.next, vec![50]);
        // row 50: only its first run (block_dim = 16 sources) is charged,
        // not all 40; row 51's single-source run adds one more edge
        let block_dim = dev.cfg().tensor.block_dim as u64;
        assert_eq!(out.edges, block_dim + 1);
        assert_eq!(
            dev.profiler().mma_ops,
            2,
            "row 50 claims in fragment 0; its fragments 1-2 are skipped"
        );
    }

    #[test]
    fn masked_out_blocks_are_skipped() {
        let (mut dev, g) = setup();
        let mut app = Bfs::new(&mut dev);
        let f = crate::app::App::init(&mut app, &mut dev, &g, 0);
        let fr = BitFrontier::from_nodes(&f, g.csr().num_nodes(), 1 << 24);
        // first step visits 1..40; afterwards only 40.. are candidates
        let out = matrix_iterate(&mut dev, &g, &mut app, &fr, "m");
        let before = dev.profiler().mma_ops;
        let fr2 = BitFrontier::from_nodes(&out.next, g.csr().num_nodes(), 1 << 24);
        let out2 = matrix_iterate(&mut dev, &g, &mut app, &fr2, "m");
        let second = dev.profiler().mma_ops - before;
        assert!(
            second <= before,
            "mostly-visited graph needs fewer block ops"
        );
        assert_eq!(out2.next, vec![40]);
    }
}
