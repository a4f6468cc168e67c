//! Graph ingestion on every core: the CSR builder and the R-MAT edge
//! sampler, each split into parts whose output does not depend on how many
//! parts there are.
//!
//! The part count comes only from the input's size ([`parts_for`]): small
//! inputs take one part on the caller's thread, and no thread is spawned.
//! Every buffer, per-part ones included, is allocated on the caller's
//! thread; workers only read and write slices they are handed.
//!
//! The module uses nothing of the crate but [`NodeId`] and [`EdgeIdx`], so
//! a test can compile it into itself and set the part count directly.

use crate::{EdgeIdx, NodeId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};

/// Inputs of fewer entries (edge slots, mirrors included) take one part.
/// On a 2-vCPU host two parts first win reliably at 2^15 entries on R-MAT
/// and at 2^19 on inputs with 2 entries per node, whose per-node serial
/// work is largest; the threshold sits one doubling above that (DESIGN.md,
/// "Graph ingestion").
pub(crate) const PARALLEL_MIN_ENTRIES: usize = 1 << 20;

/// The most parts an input is split into.
const MAX_PARTS: usize = 8;

/// Parts for an input of `entries` entries: one below
/// [`PARALLEL_MIN_ENTRIES`], else one per available core, at most
/// [`MAX_PARTS`].
pub(crate) fn parts_for(entries: usize) -> usize {
    if entries < PARALLEL_MIN_ENTRIES {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get().min(MAX_PARTS))
}

/// The `p`-th of `parts` contiguous, near-equal ranges covering `0..len`.
fn split(len: usize, parts: usize, p: usize) -> Range<usize> {
    len * p / parts..len * (p + 1) / parts
}

/// Run `f` on every part's state: part 0 on the caller's thread, every
/// other part on a scoped thread of its own. Once all parts have finished,
/// the lowest-numbered panicking part's payload is re-raised on the
/// caller's thread, so a panic reads the same at every part count.
pub(crate) fn for_each_part<S: Send>(states: &mut [S], f: impl Fn(&mut S) + Sync) {
    let Some((head, rest)) = states.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        return f(head);
    }
    let f = &f;
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = rest.iter_mut().map(|s| scope.spawn(move || f(s))).collect();
        let head = panic::catch_unwind(AssertUnwindSafe(|| f(head)));
        std::iter::once(head)
            .chain(workers.into_iter().map(|w| w.join()))
            .collect()
    });
    for r in results {
        if let Err(payload) = r {
            panic::resume_unwind(payload);
        }
    }
}

/// The CSR builder, a counting sort in three passes over `parts` parts.
/// `edges(r)` yields the input edges at indices `r` of `0..len`; with
/// `symmetric`, each edge is also stored mirrored. Self-loops are dropped,
/// each row is sorted and deduplicated. Returns `(offsets, targets)`.
///
/// 1. Each part counts its own edge range's entries per row.
/// 2. Each part scatters its entries behind those of the parts before it
///    in every row, so every slot has one writer.
/// 3. Rows split into ranges of near-equal entry counts; each part sorts,
///    deduplicates and compacts its rows to the front of its own range.
///
/// A serial in-place compaction then joins the parts. Which part wrote
/// which slot changes only the order inside a row before its sort, so the
/// output is the same at every part count.
///
/// # Panics
/// Panics with `edge (a,b) out of range for n nodes` on an endpoint
/// `>= n`, the first such edge in input order.
pub(crate) fn build_csr<F, I>(
    n: usize,
    len: usize,
    edges: F,
    symmetric: bool,
    parts: usize,
) -> (Vec<EdgeIdx>, Vec<NodeId>)
where
    F: Fn(Range<usize>) -> I + Sync,
    I: Iterator<Item = (NodeId, NodeId)>,
{
    // pass 1: per-part row counts
    let mut counts: Vec<(Range<usize>, Vec<usize>)> = (0..parts)
        .map(|p| (split(len, parts, p), vec![0; n]))
        .collect();
    for_each_part(&mut counts, |(range, count)| {
        for (a, b) in edges(range.clone()) {
            assert!(
                (a.max(b) as usize) < n,
                "edge ({a},{b}) out of range for {n} nodes"
            );
            if a != b {
                count[a as usize] += 1;
                if symmetric {
                    count[b as usize] += 1;
                }
            }
        }
    });

    // row starts before dedup (usize: the duplicate-inclusive count may
    // exceed the `EdgeIdx` range the deduplicated graph fits), and each
    // part's counts turned into its write cursors
    let mut start = vec![0usize; n + 1];
    let mut at = 0;
    for u in 0..n {
        start[u] = at;
        for (_, count) in &mut counts {
            let c = count[u];
            count[u] = at;
            at += c;
        }
    }
    start[n] = at;

    // pass 2: scatter; parts write disjoint slots. Relaxed stores suffice:
    // the slots publish nothing else, and joining the parts orders every
    // store before the caller reads them.
    let slots: Vec<AtomicU32> = vec![0; at].into_iter().map(AtomicU32::new).collect();
    for_each_part(&mut counts, |(range, cursor)| {
        let mut put = |row: NodeId, t: NodeId| {
            let c = &mut cursor[row as usize];
            slots[*c].store(t, Ordering::Relaxed);
            *c += 1;
        };
        for (a, b) in edges(range.clone()) {
            if a != b {
                put(a, b);
                if symmetric {
                    put(b, a);
                }
            }
        }
    });
    drop(counts);
    let mut targets: Vec<NodeId> = slots.into_iter().map(AtomicU32::into_inner).collect();

    // pass 3: sort and dedup rows in ranges of near-equal entry counts;
    // each row's kept length goes to `offsets[u + 1]` for now
    let mut bounds: Vec<usize> = (0..parts)
        .map(|p| start.partition_point(|&s| s < at * p / parts))
        .collect();
    bounds.push(n);
    let mut offsets = vec![0 as EdgeIdx; n + 1];
    let mut rows = Vec::with_capacity(parts);
    let (mut rest_t, mut rest_d) = (&mut targets[..], &mut offsets[1..]);
    for r in bounds.windows(2) {
        let (t, tail_t) = rest_t.split_at_mut(start[r[1]] - start[r[0]]);
        let (d, tail_d) = rest_d.split_at_mut(r[1] - r[0]);
        (rest_t, rest_d) = (tail_t, tail_d);
        rows.push((r[0], t, d, 0usize));
    }
    for_each_part(&mut rows, |(first, t, degree, kept)| {
        let base = start[*first];
        let mut len = 0;
        for (u, d) in (*first..).zip(degree.iter_mut()) {
            let (b, e) = (start[u] - base, start[u + 1] - base);
            t[b..e].sort_unstable();
            let row_start = len;
            let mut prev = None;
            for i in b..e {
                let x = t[i];
                if prev != Some(x) {
                    t[len] = x;
                    len += 1;
                    prev = Some(x);
                }
            }
            *d = EdgeIdx::try_from(len - row_start).expect("row length exceeds EdgeIdx");
        }
        *kept = len;
    });
    let kept: Vec<usize> = rows.into_iter().map(|r| r.3).collect();

    // join: kept lengths into offsets, each part's rows moved down to them
    let mut total = 0usize;
    for o in &mut offsets[1..] {
        total += *o as usize;
        *o = EdgeIdx::try_from(total).expect("edge count exceeds EdgeIdx");
    }
    for (&first, kept) in bounds.iter().zip(kept) {
        let (src, dst) = (start[first], offsets[first] as usize);
        if src != dst {
            targets.copy_within(src..src + kept, dst);
        }
    }
    targets.truncate(total);
    targets.shrink_to_fit();
    (offsets, targets)
}

/// `m` R-MAT edges over `2^scale` nodes from `seed`'s stream, as `(u, v)`,
/// with the classic `(a,b,c,d) = (0.57, 0.19, 0.19, 0.05)` quadrant
/// probabilities, sampled in `parts` contiguous chunks. Every edge takes
/// exactly `scale` draws, so chunk `c` starts from the stream jumped ahead
/// by `lo_c · scale` draws and the pairs are those of one serial stream.
/// Self-loops stay in, for the builder to drop.
pub(crate) fn rmat_edges(
    scale: u32,
    m: usize,
    seed: u64,
    parts: usize,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let (a, b, c) = (0.57, 0.19, 0.19);
    // Each level draws a 53-bit integer `j`, the draw behind `rng.gen::<f64>()
    // == j * 2^-53` (exact). For an f64 `p`, `j * 2^-53 < p` iff
    // `j < ceil(p * 2^53)`, so the quadrant picks compare integers against
    // these thresholds (computed from the same f64 sums) without branches.
    let unit = (1u64 << 53) as f64;
    let [ta, tab, tabc] = [a, a + b, a + b + c].map(|p: f64| (p * unit).ceil() as u64);

    let (mut u, mut v) = (vec![0 as NodeId; m], vec![0 as NodeId; m]);
    let rng = StdRng::seed_from_u64(seed);
    let mut chunks: Vec<_> = Vec::with_capacity(parts);
    let (mut rest_u, mut rest_v) = (&mut u[..], &mut v[..]);
    for p in 0..parts {
        let r = split(m, parts, p);
        let (cu, tail_u) = rest_u.split_at_mut(r.len());
        let (cv, tail_v) = rest_v.split_at_mut(r.len());
        (rest_u, rest_v) = (tail_u, tail_v);
        let mut chunk_rng = rng.clone();
        chunk_rng.jump(r.start as u64 * u64::from(scale));
        chunks.push((chunk_rng, cu, cv));
    }
    for_each_part(&mut chunks, |(rng, cu, cv)| {
        for (ux, vx) in cu.iter_mut().zip(cv.iter_mut()) {
            let (mut x, mut y) = (0 as NodeId, 0 as NodeId);
            for _ in 0..scale {
                let j = rng.next_u64() >> 11;
                let (ga, gab, gabc) = (j >= ta, j >= tab, j >= tabc);
                // quadrants [0,ta) none, [ta,tab) y, [tab,tabc) x, [tabc,..) both
                x = (x << 1) | NodeId::from(gab);
                y = (y << 1) | NodeId::from(ga ^ gab ^ gabc);
            }
            (*ux, *vx) = (x, y);
        }
    });
    (u, v)
}
