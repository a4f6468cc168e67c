//! Shadow-memory race sanitizer for simulated kernels.
//!
//! The simulator observes every device-memory access a kernel makes through
//! [`crate::kernel::SmShard::access`] / `access_range` / `atomic`, which makes
//! it possible to build the equivalent of `compute-sanitizer racecheck`
//! natively: an opt-in shadow state machine that tracks, per 4-byte device
//! word, the last non-atomic write and the recent non-atomic reads, and flags
//! write-write and read-write pairs issued by *different SMs* with no
//! ordering between them.
//!
//! # Hazard semantics
//!
//! Two accesses to the same word are **ordered** (and therefore never a
//! hazard) when any of the following holds:
//!
//! * they come from the same SM — per-SM program order is respected by both
//!   the direct and recorded simulation routes, and block-wide `sync` barriers
//!   only strengthen it;
//! * either access is an `atomic` — the hardware serialises atomics at the
//!   L2 point of coherence;
//! * either access is a *dirty write* ([`crate::kernel::SmShard::access_dirty`])
//!   — the engine asserts the race is benign by construction (same-value or
//!   monotone stores, the paper's §7.2 "dirty write" idiom);
//! * a device-wide [`crate::kernel::Kernel::grid_sync`] barrier (or the
//!   kernel launch boundary itself) separates them.
//!
//! A per-SM **epoch clock**, advanced by block barriers, is attached to every
//! access and reported with each hazard so the offending phases can be
//! located; block barriers do *not* order accesses across SMs and therefore
//! never suppress a hazard by themselves.
//!
//! Detection is deliberately deterministic: shadow updates happen inline at
//! access-recording time on the engine thread (not at replay time), so the
//! hazard set is bitwise identical across host-thread counts, and the cost
//! model is untouched — enabling the sanitizer changes no simulated number.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Shadow-tracking granularity: one shadow cell per 4-byte device word,
/// matching the `u32` state elements every engine traffics in.
pub const SHADOW_WORD_BYTES: u64 = 4;

/// The flavour of a detected conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HazardKind {
    /// Two unordered non-atomic writes to the same word.
    WriteWrite,
    /// An unordered non-atomic read / non-atomic write pair on the same word.
    ReadWrite,
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardKind::WriteWrite => write!(f, "write-write"),
            HazardKind::ReadWrite => write!(f, "read-write"),
        }
    }
}

/// One side of a hazard: which SM issued the access and that SM's barrier
/// epoch (number of block `sync`s it had executed) at the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HazardParty {
    /// SM index of the access.
    pub sm: u32,
    /// The SM's barrier epoch when the access was recorded.
    pub epoch: u32,
}

impl fmt::Display for HazardParty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}@e{}", self.sm, self.epoch)
    }
}

/// One detected data-race hazard, covering a contiguous word range that
/// conflicts between the same pair of SM/epoch parties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hazard {
    /// Label of the kernel the conflict occurred in.
    pub kernel: String,
    /// First byte of the conflicting address range.
    pub addr_lo: u64,
    /// One past the last byte of the conflicting address range.
    pub addr_hi: u64,
    /// Conflict flavour.
    pub kind: HazardKind,
    /// The earlier access of the pair.
    pub first: HazardParty,
    /// The later access of the pair.
    pub second: HazardParty,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} hazard on [{:#x}, {:#x}) between {} and {}",
            self.kernel, self.kind, self.addr_lo, self.addr_hi, self.first, self.second
        )
    }
}

/// Hazards attributed to one kernel launch (or one run). Empty unless the
/// sanitizer is enabled and found something.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HazardReport {
    /// Detected hazards, sorted by address.
    pub hazards: Vec<Hazard>,
}

impl HazardReport {
    /// Number of hazards in the report.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hazards.len()
    }

    /// True when no hazards were detected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Append another report's hazards to this one.
    pub fn merge(&mut self, other: &HazardReport) {
        self.hazards.extend(other.hazards.iter().cloned());
    }
}

/// A recorded non-atomic access for pairing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Access {
    sm: u32,
    epoch: u32,
}

impl Access {
    fn party(self) -> HazardParty {
        HazardParty {
            sm: self.sm,
            epoch: self.epoch,
        }
    }
}

/// Shadow state of one word: the last non-atomic write plus the two most
/// recent reads from *distinct* SMs. Two read slots suffice: a later write
/// conflicts with *some* read from a different SM iff it conflicts with the
/// most recent read or the most recent read from another SM than that one.
#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    write: Option<Access>,
    /// Most recent read.
    read1: Option<Access>,
    /// Most recent read from a different SM than `read1`.
    read2: Option<Access>,
}

/// Shadow words per page: engines touch state arrays in dense index ranges,
/// so neighbouring words almost always live in the same kernel. Paging the
/// shadow map trades one hash probe per 64 words (256 bytes of address
/// space) for the per-word probe of a flat map — the dominant sanitizer
/// cost on range accesses.
const PAGE_WORDS: u64 = 64;

/// First detected conflict per shadow word: kind plus the two parties.
type FlaggedMap = HashMap<u64, (HazardKind, HazardParty, HazardParty)>;

/// Per-word conflict handler applied by [`ShadowTracker::for_span`].
type WordOp = fn(&mut WordState, &mut FlaggedMap, Access, u64);

/// The per-kernel shadow tracker. Owned by a [`crate::kernel::Kernel`] when
/// sanitizing is on; its lifecycle is one launch (the launch boundary orders
/// everything, so state never carries across kernels).
#[derive(Debug)]
pub(crate) struct ShadowTracker {
    /// Paged shadow memory: page id → [`PAGE_WORDS`] word states. Pages
    /// materialise on first touch; a dense access range costs one hash
    /// lookup per page instead of one per word.
    pages: HashMap<u64, Box<[WordState]>>,
    /// First detected conflict per word — later conflicts on the same word
    /// are suppressed so each racy word is reported exactly once.
    flagged: FlaggedMap,
    epochs: Vec<u32>,
}

fn read_word(st: &mut WordState, flagged: &mut FlaggedMap, cur: Access, w: u64) {
    let conflict = st.write.filter(|wr| wr.sm != cur.sm);
    match st.read1 {
        Some(r1) if r1.sm != cur.sm => st.read2 = Some(r1),
        _ => {}
    }
    st.read1 = Some(cur);
    if let Some(wr) = conflict {
        flagged
            .entry(w)
            .or_insert((HazardKind::ReadWrite, wr.party(), cur.party()));
    }
}

fn write_word(st: &mut WordState, flagged: &mut FlaggedMap, cur: Access, w: u64) {
    // Prefer the stronger write-write pairing when both exist.
    let mut conflict = st
        .write
        .filter(|wr| wr.sm != cur.sm)
        .map(|wr| (HazardKind::WriteWrite, wr));
    if conflict.is_none() {
        conflict = [st.read1, st.read2]
            .into_iter()
            .flatten()
            .find(|r| r.sm != cur.sm)
            .map(|r| (HazardKind::ReadWrite, r));
    }
    st.write = Some(cur);
    if let Some((kind, first)) = conflict {
        flagged
            .entry(w)
            .or_insert((kind, first.party(), cur.party()));
    }
}

impl ShadowTracker {
    pub(crate) fn new(num_sms: usize) -> Self {
        Self {
            pages: HashMap::new(),
            flagged: HashMap::new(),
            epochs: vec![0; num_sms.max(1)],
        }
    }

    /// `sm` comes from an `SmShard`, already folded onto the device's SMs.
    fn current(&self, sm: usize) -> Access {
        Access {
            sm: sm as u32,
            epoch: self.epochs[sm],
        }
    }

    /// Record a non-atomic read of `bytes` bytes starting at `addr`.
    pub(crate) fn read(&mut self, sm: usize, addr: u64, bytes: u64) {
        let cur = self.current(sm);
        self.for_span(addr, bytes, cur, read_word);
    }

    /// Record a non-atomic write of `bytes` bytes starting at `addr`.
    pub(crate) fn write(&mut self, sm: usize, addr: u64, bytes: u64) {
        let cur = self.current(sm);
        self.for_span(addr, bytes, cur, write_word);
    }

    /// Apply `op` to every shadow word the access covers, fetching each
    /// touched page exactly once.
    fn for_span(&mut self, addr: u64, bytes: u64, cur: Access, op: WordOp) {
        let (lo, hi) = word_bounds(addr, bytes);
        let mut w = lo;
        while w <= hi {
            let page_id = w / PAGE_WORDS;
            let end = ((page_id + 1) * PAGE_WORDS - 1).min(hi);
            let page = self
                .pages
                .entry(page_id)
                .or_insert_with(|| vec![WordState::default(); PAGE_WORDS as usize].into());
            for i in w..=end {
                op(
                    &mut page[(i % PAGE_WORDS) as usize],
                    &mut self.flagged,
                    cur,
                    i,
                );
            }
            w = end + 1;
        }
    }

    /// A block-wide barrier on `sm`: advances that SM's epoch clock. Epochs
    /// are reporting metadata — a block barrier orders nothing across SMs.
    pub(crate) fn barrier(&mut self, sm: usize) {
        self.epochs[sm] += 1;
    }

    /// A device-wide grid barrier: every access before it is ordered against
    /// every access after it, so all pairing state resets. Already-flagged
    /// hazards stay flagged.
    pub(crate) fn grid_barrier(&mut self) {
        self.pages.clear();
    }

    /// Consume the tracker: sort flagged words by address and merge runs of
    /// contiguous words carrying an identical conflict into ranged hazards.
    pub(crate) fn finish(self, kernel: &str) -> Vec<Hazard> {
        let mut flagged: Vec<(u64, (HazardKind, HazardParty, HazardParty))> =
            // sage-lint: allow(hash-iter) — drained once into a Vec that the next line sorts by word address, restoring a deterministic order
            self.flagged.into_iter().collect();
        flagged.sort_unstable_by_key(|&(w, _)| w);
        let mut out: Vec<Hazard> = Vec::new();
        for (w, (kind, first, second)) in flagged {
            let lo = w * SHADOW_WORD_BYTES;
            if let Some(last) = out.last_mut() {
                if last.addr_hi == lo
                    && last.kind == kind
                    && last.first == first
                    && last.second == second
                {
                    last.addr_hi = lo + SHADOW_WORD_BYTES;
                    continue;
                }
            }
            out.push(Hazard {
                kernel: kernel.to_owned(),
                addr_lo: lo,
                addr_hi: lo + SHADOW_WORD_BYTES,
                kind,
                first,
                second,
            });
        }
        out
    }
}

/// First and last shadow word covered by `bytes` bytes at `addr`.
fn word_bounds(addr: u64, bytes: u64) -> (u64, u64) {
    let lo = addr / SHADOW_WORD_BYTES;
    let hi = (addr + bytes.max(1) - 1) / SHADOW_WORD_BYTES;
    (lo, hi)
}

/// Launch a deliberately racy fixture kernel on `dev`: two SMs store to the
/// same device word with no atomic, no dirty-write annotation, and no grid
/// barrier between them. With the sanitizer enabled the returned report
/// carries exactly one write-write hazard — the canary proving the detector
/// is wired through the stack.
// sage-lint: allow(dead-pub) — the canary kernel of sanitize::racy_fixture_detected_exactly_once
pub fn run_racy_fixture(dev: &mut crate::device::Device) -> crate::kernel::KernelReport {
    use crate::kernel::AccessKind;
    let mut k = dev.launch("racy_fixture");
    let target = 4096u64;
    k.shard(0).access(AccessKind::Write, &[target], 4);
    k.shard(1).access(AccessKind::Write, &[target], 4);
    k.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hazards(t: ShadowTracker) -> Vec<Hazard> {
        t.finish("test")
    }

    #[test]
    fn same_sm_accesses_are_ordered() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 4);
        t.write(0, 64, 4);
        t.read(0, 64, 4);
        t.write(0, 64, 4);
        assert!(hazards(t).is_empty());
    }

    #[test]
    fn cross_sm_write_write_flagged_exactly_once() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 4);
        t.write(1, 64, 4);
        t.write(2, 64, 4); // further conflicts on the word are suppressed
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::WriteWrite);
        assert_eq!(hz[0].first, HazardParty { sm: 0, epoch: 0 });
        assert_eq!(hz[0].second, HazardParty { sm: 1, epoch: 0 });
        assert_eq!((hz[0].addr_lo, hz[0].addr_hi), (64, 68));
    }

    #[test]
    fn read_then_cross_sm_write_is_read_write() {
        let mut t = ShadowTracker::new(4);
        t.read(2, 128, 4);
        t.write(3, 128, 4);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::ReadWrite);
        assert_eq!(hz[0].first.sm, 2);
        assert_eq!(hz[0].second.sm, 3);
    }

    #[test]
    fn write_then_cross_sm_read_is_read_write() {
        let mut t = ShadowTracker::new(4);
        t.write(1, 128, 4);
        t.read(0, 128, 4);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::ReadWrite);
        assert_eq!(hz[0].first.sm, 1);
        assert_eq!(hz[0].second.sm, 0);
    }

    #[test]
    fn concurrent_reads_are_not_hazards() {
        let mut t = ShadowTracker::new(4);
        for sm in 0..4 {
            t.read(sm, 256, 4);
        }
        assert!(hazards(t).is_empty());
    }

    #[test]
    fn same_sm_read_shadowed_by_other_sm_read_still_detected() {
        // SM0 reads, SM1 reads (read1 now SM1), then SM1 writes: the write
        // is ordered against SM1's own read but races SM0's — the second
        // read slot must remember it.
        let mut t = ShadowTracker::new(4);
        t.read(0, 64, 4);
        t.read(1, 64, 4);
        t.write(1, 64, 4);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::ReadWrite);
        assert_eq!(hz[0].first.sm, 0);
    }

    #[test]
    fn grid_barrier_orders_cross_sm_accesses() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 4);
        t.grid_barrier();
        t.write(1, 64, 4);
        assert!(hazards(t).is_empty());
    }

    #[test]
    fn block_barrier_does_not_order_cross_sm_accesses() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 4);
        t.barrier(0);
        t.barrier(1);
        t.write(1, 64, 4);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        // the epoch clock still shows up in the report
        assert_eq!(hz[0].first, HazardParty { sm: 0, epoch: 0 });
        assert_eq!(hz[0].second, HazardParty { sm: 1, epoch: 1 });
    }

    #[test]
    fn contiguous_conflicting_words_merge_into_one_range() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 16); // words 16..=19
        t.write(1, 64, 16);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!((hz[0].addr_lo, hz[0].addr_hi), (64, 80));
    }

    #[test]
    fn disjoint_conflicts_stay_separate() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 4);
        t.write(1, 64, 4);
        t.write(0, 256, 4);
        t.write(1, 256, 4);
        let hz = hazards(t);
        assert_eq!(hz.len(), 2);
        assert_eq!(hz[0].addr_lo, 64);
        assert_eq!(hz[1].addr_lo, 256);
    }

    #[test]
    fn conflicts_spanning_a_page_boundary_merge_into_one_range() {
        // Words 62..=65 straddle the page 0 / page 1 boundary (64 words per
        // page); the paged map must still produce one contiguous hazard.
        let mut t = ShadowTracker::new(4);
        t.write(0, 248, 16);
        t.write(1, 248, 16);
        let hz = hazards(t);
        assert_eq!(hz.len(), 1);
        assert_eq!((hz[0].addr_lo, hz[0].addr_hi), (248, 264));
    }

    #[test]
    fn sub_word_accesses_share_a_shadow_word() {
        let mut t = ShadowTracker::new(4);
        t.write(0, 64, 1);
        t.write(1, 66, 1); // same 4-byte word
        assert_eq!(hazards(t).len(), 1);
    }
}
