//! Arena-backed packed probe streams for the trace/replay backend.
//!
//! The first trace/replay implementation recorded probes as
//! `Vec<Vec<TraceOp>>` (24-byte structs) and bucketed L2 survivors through
//! per-probe `Vec<L2Probe>` pushes followed by a full sort per slice — at
//! million-node scale the per-event allocation and shuffle cost swamped the
//! algorithmic work and made 4 host threads *slower* than one. Its SoA
//! successor halved that to two parallel u64 streams (16 bytes per probe)
//! plus separate per-`(SM, slice)` L2 survivor buckets — but at scale-20
//! only ~6 % of probes are absorbed by L1, so the buckets nearly duplicated
//! the record streams and the arena ballooned past 1 GiB. This module packs
//! everything into **one u64 per probe**:
//!
//! * **Recording** appends a single packed word per probe to a per-SM
//!   vector: `seq << 36 | sector << 2 | atomic` (8 bytes per probe, no
//!   padding, no per-probe branches beyond the push; bit 1 is always
//!   zero). The SM index is implicit in which stream the probe lands in.
//!   Streaming reads that skip the cache hierarchy are charged at record
//!   time and never reach the arena at all.
//! * **L1 replay compacts in place**: each SM's stream is drained and the
//!   survivors (L1 misses plus atomics) are written back into the *same*
//!   vector, re-packed with the slice-local sector id and grouped by L2
//!   slice ([`TraceArena::runs`] holds the group boundaries). Because the
//!   per-SM stream is in sequence order and the grouping is stable, every
//!   per-`(SM, slice)` run comes out *sorted by seq for free* — L2 replay
//!   merges the runs with a dense-seq counting merge. No second copy of
//!   the survivors ever exists.
//! * **Bounded growth**: streams grow by `capacity / 8` chunks
//!   (`reserve_exact`) instead of doubling, so the steady-state footprint
//!   overshoots the largest kernel's probe count by at most ~12.5 %.
//! * **Arena reuse**: the device owns a pool of [`TraceArena`]s (two, for
//!   double-buffered async replay); a kernel takes one at launch and
//!   returns it at finish, so after the first large kernel no stream ever
//!   reallocates — steady-state recording is pure appends into warm
//!   capacity.

/// Bit position of the sequence stamp in a packed probe word.
pub(crate) const SEQ_SHIFT: u32 = 36;
/// Mask of the sector-id field (34 bits: device addresses below 512 GiB).
pub(crate) const SECTOR_MASK: u64 = (1 << 34) - 1;
/// Atomic flag: the probe resolves in L2 (skips L1).
pub(crate) const ATOMIC_FLAG: u64 = 0b01;

/// Reusable packed probe-stream storage. One per [`crate::device::Device`]
/// pool slot; taken by a traced kernel for the duration of a launch.
#[derive(Debug, Default)]
pub(crate) struct TraceArena {
    /// Per-SM packed probe words (`seq << 36 | sector << 2 | atomic`), in
    /// per-SM
    /// program order while recording; after L1 replay, the L1 survivors
    /// re-packed as `seq << 36 | slice_local_sector << 2` and grouped by
    /// L2 slice (each group still seq-ascending).
    pub(crate) rec: Vec<Vec<u64>>,
    /// Per-SM slice-group boundaries after L1 replay:
    /// `runs[sm * (slices + 1) + s ..= + s + 1]` brackets slice `s`'s
    /// survivors within `rec[sm]`. All zero until pass 1 compacts.
    pub(crate) runs: Vec<usize>,
}

impl TraceArena {
    /// Size the stream tables for `sms` SMs and `slices` L2 slices and
    /// truncate every stream to length zero. Capacity grown by earlier
    /// launches is retained — this is what makes the arena an arena.
    pub(crate) fn reset(&mut self, sms: usize, slices: usize) {
        self.rec.resize_with(sms, Vec::new);
        for v in &mut self.rec {
            v.clear();
        }
        self.runs.clear();
        self.runs.resize(sms * (slices + 1), 0);
    }

    /// Append one probe to `sm`'s recording stream. `atomic` marks an
    /// L2-resolved atomic.
    ///
    /// The packed-word layout caps one kernel at 2^28 recorded probes and
    /// the device address space at 512 GiB — far beyond the simulator's
    /// reach (the scale-20 sweep records ~4×10^7 probes per kernel), and
    /// cheap to check: one predictable branch guards silent corruption.
    #[inline]
    pub(crate) fn record(&mut self, sm: usize, sector: u64, seq: u64, atomic: bool) {
        assert!(
            sector <= SECTOR_MASK && seq < (1 << (64 - SEQ_SHIFT)),
            "packed probe overflow: sector {sector:#x} / seq {seq} exceed the 34/28-bit fields"
        );
        let v = &mut self.rec[sm];
        if v.len() == v.capacity() {
            // grow in ~12.5 % steps, not doubling: arena capacity is the
            // replay backend's memory high-water
            v.reserve_exact((v.capacity() / 8).max(4096));
        }
        v.push((seq << SEQ_SHIFT) | (sector << 2) | u64::from(atomic));
    }

    /// Total probes recorded across SMs (survivors only, once L1 replay
    /// has compacted the streams in place).
    pub(crate) fn total_ops(&self) -> usize {
        self.rec.iter().map(Vec::len).sum()
    }

    /// Bytes of capacity the arena holds across all streams (telemetry:
    /// the steady-state footprint bought in exchange for allocation-free
    /// recording).
    pub(crate) fn reserved_bytes(&self) -> u64 {
        let words: usize = self.rec.iter().map(Vec::capacity).sum();
        (words * std::mem::size_of::<u64>() + self.runs.capacity() * std::mem::size_of::<usize>())
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_sizes_tables_and_keeps_capacity() {
        let mut a = TraceArena::default();
        a.reset(4, 2);
        assert_eq!(a.rec.len(), 4);
        assert_eq!(a.runs.len(), 4 * 3);
        for i in 0..100 {
            a.record(1, i, i, false);
        }
        assert_eq!(a.total_ops(), 100);
        let cap = a.rec[1].capacity();
        assert!(cap >= 100);
        a.reset(4, 2);
        assert_eq!(a.total_ops(), 0);
        assert_eq!(a.rec[1].capacity(), cap, "capacity must survive");
        assert!(a.reserved_bytes() >= 100 * 8);
    }

    #[test]
    fn probe_word_packs_seq_sector_bypass_and_atomic() {
        let mut a = TraceArena::default();
        a.reset(1, 1);
        a.record(0, 7, 42, false);
        a.record(0, 9, 43, true);
        assert_eq!(a.rec[0][0], (42 << SEQ_SHIFT) | (7 << 2));
        assert_eq!(a.rec[0][1], (43 << SEQ_SHIFT) | (9 << 2) | ATOMIC_FLAG);
        // bit 1 (bypass) stays zero: streaming reads are never recorded
        assert!(a.rec[0].iter().all(|w| w & 0b10 == 0));
        // unpacking round-trips
        assert_eq!((a.rec[0][1] >> 2) & SECTOR_MASK, 9);
        assert_eq!(a.rec[0][1] >> SEQ_SHIFT, 43);
    }

    #[test]
    fn growth_is_chunked_not_doubled() {
        let mut a = TraceArena::default();
        a.reset(1, 1);
        for i in 0..100_000 {
            a.record(0, i % 1024, i, false);
        }
        let cap = a.rec[0].capacity();
        assert!(cap >= 100_000);
        assert!(
            cap <= 100_000 + 100_000 / 8 + 4096,
            "capacity {cap} overshoots the ~12.5% growth bound"
        );
    }

    #[test]
    fn reset_grows_for_bigger_geometry() {
        let mut a = TraceArena::default();
        a.reset(2, 1);
        a.reset(8, 4);
        assert_eq!(a.rec.len(), 8);
        assert_eq!(a.runs.len(), 8 * 5);
        assert_eq!(a.total_ops(), 0);
    }

    #[test]
    #[should_panic(expected = "packed probe overflow")]
    fn oversized_sector_is_rejected_loudly() {
        let mut a = TraceArena::default();
        a.reset(1, 1);
        a.record(0, SECTOR_MASK + 1, 0, false);
    }
}
