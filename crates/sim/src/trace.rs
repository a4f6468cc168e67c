//! The packed probe trace of a kernel simulated on the recorded route.
//!
//! At more than one host thread a kernel does not probe the cache hierarchy
//! at each access. It appends **one u64 per probe** to a single trace, in
//! call order, and each phase's close ([`crate::kernel::Kernel::grid_sync`]
//! or [`crate::kernel::Kernel::finish`]) replays the phase's trace through
//! the same probe-and-charge code the direct route runs, front to back on
//! the calling thread. Call order is the global probe order, so the replay
//! reproduces the direct route's cache states exactly.
//!
//! * **Word layout**: `sm << SM_SHIFT | sector << 1 | atomic`. The sector
//!   field has 34 bits (device addresses below 512 GiB); the SM field takes
//!   the 29 bits above it, and [`crate::device::Device::new`] refuses an SM
//!   count that does not fit ([`MAX_SMS`]). A kernel's probe count has no
//!   cap beyond memory.
//! * **Bounded growth**: the trace grows by `capacity / 8` chunks
//!   (`reserve_exact`) instead of doubling, so its steady-state footprint
//!   overshoots the largest kernel's probe count by at most ~12.5 %.
//! * **Reuse**: the device owns the trace; a kernel takes it at launch and
//!   gives it back, cleared, at finish, so after the first large kernel the
//!   trace never reallocates.

/// Bits of the sector field (device addresses below 512 GiB).
const SECTOR_BITS: u32 = 34;
/// Mask of the sector field once shifted down.
const SECTOR_MASK: u64 = (1 << SECTOR_BITS) - 1;
/// Bit position of the SM index in a packed probe word.
const SM_SHIFT: u32 = SECTOR_BITS + 1;
/// Atomic flag: the probe resolves in L2 (skips L1).
const ATOMIC_FLAG: u64 = 0b1;

/// Most SMs a packed probe word can name.
pub(crate) const MAX_SMS: usize = 1 << (u64::BITS - SM_SHIFT);

/// Append one probe by `sm` of `sector` to `trace`; `atomic` marks an
/// L2-resolved atomic.
///
/// # Panics
/// Panics when `sector` does not fit the 34-bit field — one predictable
/// branch guards silent corruption.
#[inline]
pub(crate) fn record(trace: &mut Vec<u64>, sm: usize, sector: u64, atomic: bool) {
    assert!(
        sector <= SECTOR_MASK,
        "packed probe overflow: sector {sector:#x} exceeds the 34-bit field"
    );
    if trace.len() == trace.capacity() {
        // grow in ~12.5 % steps, not doubling: trace capacity is the
        // recorded route's memory high-water
        trace.reserve_exact((trace.capacity() / 8).max(4096));
    }
    trace.push(((sm as u64) << SM_SHIFT) | (sector << 1) | u64::from(atomic));
}

/// Split a packed probe word into `(sm, sector, atomic)`.
#[inline]
pub(crate) fn unpack(word: u64) -> (usize, u64, bool) {
    (
        (word >> SM_SHIFT) as usize,
        (word >> 1) & SECTOR_MASK,
        word & ATOMIC_FLAG != 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_word_packs_sm_sector_and_atomic() {
        let mut t = Vec::new();
        record(&mut t, 3, 7, false);
        record(&mut t, MAX_SMS - 1, SECTOR_MASK, true);
        assert_eq!(t[0], (3 << SM_SHIFT) | (7 << 1));
        assert_eq!(unpack(t[0]), (3, 7, false));
        assert_eq!(unpack(t[1]), (MAX_SMS - 1, SECTOR_MASK, true));
    }

    #[test]
    fn reset_sizes_tables_and_keeps_capacity() {
        let mut d = crate::device::Device::new(crate::config::DeviceConfig::test_tiny());
        let mut t = d.take_trace();
        assert!(t.is_empty());
        for i in 0..100 {
            record(&mut t, 1, i, false);
        }
        assert_eq!(t.len(), 100);
        let cap = t.capacity();
        assert!(cap >= 100);
        // giving the trace back clears it; the next launch gets it empty
        // with the capacity the earlier one grew
        d.return_trace(t);
        let t = d.take_trace();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap, "capacity must survive");
    }

    #[test]
    fn growth_is_chunked_not_doubled() {
        let mut t = Vec::new();
        for i in 0..100_000 {
            record(&mut t, 0, i % 1024, false);
        }
        let cap = t.capacity();
        assert!(cap >= 100_000);
        assert!(
            cap <= 100_000 + 100_000 / 8 + 4096,
            "capacity {cap} overshoots the ~12.5% growth bound"
        );
    }

    #[test]
    #[should_panic(expected = "packed probe overflow")]
    fn oversized_sector_is_rejected_loudly() {
        record(&mut Vec::new(), 0, SECTOR_MASK + 1, false);
    }
}
