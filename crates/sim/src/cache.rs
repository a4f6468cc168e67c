//! Set-associative, sectored cache model.
//!
//! NVIDIA caches are *sectored*: the tag covers a 128-byte line, but fills
//! happen at 32-byte sector granularity, so a miss on one sector of a
//! present line does not evict anything (§2.1 of the paper; this is why the
//! access-amplification ratio can reach `line/elem = 32×` for scattered
//! 4-byte reads).
//!
//! The implementation is one flat array of ways, `ways` per set — no
//! hashing, no division and no allocation on the probe path.

/// Result of probing one sector in a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present and sector already filled.
    Hit,
    /// Line present but the sector had to be filled from the level below.
    SectorMiss,
    /// Line absent; a way was (re)allocated for it.
    LineMiss,
}

impl Probe {
    /// True for both kinds of miss.
    #[must_use]
    pub fn is_miss(self) -> bool {
        !matches!(self, Probe::Hit)
    }
}

const INVALID_TAG: u64 = u64::MAX;

/// `n mod d` by a precomputed reciprocal instead of a hardware divide.
///
/// Lemire, Kaser & Kurz, "Faster remainder by direct computation" (2019):
/// with `m = ⌊(2⁶⁴ − 1) / d⌋ + 1`, `n mod d = ⌊((m·n) mod 2⁶⁴) · d / 2⁶⁴⌋`
/// exactly for every `n, d < 2³²`. Wider `n` falls back to `%`.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    m: u64,
}

impl FastMod {
    fn new(d: usize) -> Self {
        assert!(
            d > 0 && d <= u32::MAX as usize,
            "modulus must be in 1..2^32"
        );
        let d = d as u64;
        Self {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(self, n: u64) -> u64 {
        if n <= u64::from(u32::MAX) {
            ((u128::from(self.m.wrapping_mul(n)) * u128::from(self.d)) >> 64) as u64
        } else {
            n % self.d
        }
    }
}

/// One way of a set: a line tag (`INVALID_TAG` when empty) and the bitmask
/// of its filled sectors, side by side so a probe reads one array.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    sectors: u32,
}

const EMPTY_WAY: Way = Way {
    tag: INVALID_TAG,
    sectors: 0,
};

/// A sectored set-associative cache with LRU replacement.
///
/// Each set keeps its ways in most-recently-used order: a hit moves its way
/// to the front, a line miss shifts the set down one way and refills way 0,
/// so the last way is always the LRU victim and empty ways always trail the
/// valid ones. This is probe-for-probe identical to stamping every way with
/// an access clock and evicting the smallest stamp (DESIGN.md §5c).
#[derive(Debug, Clone)]
pub struct SectorCache {
    sets: FastMod,
    ways: usize,
    /// `log2(sectors per line)`.
    line_shift: u32,
    /// `ways` entries per set, most recently used first.
    slots: Vec<Way>,
    hits: u64,
    sector_misses: u64,
    line_misses: u64,
}

impl SectorCache {
    /// Build a cache with `lines` total lines, `ways` associativity and
    /// `sectors_per_line` sectors per line.
    ///
    /// # Panics
    /// Panics if `ways == 0` or `sectors_per_line` is not a power of two in
    /// 1..=32.
    #[must_use]
    pub fn new(lines: usize, ways: usize, sectors_per_line: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            (1..=32).contains(&sectors_per_line) && sectors_per_line.is_power_of_two(),
            "sectors per line must be a power of two in 1..=32"
        );
        let sets = (lines / ways).max(1);
        Self {
            sets: FastMod::new(sets),
            ways,
            line_shift: sectors_per_line.trailing_zeros(),
            slots: vec![EMPTY_WAY; sets * ways],
            hits: 0,
            sector_misses: 0,
            line_misses: 0,
        }
    }

    /// Probe (and fill) the cache for the sector with global index
    /// `sector_id` (= address / sector_bytes).
    pub fn access(&mut self, sector_id: u64) -> Probe {
        let tag = sector_id >> self.line_shift;
        let mask = 1u32 << (sector_id & ((1 << self.line_shift) - 1));
        let base = self.sets.rem(tag) as usize * self.ways;
        let set = &mut self.slots[base..base + self.ways];

        // Find the line, or the way a miss refills: the first empty way
        // (empty ways trail, so the scan stops there) or else the LRU one.
        let mut w = 0;
        let (probe, sectors) = loop {
            let way = set[w];
            if way.tag == tag {
                if way.sectors & mask != 0 {
                    self.hits += 1;
                    break (Probe::Hit, way.sectors);
                }
                self.sector_misses += 1;
                break (Probe::SectorMiss, way.sectors | mask);
            }
            if way.tag == INVALID_TAG || w + 1 == set.len() {
                self.line_misses += 1;
                break (Probe::LineMiss, mask);
            }
            w += 1;
        };

        // Move way `w` to the MRU position.
        for i in (1..=w).rev() {
            set[i] = set[i - 1];
        }
        set[0] = Way { tag, sectors };
        probe
    }

    /// Invalidate everything (e.g. between independent runs).
    pub fn flush(&mut self) {
        self.slots.fill(EMPTY_WAY);
    }

    /// (hits, sector misses, line misses) since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.sector_misses, self.line_misses)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets.d as usize
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }
}

/// Most slices an L2 is split into (real GPU L2s run 16–40 slices).
pub const MAX_L2_SLICES: usize = 16;

/// An address-sliced cache: the device L2 split into independent slices the
/// way real GPU L2s are, with lines interleaved across slices by
/// `line mod num_slices`.
///
/// The slicing is **exactly** hit/miss-equivalent to one monolithic
/// [`SectorCache`] with the same total geometry. With `S` total sets and
/// `K` slices where `K` divides `S`, the monolithic cache groups two lines
/// into the same set iff `line₁ ≡ line₂ (mod S)`. The sliced cache groups
/// them iff they share a slice (`line₁ ≡ line₂ (mod K)`) *and* a slice-set
/// (`⌊line₁/K⌋ ≡ ⌊line₂/K⌋ (mod S/K)`), which by the Chinese-remainder-style
/// decomposition `line = K·⌊line/K⌋ + (line mod K)` is the same condition.
/// Per-set LRU order only depends on the relative order of that set's
/// probes, which slicing leaves untouched. So every probe returns the same
/// [`Probe`] either way — which is what lets parallel kernel replay probe
/// disjoint slices concurrently without locks and still match the
/// sequential simulation bit for bit.
#[derive(Debug, Clone)]
pub struct SlicedCache {
    slices: Vec<SectorCache>,
    /// `log2(sectors per line)`.
    line_shift: u32,
    /// `log2(slice count)`.
    slice_shift: u32,
}

impl SlicedCache {
    /// Build a sliced cache with the same total geometry as
    /// `SectorCache::new(lines, ways, sectors_per_line)`. The slice count is
    /// the largest power of two dividing the set count, capped at
    /// [`MAX_L2_SLICES`] (1 when the set count is odd).
    #[must_use]
    pub fn new(lines: usize, ways: usize, sectors_per_line: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        let sets = (lines / ways).max(1);
        let max_exp = MAX_L2_SLICES.trailing_zeros();
        let slice_shift = sets.trailing_zeros().min(max_exp);
        let k = 1usize << slice_shift;
        let slices = (0..k)
            .map(|_| SectorCache::new((sets / k) * ways, ways, sectors_per_line))
            .collect();
        Self {
            slices,
            line_shift: sectors_per_line.trailing_zeros(),
            slice_shift,
        }
    }

    /// Number of slices.
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Total number of sets across slices.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.slices.iter().map(SectorCache::sets).sum()
    }

    /// The slice owning `sector_id` and the slice-local sector id to probe
    /// it with: lines interleave across slices, so the local line is
    /// `line / K` while the sector offset within the line is preserved.
    #[must_use]
    #[inline]
    pub fn slice_and_local(&self, sector_id: u64) -> (usize, u64) {
        let line = sector_id >> self.line_shift;
        let offset = sector_id & ((1 << self.line_shift) - 1);
        let local = ((line >> self.slice_shift) << self.line_shift) | offset;
        ((line & ((1 << self.slice_shift) - 1)) as usize, local)
    }

    /// Probe (and fill) the owning slice for `sector_id`.
    pub fn access(&mut self, sector_id: u64) -> Probe {
        let (slice, local) = self.slice_and_local(sector_id);
        self.slices[slice].access(local)
    }

    /// Mutable view of the slices, for parallel per-slice replay.
    pub(crate) fn slices_mut(&mut self) -> &mut [SectorCache] {
        &mut self.slices
    }

    /// Invalidate every slice.
    pub fn flush(&mut self) {
        for s in &mut self.slices {
            s.flush();
        }
    }

    /// Summed `(hits, sector misses, line misses)` across slices.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        self.slices.iter().fold((0, 0, 0), |acc, s| {
            let (h, sm, lm) = s.stats();
            (acc.0 + h, acc.1 + sm, acc.2 + lm)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(lines: usize, ways: usize) -> SectorCache {
        SectorCache::new(lines, ways, 4)
    }

    #[test]
    fn first_access_is_line_miss_second_is_hit() {
        let mut c = cache(16, 4);
        assert_eq!(c.access(100), Probe::LineMiss);
        assert_eq!(c.access(100), Probe::Hit);
    }

    #[test]
    fn sibling_sector_is_sector_miss_not_line_miss() {
        let mut c = cache(16, 4);
        // sectors 0..4 share line 0
        assert_eq!(c.access(0), Probe::LineMiss);
        assert_eq!(c.access(1), Probe::SectorMiss);
        assert_eq!(c.access(2), Probe::SectorMiss);
        assert_eq!(c.access(1), Probe::Hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways: lines map to the same set.
        let mut c = SectorCache::new(2, 2, 4);
        assert_eq!(c.sets(), 1);
        c.access(0); // line 0
        c.access(4); // line 1
        c.access(0); // touch line 0 -> line 1 is LRU
        c.access(8); // line 2 evicts line 1
        assert_eq!(c.access(0), Probe::Hit); // line 0 still present
        assert_eq!(c.access(4), Probe::LineMiss); // line 1 was evicted
    }

    #[test]
    fn conflict_misses_in_same_set() {
        // 4 sets, 1 way each.
        let mut c = SectorCache::new(4, 1, 4);
        // line tags 0 and 4 map to set 0 with 4 sets.
        assert_eq!(c.access(0), Probe::LineMiss); // line 0
        assert_eq!(c.access(16), Probe::LineMiss); // line 4, same set, evicts
        assert_eq!(c.access(0), Probe::LineMiss); // line 0 again: conflict miss
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = cache(16, 4);
        c.access(7);
        c.flush();
        assert_eq!(c.access(7), Probe::LineMiss);
    }

    #[test]
    fn stats_count_each_probe_kind() {
        let mut c = cache(16, 4);
        c.access(0);
        c.access(0);
        c.access(1);
        c.access(0);
        assert_eq!(c.stats(), (2, 1, 1));
    }

    #[test]
    fn probe_is_miss_helper() {
        assert!(!Probe::Hit.is_miss());
        assert!(Probe::SectorMiss.is_miss());
        assert!(Probe::LineMiss.is_miss());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = SectorCache::new(4, 0, 4);
    }

    #[test]
    #[should_panic(expected = "sectors per line must be a power of two")]
    fn non_power_of_two_sectors_per_line_panics() {
        let _ = SectorCache::new(16, 4, 3);
    }

    #[test]
    fn fastmod_matches_rem_across_the_u32_boundary() {
        for d in [1usize, 2, 3, 7, 128, 192, 3072, 65_535, u32::MAX as usize] {
            let f = FastMod::new(d);
            for n in [0u64, 1, 191, 192, 12_345, 1 << 31, u64::from(u32::MAX)]
                .into_iter()
                .chain([1 << 32, (1 << 32) + 5, u64::MAX])
            {
                assert_eq!(f.rem(n), n % d as u64, "{n} mod {d}");
            }
        }
    }

    #[test]
    fn sliced_cache_matches_monolithic_probe_for_probe() {
        // geometry with a power-of-two set count → 16 slices
        let (lines, ways, spl) = (64, 4, 4);
        let mut mono = SectorCache::new(lines, ways, spl);
        let mut sliced = SlicedCache::new(lines, ways, spl);
        assert_eq!(sliced.num_slices(), 16);
        assert_eq!(sliced.sets(), mono.sets());
        // deterministic pseudo-random probe stream with reuse and conflicts
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sector = if i % 3 == 0 { x % 256 } else { x % 4096 };
            assert_eq!(
                mono.access(sector),
                sliced.access(sector),
                "probe {i} sector {sector} diverged"
            );
        }
        assert_eq!(mono.stats(), sliced.stats());
    }

    #[test]
    fn sliced_cache_with_odd_sets_degenerates_to_one_slice() {
        // 12 lines / 4 ways = 3 sets: odd, so K = 1
        let mut mono = SectorCache::new(12, 4, 4);
        let mut sliced = SlicedCache::new(12, 4, 4);
        assert_eq!(sliced.num_slices(), 1);
        for sector in [0u64, 12, 48, 0, 13, 97, 48, 5000, 0] {
            assert_eq!(mono.access(sector), sliced.access(sector));
        }
    }

    #[test]
    fn sliced_cache_flush_and_stats() {
        let mut c = SlicedCache::new(64, 4, 4);
        c.access(7);
        c.access(7);
        assert_eq!(c.stats(), (1, 0, 1));
        c.flush();
        assert_eq!(c.access(7), Probe::LineMiss);
    }

    #[test]
    fn slice_and_local_partitions_lines_bijectively() {
        let c = SlicedCache::new(64, 4, 4);
        let k = c.num_slices() as u64;
        let mut seen = std::collections::HashSet::new();
        for sector in 0..4096u64 {
            let (slice, local) = c.slice_and_local(sector);
            assert_eq!((sector / 4) % k, slice as u64);
            assert!(seen.insert((slice, local)), "local ids must not collide");
        }
    }

    #[test]
    fn distinct_lines_fill_distinct_sets() {
        let mut c = SectorCache::new(8, 2, 4);
        // 4 sets; lines 0..4 map to distinct sets, so no evictions.
        for line in 0..4u64 {
            assert_eq!(c.access(line * 4), Probe::LineMiss);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line * 4), Probe::Hit);
        }
    }
}
