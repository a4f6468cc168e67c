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
    // sage-lint: allow(dead-pub) — prop_sim::cache_first_touch_of_sector_is_never_a_hit classifies probes with it
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

    /// (hits, sector misses, line misses) since construction. No production
    /// code asks: prop_sim's `cache_stats_sum_to_accesses` and the route
    /// equivalence tests in `kernel.rs` (through `Device::l2_stats`) read the
    /// counters with it.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.sector_misses, self.line_misses)
    }

    /// Number of sets. No production code asks: prop_sim's oracle tests
    /// check the geometry with it.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets.d as usize
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
