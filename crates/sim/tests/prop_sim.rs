//! Property-based tests for the GPU simulator: cache semantics against a
//! reference model, coalescing bounds, cost-model monotonicity, PCIe model
//! sanity.

use gpu_sim::{
    pcie, AccessKind, Allocator, Device, DeviceConfig, MemSpace, PcieConfig, Probe, SectorCache,
    UmPool,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// The oracle for [`SectorCache`]: a stamp-LRU cache. Every way carries the
/// access clock of its last touch, the set index is `line % sets`, and a
/// line miss evicts the smallest stamp, scanning from way 0 — so empty
/// ways (stamp 0) fill lowest first. The production cache must return the
/// same [`Probe`] for every access.
struct StampLru {
    sets: usize,
    ways: usize,
    sectors_per_line: u64,
    tags: Vec<u64>,
    sector_bits: Vec<u32>,
    stamps: Vec<u64>,
    clock: u64,
}

impl StampLru {
    fn new(lines: usize, ways: usize, sectors_per_line: usize) -> Self {
        let sets = (lines / ways).max(1);
        Self {
            sets,
            ways,
            sectors_per_line: sectors_per_line as u64,
            tags: vec![u64::MAX; sets * ways],
            sector_bits: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn access(&mut self, sector_id: u64) -> Probe {
        self.clock += 1;
        let line_tag = sector_id / self.sectors_per_line;
        let sector_mask = 1u32 << (sector_id % self.sectors_per_line);
        let base = (line_tag % self.sets as u64) as usize * self.ways;
        let mut lru_slot = base;
        let mut lru_stamp = u64::MAX;
        for slot in base..base + self.ways {
            if self.tags[slot] == line_tag {
                self.stamps[slot] = self.clock;
                return if self.sector_bits[slot] & sector_mask != 0 {
                    Probe::Hit
                } else {
                    self.sector_bits[slot] |= sector_mask;
                    Probe::SectorMiss
                };
            }
            if self.stamps[slot] < lru_stamp {
                lru_stamp = self.stamps[slot];
                lru_slot = slot;
            }
        }
        self.tags[lru_slot] = line_tag;
        self.sector_bits[lru_slot] = sector_mask;
        self.stamps[lru_slot] = self.clock;
        Probe::LineMiss
    }
}

/// Turn raw draws into a probe stream with reuse and set conflicts: most
/// lines crowd into four hot sets (up to twice the associativity each, so
/// they evict one another), the rest land anywhere in a space four times
/// the cache. A third of the lines are lifted far past 2^32, where the set
/// index takes the `%` fallback, by one of four multiples of `sets`: that
/// keeps their true set, so a wrong wide-tag remainder splits a conflict
/// group and changes outcomes. `None` is a flush: both caches start empty.
fn probe_stream(ops: &[(u32, u64)], sets: usize, ways: usize, spl: usize) -> Vec<Option<u64>> {
    let (sets, ways, spl) = (sets as u64, ways as u64, spl as u64);
    ops.iter()
        .map(|&(kind, raw)| {
            if kind == 0 {
                return None;
            }
            let hot = raw % (sets.min(4) * 2 * ways);
            let line = if kind % 4 == 0 {
                raw % (4 * sets * ways)
            } else {
                hot % sets.min(4) + sets * (hot / sets.min(4))
            };
            let high = if kind % 3 == 0 {
                sets * (u64::MAX / spl / sets / 8) * (1 + (raw >> 44) % 4)
            } else {
                0
            };
            Some((line + high) * spl + (raw >> 40) % spl)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sector_cache_matches_stamp_lru_oracle(
        geom in (0usize..3, 1usize..17, 0u32..6),
        ops in prop::collection::vec((0u32..200, 0u64..1 << 48), 1..3000),
    ) {
        let sets = [3, 192, 3072][geom.0];
        let (ways, spl) = (geom.1, 1usize << geom.2);
        let mut cache = SectorCache::new(sets * ways, ways, spl);
        let mut oracle = StampLru::new(sets * ways, ways, spl);
        prop_assert_eq!(cache.sets(), sets);
        for (i, op) in probe_stream(&ops, sets, ways, spl).into_iter().enumerate() {
            match op {
                None => {
                    cache = SectorCache::new(sets * ways, ways, spl);
                    oracle = StampLru::new(sets * ways, ways, spl);
                }
                Some(sector) => prop_assert_eq!(
                    cache.access(sector),
                    oracle.access(sector),
                    "probe {} (sector {}) diverged: {} sets, {} ways, {} sectors/line",
                    i, sector, sets, ways, spl
                ),
            }
        }
    }

    #[test]
    fn sector_cache_matches_stamp_lru_oracle_at_default_l2(
        ops in prop::collection::vec((1u32..200, 0u64..1 << 48), 1..3000),
    ) {
        let cfg = DeviceConfig::default();
        let (lines, ways, spl) = (cfg.l2.lines(cfg.line_bytes), cfg.l2.ways, cfg.sectors_per_line());
        let mut l2 = SectorCache::new(lines, ways, spl);
        let mut oracle = StampLru::new(lines, ways, spl);
        prop_assert_eq!(l2.sets(), oracle.sets);
        for (i, op) in probe_stream(&ops, oracle.sets, ways, spl).into_iter().enumerate() {
            let sector = op.expect("stream has no flushes");
            prop_assert_eq!(
                l2.access(sector),
                oracle.access(sector),
                "probe {} (sector {}) diverged",
                i, sector
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_first_touch_of_sector_is_never_a_hit(accesses in prop::collection::vec(0u64..256, 1..200)) {
        let mut c = SectorCache::new(64, 4, 4);
        let mut seen: HashSet<u64> = HashSet::new();
        for s in accesses {
            let p = c.access(s);
            if seen.insert(s) {
                prop_assert!(p.is_miss(), "first touch of sector {s} must miss");
            }
        }
    }

    #[test]
    fn fully_covering_cache_only_misses_cold(accesses in prop::collection::vec(0u64..64, 1..300)) {
        // cache holds 64 lines = 256 sectors >= the whole 64-sector space
        let mut c = SectorCache::new(64, 4, 4);
        let mut cold: HashSet<u64> = HashSet::new();
        for s in accesses {
            let p = c.access(s);
            if !cold.insert(s) {
                prop_assert_eq!(p, Probe::Hit, "sector {} revisit must hit", s);
            }
        }
    }

    #[test]
    fn cache_stats_sum_to_accesses(accesses in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut c = SectorCache::new(16, 2, 4);
        let n = accesses.len() as u64;
        for s in accesses {
            let _ = c.access(s);
        }
        let (h, sm, lm) = c.stats();
        prop_assert_eq!(h + sm + lm, n);
    }

    #[test]
    fn allocator_returns_aligned_disjoint_ranges(sizes in prop::collection::vec(1usize..10_000, 1..50)) {
        let mut a = Allocator::new(MemSpace::Device);
        let mut prev_end = 0u64;
        for sz in sizes {
            let base = a.alloc(sz);
            prop_assert_eq!(base % 256, 0);
            prop_assert!(base >= prev_end);
            prev_end = base + sz as u64;
        }
    }

    #[test]
    fn coalescing_bounds(addrs in prop::collection::vec(0u64..100_000, 1..64)) {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("prop");
        k.shard(0).access(AccessKind::Read, &addrs, 4);
        let _ = k.finish();
        let sectors = d.profiler().total_sectors();
        // at least one sector, at most 2 per address (4B can straddle)
        prop_assert!(sectors >= 1);
        prop_assert!(sectors <= 2 * addrs.len() as u64);
        // distinct 32B-aligned sectors touched is a lower bound
        let distinct: HashSet<u64> = addrs.iter().map(|a| a / 32).collect();
        prop_assert!(sectors >= distinct.len() as u64);
    }

    #[test]
    fn more_work_never_costs_less(insts in 1u64..10_000, extra in 1u64..10_000) {
        let run = |n: u64| {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let mut k = d.launch("w");
            k.shard(0).exec_uniform(n);
            k.finish().cycles
        };
        prop_assert!(run(insts + extra) >= run(insts));
    }

    #[test]
    fn concurrency_never_slows_a_kernel(streams in 1u32..8, addrs in prop::collection::vec(0u64..1_000_000, 1..64)) {
        let run = |c: f64| {
            let mut d = Device::new(DeviceConfig::test_tiny());
            let mut k = d.launch("c");
            k.set_concurrency(c);
            for a in &addrs {
                k.shard(0).access(AccessKind::Read, &[*a], 4);
            }
            k.finish().cycles
        };
        prop_assert!(run(f64::from(streams) + 1.0) <= run(f64::from(streams)) + 1e-9);
    }

    #[test]
    fn pcie_time_monotone_in_bytes_and_requests(bytes in 1u64..1_000_000, reqs in 1u64..1000) {
        let cfg = PcieConfig::default();
        let t = pcie::transfer_seconds(&cfg, bytes, reqs);
        prop_assert!(t > 0.0);
        prop_assert!(pcie::transfer_seconds(&cfg, bytes * 2, reqs) >= t);
        prop_assert!(pcie::transfer_seconds(&cfg, bytes, reqs + 100) >= t);
    }

    #[test]
    fn um_pool_never_exceeds_capacity(pages in 2u64..16, accesses in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut p = UmPool::new(pages * 4096, 4096);
        for a in accesses {
            let _ = p.access(a);
        }
        prop_assert!(p.resident_pages() <= pages as usize);
        let (h, f, e) = p.stats();
        prop_assert!(e <= f);
        prop_assert!(h + f > 0);
    }

    #[test]
    fn kernel_report_imbalance_at_least_one(work in prop::collection::vec(1u64..500, 1..4)) {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("imb");
        for (sm, &w) in work.iter().enumerate() {
            k.shard(sm).exec_uniform(w);
        }
        let r = k.finish();
        prop_assert!(r.sm_imbalance() >= 1.0 - 1e-12);
        prop_assert_eq!(r.active_sms, work.len().min(4));
    }
}
