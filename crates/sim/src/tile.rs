//! Cooperative-group tiles (CUDA CG, Harris & Perelygin \[16\]).
//!
//! A **tile** is a group of threads in a collaborative state — communicating
//! closely and executing synchronously (§5.1). This module provides the tile
//! shape (a power-of-two thread count and the warps it spans) and the cost
//! accounting for the CG primitives Algorithms 2–4 use: `any`/`all` votes,
//! `elect`, `shfl`, `partition`, and group sync.
//!
//! Costs: a primitive on a tile that fits in one warp is a single hardware
//! instruction; a tile spanning `w` warps must go through shared memory and
//! a barrier, costing `w` per-warp instructions plus a reduction tree of
//! depth `log2(w)` and one block barrier. Every primitive issues through
//! [`SmShard::exec_sched`], so its instructions count as scheduling
//! overhead.

use crate::config::DeviceConfig;
use crate::kernel::SmShard;

/// A cooperative thread group of `size` threads (power of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    size: usize,
}

impl Tile {
    /// A tile spanning `size` threads.
    ///
    /// # Panics
    /// Panics if `size` is zero or not a power of two (CG static partitions
    /// require power-of-two sizes).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(
            size > 0 && size.is_power_of_two(),
            "tile size must be a power of two"
        );
        Self { size }
    }

    /// Number of threads in the tile.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Warps the tile spans on the given device.
    #[must_use]
    pub fn warps(&self, cfg: &DeviceConfig) -> usize {
        self.size.div_ceil(cfg.warp_size)
    }
}

/// Charge one `any`/`all`/`elect` vote over the tile to the shard's SM.
pub fn charge_vote(sh: &mut SmShard<'_, '_>, tile: Tile) {
    let w = tile.warps(sh.cfg());
    let cfg_vote = sh.cfg().vote_cycles;
    // each warp ballots, then a log-depth combine for multi-warp tiles
    let insts = w as u64 * cfg_vote + (w as u64).next_power_of_two().trailing_zeros() as u64;
    sh.exec_sched(
        insts,
        tile.size().min(sh.cfg().warp_size),
        sh.cfg().warp_size,
    );
    if w > 1 {
        sh.sync();
    }
}

/// Charge one `shfl` broadcast over the tile to the shard's SM.
pub fn charge_shfl(sh: &mut SmShard<'_, '_>, tile: Tile) {
    let w = tile.warps(sh.cfg());
    let insts = w as u64 * sh.cfg().shuffle_cycles;
    sh.exec_sched(
        insts,
        tile.size().min(sh.cfg().warp_size),
        sh.cfg().warp_size,
    );
    if w > 1 {
        sh.sync();
    }
}

/// Charge a `cg::partition` of the tile to the shard's SM (index
/// recomputation plus a releasing barrier for multi-warp groups).
pub fn charge_partition(sh: &mut SmShard<'_, '_>, tile: Tile) {
    let w = tile.warps(sh.cfg());
    let insts = 2 + w as u64;
    sh.exec_sched(
        insts,
        tile.size().min(sh.cfg().warp_size),
        sh.cfg().warp_size,
    );
    if w > 1 {
        sh.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::Device;

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Tile::new(12);
    }

    #[test]
    fn warps_per_tile() {
        let cfg = DeviceConfig::default(); // warp = 32
        assert_eq!(Tile::new(16).warps(&cfg), 1);
        assert_eq!(Tile::new(32).warps(&cfg), 1);
        assert_eq!(Tile::new(64).warps(&cfg), 2);
        assert_eq!(Tile::new(1024).warps(&cfg), 32);
    }

    #[test]
    fn multi_warp_votes_cost_more_and_sync() {
        let mut d = Device::new(DeviceConfig::test_tiny()); // warp = 8
        let mut k = d.launch("votes");
        charge_vote(&mut k.shard(0), Tile::new(8)); // single warp
        let _ = k.finish();
        let single_syncs = d.profiler().syncs;
        let single_insts = d.profiler().warp_insts;

        let mut d2 = Device::new(DeviceConfig::test_tiny());
        let mut k = d2.launch("votes");
        charge_vote(&mut k.shard(0), Tile::new(64)); // 8 warps
        let _ = k.finish();
        assert!(d2.profiler().syncs > single_syncs);
        assert!(d2.profiler().warp_insts > single_insts);
    }

    #[test]
    fn shfl_and_partition_charge_instructions() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("ops");
        charge_shfl(&mut k.shard(0), Tile::new(8));
        charge_partition(&mut k.shard(0), Tile::new(16));
        let _ = k.finish();
        assert!(d.profiler().warp_insts > 0.0);
        assert!(
            d.overhead_seconds() > 0.0,
            "tile primitives are scheduling work"
        );
    }
}
