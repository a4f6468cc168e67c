//! Nsight-Compute-style aggregated profiling counters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters accumulated over every kernel executed on a device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Profiler {
    /// Kernels launched.
    pub kernels: u64,
    /// Warp instructions issued.
    pub warp_insts: f64,
    /// Sum of active lanes over issued instructions (for SIMT efficiency).
    pub active_lanes: f64,
    /// Sum of available lane slots over issued instructions.
    pub lane_slots: f64,
    /// Warp-level memory requests (one per coalesced access).
    pub mem_requests: u64,
    /// Sector transactions that hit in L1.
    pub l1_hit_sectors: u64,
    /// Sector transactions that hit in L2.
    pub l2_hit_sectors: u64,
    /// Sector transactions served by DRAM.
    pub dram_sectors: u64,
    /// Sector transactions carrying writes.
    pub write_sectors: u64,
    /// Atomic operations executed.
    pub atomics: u64,
    /// Extra serialisation steps caused by same-address atomic conflicts.
    pub atomic_conflicts: u64,
    /// Block-wide barriers executed.
    pub syncs: u64,
    /// Matrix-unit (tensor-core) ops retired — one per block-square binary
    /// fragment multiply in the SpMV traversal mode.
    pub mma_ops: u64,
    /// Bytes moved over PCIe (out-of-core traffic).
    pub pcie_bytes: u64,
    /// PCIe requests issued.
    pub pcie_requests: u64,
    /// Bytes exchanged over the peer link (multi-GPU traffic).
    pub peer_bytes: u64,
    /// Total simulated cycles across kernels.
    pub cycles: f64,
}

impl Profiler {
    /// SIMT efficiency: mean fraction of active lanes per issued instruction.
    #[must_use]
    pub fn simt_efficiency(&self) -> f64 {
        if self.lane_slots == 0.0 {
            1.0
        } else {
            self.active_lanes / self.lane_slots
        }
    }

    /// Fraction of sector transactions served by L1.
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.total_sectors();
        if total == 0 {
            0.0
        } else {
            self.l1_hit_sectors as f64 / total as f64
        }
    }

    /// Fraction of sector transactions served by L2 (of those missing L1).
    #[must_use]
    pub fn l2_hit_rate(&self) -> f64 {
        let below_l1 = self.l2_hit_sectors + self.dram_sectors;
        if below_l1 == 0 {
            0.0
        } else {
            self.l2_hit_sectors as f64 / below_l1 as f64
        }
    }

    /// All sector transactions regardless of the level that served them.
    #[must_use]
    pub fn total_sectors(&self) -> u64 {
        self.l1_hit_sectors + self.l2_hit_sectors + self.dram_sectors
    }

    /// Merge another profiler's counters into this one.
    pub fn merge(&mut self, other: &Profiler) {
        self.kernels += other.kernels;
        self.warp_insts += other.warp_insts;
        self.active_lanes += other.active_lanes;
        self.lane_slots += other.lane_slots;
        self.mem_requests += other.mem_requests;
        self.l1_hit_sectors += other.l1_hit_sectors;
        self.l2_hit_sectors += other.l2_hit_sectors;
        self.dram_sectors += other.dram_sectors;
        self.write_sectors += other.write_sectors;
        self.atomics += other.atomics;
        self.atomic_conflicts += other.atomic_conflicts;
        self.syncs += other.syncs;
        self.mma_ops += other.mma_ops;
        self.pcie_bytes += other.pcie_bytes;
        self.pcie_requests += other.pcie_requests;
        self.peer_bytes += other.peer_bytes;
        self.cycles += other.cycles;
    }
}

/// Host-side telemetry of the recorded route (kernels launched at more than
/// one host thread; see [`crate::kernel`]), kept separate from
/// [`Profiler`] on purpose: profiler counters describe the *simulated*
/// machine and are compared bitwise across configurations, while these
/// describe how the simulation itself executed on the host.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Kernels that went through the recorded route.
    pub traced_kernels: u64,
    /// Sector probes recorded into the probe trace across traced kernels.
    pub recorded_probes: u64,
    /// Streaming-scan probes kept out of the trace: charged at the access
    /// as compulsory DRAM misses instead of being recorded (see
    /// [`crate::device::Device::mark_streaming`]).
    pub elided_probes: u64,
    /// Replayed probes that reached L2: L1 misses plus atomics.
    pub l2_probes: u64,
    /// Always 0: traces replay in program order on the calling thread, and
    /// the SM-sharded replay this counted is gone. The field stays so
    /// readers of the earlier counters keep compiling.
    pub parallel_replays: u64,
    /// Traced kernels replayed (on the calling thread, at finish); equal to
    /// `traced_kernels`.
    pub inline_replays: u64,
    /// High-water mark of the probe trace's capacity across launches, in
    /// bytes — the steady-state memory bought in exchange for
    /// allocation-free recording.
    pub arena_bytes: u64,
}

impl ReplayStats {
    /// Mean recorded probes per traced kernel (0 when none ran).
    #[must_use]
    pub fn probes_per_kernel(&self) -> f64 {
        if self.traced_kernels == 0 {
            0.0
        } else {
            self.recorded_probes as f64 / self.traced_kernels as f64
        }
    }

    /// Fraction of recorded probes absorbed by private L1s during replay.
    #[must_use]
    pub fn l1_absorption(&self) -> f64 {
        if self.recorded_probes == 0 {
            0.0
        } else {
            1.0 - self.l2_probes as f64 / self.recorded_probes as f64
        }
    }

    /// Fraction of classified probes kept out of the probe trace:
    /// `elided / (elided + recorded)`, 0 when no traced kernel ran.
    #[must_use]
    pub fn elision(&self) -> f64 {
        let total = self.elided_probes + self.recorded_probes;
        if total == 0 {
            0.0
        } else {
            self.elided_probes as f64 / total as f64
        }
    }
}

impl fmt::Display for ReplayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "traced kernels: {}, probes: {} recorded ({:.1}% L1-absorbed) + {} elided ({:.1}%), arena: {} KiB",
            self.traced_kernels,
            self.recorded_probes,
            self.l1_absorption() * 100.0,
            self.elided_probes,
            self.elision() * 100.0,
            self.arena_bytes / 1024,
        )
    }
}

impl fmt::Display for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernels:          {}", self.kernels)?;
        writeln!(f, "warp insts:       {:.0}", self.warp_insts)?;
        writeln!(
            f,
            "simt efficiency:  {:.1}%",
            self.simt_efficiency() * 100.0
        )?;
        writeln!(f, "mem requests:     {}", self.mem_requests)?;
        writeln!(
            f,
            "sectors (l1/l2/dram): {}/{}/{}",
            self.l1_hit_sectors, self.l2_hit_sectors, self.dram_sectors
        )?;
        writeln!(f, "l1 hit rate:      {:.1}%", self.l1_hit_rate() * 100.0)?;
        writeln!(f, "l2 hit rate:      {:.1}%", self.l2_hit_rate() * 100.0)?;
        writeln!(
            f,
            "atomics:          {} ({} conflicts)",
            self.atomics, self.atomic_conflicts
        )?;
        writeln!(f, "syncs:            {}", self.syncs)?;
        writeln!(f, "mma ops:          {}", self.mma_ops)?;
        writeln!(
            f,
            "pcie:             {} B in {} reqs",
            self.pcie_bytes, self.pcie_requests
        )?;
        writeln!(f, "peer bytes:       {}", self.peer_bytes)?;
        write!(f, "cycles:           {:.0}", self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profiler_rates() {
        let p = Profiler::default();
        assert_eq!(p.simt_efficiency(), 1.0);
        assert_eq!(p.l1_hit_rate(), 0.0);
        assert_eq!(p.l2_hit_rate(), 0.0);
        assert_eq!(p.total_sectors(), 0);
    }

    #[test]
    fn rates_compute_correctly() {
        let p = Profiler {
            l1_hit_sectors: 60,
            l2_hit_sectors: 30,
            dram_sectors: 10,
            active_lanes: 16.0,
            lane_slots: 32.0,
            ..Profiler::default()
        };
        assert!((p.l1_hit_rate() - 0.6).abs() < 1e-12);
        assert!((p.l2_hit_rate() - 0.75).abs() < 1e-12);
        assert!((p.simt_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Profiler {
            kernels: 1,
            dram_sectors: 5,
            cycles: 100.0,
            ..Profiler::default()
        };
        let b = Profiler {
            kernels: 2,
            dram_sectors: 7,
            cycles: 50.0,
            ..Profiler::default()
        };
        a.merge(&b);
        assert_eq!(a.kernels, 3);
        assert_eq!(a.dram_sectors, 12);
        assert!((a.cycles - 150.0).abs() < 1e-12);
    }

    #[test]
    fn display_does_not_panic() {
        let p = Profiler::default();
        let s = format!("{p}");
        assert!(s.contains("kernels"));
    }

    #[test]
    fn replay_stats_ratios() {
        let r = ReplayStats::default();
        assert_eq!(r.probes_per_kernel(), 0.0);
        assert_eq!(r.l1_absorption(), 0.0);
        let r = ReplayStats {
            traced_kernels: 2,
            recorded_probes: 100,
            elided_probes: 300,
            l2_probes: 25,
            parallel_replays: 0,
            inline_replays: 2,
            arena_bytes: 4096,
        };
        assert!((r.probes_per_kernel() - 50.0).abs() < 1e-12);
        assert!((r.l1_absorption() - 0.75).abs() < 1e-12);
        assert!((r.elision() - 0.75).abs() < 1e-12);
        assert!(format!("{r}").contains("arena"));
    }
}
