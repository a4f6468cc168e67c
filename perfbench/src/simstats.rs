//! Deltas of the telemetry the simulator already exposes (`Profiler`,
//! `ReplayStats`, `Device::kernel_breakdown`) between two reads, turned
//! into per-layer metrics.

use crate::Layers;
use gpu_sim::{Profiler, ReplayStats};
use std::collections::BTreeMap;

/// Kernel names whose simulated seconds are reported as
/// `sim.kernel_s.<name>`: every kernel the traversal workloads launch.
pub const KERNELS: [&str; 9] = [
    "sage_expand_tiles",
    "sage_consume_tiles",
    "sage_pull",
    "sage_matrix",
    "contract",
    "contract_bitmap",
    "vertex_epilogue",
    "sampling_reorder_stages",
    "sampling_reorder_apply",
];

/// `after - before`, field by field.
pub fn profiler_delta(after: &Profiler, before: &Profiler) -> Profiler {
    Profiler {
        kernels: after.kernels - before.kernels,
        warp_insts: after.warp_insts - before.warp_insts,
        active_lanes: after.active_lanes - before.active_lanes,
        lane_slots: after.lane_slots - before.lane_slots,
        mem_requests: after.mem_requests - before.mem_requests,
        l1_hit_sectors: after.l1_hit_sectors - before.l1_hit_sectors,
        l2_hit_sectors: after.l2_hit_sectors - before.l2_hit_sectors,
        dram_sectors: after.dram_sectors - before.dram_sectors,
        write_sectors: after.write_sectors - before.write_sectors,
        atomics: after.atomics - before.atomics,
        atomic_conflicts: after.atomic_conflicts - before.atomic_conflicts,
        syncs: after.syncs - before.syncs,
        mma_ops: after.mma_ops - before.mma_ops,
        pcie_bytes: after.pcie_bytes - before.pcie_bytes,
        pcie_requests: after.pcie_requests - before.pcie_requests,
        peer_bytes: after.peer_bytes - before.peer_bytes,
        cycles: after.cycles - before.cycles,
    }
}

/// `after - before` for the cumulative counters; the arena figure is a
/// high-water mark and is taken as is.
pub fn replay_delta(after: &ReplayStats, before: &ReplayStats) -> ReplayStats {
    ReplayStats {
        traced_kernels: after.traced_kernels - before.traced_kernels,
        recorded_probes: after.recorded_probes - before.recorded_probes,
        elided_probes: after.elided_probes - before.elided_probes,
        l2_probes: after.l2_probes - before.l2_probes,
        parallel_replays: after.parallel_replays - before.parallel_replays,
        inline_replays: after.inline_replays - before.inline_replays,
        arena_bytes: after.arena_bytes,
    }
}

/// Per-kernel `(launches, simulated seconds)` keyed by name.
pub type Breakdown = BTreeMap<String, (u64, f64)>;

pub fn breakdown(raw: Vec<(String, u64, f64)>) -> Breakdown {
    raw.into_iter().map(|(k, n, s)| (k, (n, s))).collect()
}

pub fn breakdown_delta(after: &Breakdown, before: &Breakdown) -> Breakdown {
    after
        .iter()
        .map(|(k, &(n, s))| {
            let (n0, s0) = before.get(k).copied().unwrap_or((0, 0.0));
            (k.clone(), (n - n0, s - s0))
        })
        .filter(|(_, (n, _))| *n > 0)
        .collect()
}

/// Every simulated counter as raw bits, for bit-for-bit comparison.
pub fn signature(p: &Profiler, kernels: &Breakdown) -> Vec<u64> {
    let mut v = vec![
        p.kernels,
        p.warp_insts.to_bits(),
        p.active_lanes.to_bits(),
        p.lane_slots.to_bits(),
        p.mem_requests,
        p.l1_hit_sectors,
        p.l2_hit_sectors,
        p.dram_sectors,
        p.write_sectors,
        p.atomics,
        p.atomic_conflicts,
        p.syncs,
        p.mma_ops,
        p.pcie_bytes,
        p.pcie_requests,
        p.peer_bytes,
        p.cycles.to_bits(),
    ];
    for (name, &(n, s)) in kernels {
        v.push(crate::stats::fingerprint(name.as_bytes()));
        v.push(n);
        v.push(s.to_bits());
    }
    v
}

/// `sim.*` metrics of one window.
pub fn add_sim(layers: &mut Layers, p: &Profiler, kernels: &Breakdown) {
    layers.set("sim.kernels", p.kernels as f64);
    layers.set("sim.cycles", p.cycles);
    layers.set("sim.simt_efficiency", p.simt_efficiency());
    layers.set("sim.l1_hit_rate", p.l1_hit_rate());
    layers.set("sim.l2_hit_rate", p.l2_hit_rate());
    layers.set("sim.dram_sectors", p.dram_sectors as f64);
    layers.set("sim.atomics", p.atomics as f64);
    layers.set("sim.atomic_conflicts", p.atomic_conflicts as f64);
    layers.set("sim.mma_ops", p.mma_ops as f64);
    for k in KERNELS {
        let s = kernels.get(k).map_or(0.0, |&(_, s)| s);
        layers.set_owned(format!("sim.kernel_s.{k}"), s);
    }
}

/// `replay.*` metrics of one window.
pub fn add_replay(layers: &mut Layers, r: &ReplayStats) {
    layers.set("replay.traced_kernels", r.traced_kernels as f64);
    layers.set("replay.parallel_replays", r.parallel_replays as f64);
    layers.set("replay.inline_replays", r.inline_replays as f64);
    layers.set("replay.recorded_probes", r.recorded_probes as f64);
    layers.set("replay.elision", r.elision());
    layers.set("replay.l1_absorption", r.l1_absorption());
    layers.set("replay.arena_mib", r.arena_bytes as f64 / (1024.0 * 1024.0));
}
