//! Kernel-scoped cost accounting.
//!
//! Engines obtain a [`Kernel`] from [`crate::device::Device::launch`], report
//! the SIMT events their scheduling strategy generates (instructions, warp
//! memory accesses, atomics, barriers) through the per-SM [`SmShard`] that
//! [`Kernel::shard`] binds, and call [`Kernel::finish`] to turn the event
//! counts into simulated cycles.
//!
//! # Timing model
//!
//! Per SM, three quantities bound the runtime and the slowest wins:
//!
//! * **issue**: `warp_insts / issue_width` — the instruction pipeline;
//! * **memory pipeline**: sector transactions divided by the L1's sector
//!   throughput (4 sectors/cycle for a 128-byte LSU datapath);
//! * **exposed latency**: the sum of per-access latencies divided by the
//!   number of *independent instruction streams* (`concurrency`). This is
//!   Little's law: with C independent warps in flight, each can hide the
//!   others' stalls. Cooperative tile execution serialises a whole block
//!   behind one stream (Figure 4a), which is precisely the deficiency
//!   Resident Tile Stealing removes by letting every warp consume tiles
//!   independently (Figure 4b).
//!
//! The kernel then takes the max over SMs — inter-SM load imbalance directly
//! lengthens the kernel, which is what tile stealing flattens — and finally
//! applies the device-wide DRAM/L2/PCIe bandwidth bounds plus the fixed
//! launch overhead.
//!
//! # Scheduling overhead
//!
//! Warp instructions issued through [`SmShard::exec_sched`] (the tile
//! votes, shuffles and partitions of `crate::tile`, plus the engines'
//! fragment steering) are scheduling work as well as ordinary issue. An
//! unmarked kernel's overhead is its critical SM's scheduling instructions
//! divided by `issue_width` — the critical SM being the one with the most
//! cycles, the first on ties. A kernel marked with
//! [`Kernel::mark_scheduling`] does nothing but build a schedule, so all of
//! its cycles but the launch count. Either way the overhead is bounded by
//! the kernel's own cycles; [`Kernel::finish`] charges it to the device's
//! running total ([`crate::device::Device::overhead_seconds`]).
//!
//! # Execution routes
//!
//! With [`crate::device::Device::host_threads`] at 1 every cache probe runs
//! at its access, in call order, against the device's hierarchy: the
//! direct route. Above 1 the kernel takes the **recorded** route: event
//! accounting still happens at the access (it is cheap and
//! cache-independent), but each sector probe is appended to the device's
//! packed probe trace (`crate::trace`) as one word naming the SM, the
//! sector and whether it is an atomic. [`Kernel::finish`] then replays the
//! trace front to back through the same probe-and-charge code the direct
//! route runs, on the calling thread. Call order is the global probe order,
//! so cycles, profiler counters and cache states are bitwise identical on
//! both routes by construction. The trace is reused across launches, so
//! steady-state recording never allocates.
//!
//! Reads of registered streaming regions
//! ([`crate::device::Device::mark_streaming`]: CSR adjacency larger than
//! one L2 way) bypass the cache hierarchy on both routes and are charged as
//! compulsory DRAM misses at the access; the recorded route counts them as
//! elided probes in [`crate::profile::ReplayStats`].

use crate::cache::Probe;
use crate::config::DeviceConfig;
use crate::device::Device;
use crate::mem::is_host_addr;
use crate::profile::Profiler;
use crate::sanitizer::{HazardReport, ShadowTracker};
use serde::{Deserialize, Serialize};

/// What a memory access does; writes also produce sector traffic
/// (write-allocate) and are tracked separately for the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate, write-back modelled as equal-cost traffic).
    Write,
}

/// Per-SM event counters for one kernel.
#[derive(Debug, Clone, Default)]
pub(crate) struct SmCounters {
    pub warp_insts: f64,
    pub active_lanes: f64,
    pub lane_slots: f64,
    pub mem_requests: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub dram_sectors: u64,
    pub write_sectors: u64,
    pub atomics: u64,
    pub atomic_serial: u64,
    pub syncs: u64,
    pub host_sectors: u64,
    pub mma_ops: u64,
    /// The part of `warp_insts` issued as scheduling work.
    pub sched_insts: u64,
}

/// Timing summary returned by [`Kernel::finish`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel name as given at launch.
    pub name: String,
    /// Simulated cycles the kernel occupied the device.
    pub cycles: f64,
    /// The same duration in seconds.
    pub seconds: f64,
    /// Cycles of the busiest SM (before device-wide bounds).
    pub max_sm_cycles: f64,
    /// Mean cycles across SMs that received work.
    pub mean_sm_cycles: f64,
    /// Number of SMs that received any work.
    pub active_sms: usize,
    /// DRAM bytes the kernel moved.
    pub dram_bytes: u64,
    /// PCIe bytes the kernel moved (zero unless out-of-core).
    pub pcie_bytes: u64,
    /// Hazards the race sanitizer detected in this kernel (always empty
    /// when the sanitizer is disabled).
    pub hazards: HazardReport,
}

impl KernelReport {
    /// Load-imbalance factor: busiest SM over mean SM (1.0 = perfectly even).
    // sage-lint: allow(dead-pub) — prop_sim::kernel_report_imbalance_at_least_one checks the factor's lower bound
    #[must_use]
    pub fn sm_imbalance(&self) -> f64 {
        if self.mean_sm_cycles <= 0.0 {
            1.0
        } else {
            self.max_sm_cycles / self.mean_sm_cycles
        }
    }
}

/// An in-flight kernel: accumulates events, then [`Kernel::finish`] converts
/// them to time and charges the owning device.
pub struct Kernel<'d> {
    dev: &'d mut Device,
    name: String,
    per_sm: Vec<SmCounters>,
    concurrency: f64,
    scratch_sectors: Vec<u64>,
    scratch_addrs: Vec<u64>,
    host_bytes: u64,
    host_requests: u64,
    /// The packed probe trace on the recorded route, `None` on the direct
    /// route.
    trace: Option<Vec<u64>>,
    /// Streaming reads charged at the access instead of probed (telemetry
    /// for `ReplayStats`, reported on the recorded route only).
    elided: u64,
    /// Set by [`Kernel::mark_scheduling`].
    scheduling: bool,
    shadow: Option<ShadowTracker>,
}

impl<'d> Kernel<'d> {
    pub(crate) fn new(dev: &'d mut Device, name: &str) -> Self {
        let sms = dev.cfg().num_sms;
        let concurrency = dev.cfg().max_resident_warps as f64;
        let trace = (dev.host_threads() > 1).then(|| dev.take_trace());
        let shadow = dev.cfg().sanitize.then(|| ShadowTracker::new(sms));
        Self {
            dev,
            name: name.to_owned(),
            per_sm: vec![SmCounters::default(); sms],
            concurrency,
            scratch_sectors: Vec::with_capacity(64),
            scratch_addrs: Vec::with_capacity(64),
            host_bytes: 0,
            host_requests: 0,
            trace,
            elided: 0,
            scheduling: false,
            shadow,
        }
    }

    /// Bind this kernel to SM `sm % num_sms`, yielding the handle through
    /// which every per-SM event is charged.
    pub fn shard(&mut self, sm: usize) -> SmShard<'_, 'd> {
        let sm = sm % self.per_sm.len();
        SmShard { k: self, sm }
    }

    /// Device configuration shortcut.
    #[must_use]
    pub fn cfg(&self) -> &DeviceConfig {
        self.dev.cfg()
    }

    /// Set the number of *independent instruction streams* per SM used for
    /// latency hiding. A block cooperating as one tile is a single stream;
    /// warps independently stealing resident tiles are `max_resident_warps`
    /// streams. Clamped to `[1, max_resident_warps]`.
    pub fn set_concurrency(&mut self, streams: f64) {
        let cap = self.dev.cfg().max_resident_warps as f64;
        self.concurrency = streams.clamp(1.0, cap);
    }

    /// Mark this kernel as pure schedule construction: every cycle but the
    /// launch counts as scheduling overhead.
    pub fn mark_scheduling(&mut self) {
        self.scheduling = true;
    }

    /// Probe one sector through the memory hierarchy and charge the outcome.
    /// Host-space sectors become PCIe traffic; contiguous host sectors merge
    /// into a single DMA request (tracked through `prev_host_sector`) — the
    /// "merged and aligned" behaviour of Min et al. [31] that SAGE's tile
    /// alignment exploits. Device sectors probe L1 → L2 → DRAM (uncached
    /// zero-copy semantics for host sectors — the UM pool in `host.rs`
    /// provides the cached alternative).
    fn charge_sector(&mut self, sm: usize, is_write: bool, s: u64, prev_host_sector: &mut u64) {
        let shift = self.dev.cfg().sector_bytes.trailing_zeros();
        if is_host_addr(s << shift) {
            self.per_sm[sm].host_sectors += 1;
            self.host_bytes += 1 << shift;
            if s != prev_host_sector.wrapping_add(1) {
                self.host_requests += 1;
            }
            *prev_host_sector = s;
            return;
        }
        if is_write {
            self.per_sm[sm].write_sectors += 1;
        }
        // Streaming-region reads model `ld.global.cs` no-allocate loads:
        // they bypass L1 and L2 on *both* routes and cost a compulsory
        // DRAM sector. Because they never touch cache state, the recorded
        // route charges them here instead of tracing them.
        if !is_write && self.dev.is_streaming_sector(s) {
            self.per_sm[sm].dram_sectors += 1;
            self.elided += 1;
            return;
        }
        self.probe_or_record(sm, s, false);
    }

    /// Probe a device sector now on the direct route, or append it to the
    /// trace on the recorded route for [`Kernel::finish`] to probe in the
    /// same order.
    #[inline]
    fn probe_or_record(&mut self, sm: usize, s: u64, atomic: bool) {
        match &mut self.trace {
            Some(t) => crate::trace::record(t, sm, s, atomic),
            None => {
                self.probe(sm, s, atomic);
            }
        }
    }

    /// Probe one device sector through L1 → L2 (L2 alone for an atomic) and
    /// charge the outcome to `sm`. Returns whether L1 absorbed the probe.
    #[inline]
    fn probe(&mut self, sm: usize, s: u64, atomic: bool) -> bool {
        if !atomic && self.dev.probe_l1(sm, s) == Probe::Hit {
            self.per_sm[sm].l1_hits += 1;
            return true;
        }
        let hit = self.dev.probe_l2(s) == Probe::Hit;
        let c = &mut self.per_sm[sm];
        if hit {
            c.l2_hits += 1;
        } else {
            c.dram_sectors += 1;
        }
        false
    }

    /// A device-wide cooperative-grid barrier (`grid.sync()`): orders every
    /// access recorded before it against every access after it for the race
    /// sanitizer. The cost model charges nothing — a grid sync costs on the
    /// order of a kernel tail, below the resolution of this transaction-level
    /// model — so enabling the sanitizer cannot change any simulated number.
    pub fn grid_sync(&mut self) {
        if let Some(sh) = &mut self.shadow {
            sh.grid_barrier();
        }
    }

    /// Explicit PCIe traffic attributed to this kernel (e.g. UM page faults).
    pub fn pcie_traffic(&mut self, bytes: u64, requests: u64) {
        self.host_bytes += bytes;
        self.host_requests += requests;
    }

    /// Number of SMs on the device (targets for work placement).
    #[must_use]
    pub fn num_sms(&self) -> usize {
        self.per_sm.len()
    }

    /// Convert accumulated events into time, charge the device clock and
    /// profiler, and return the report. On the recorded route the trace is
    /// first replayed, front to back on the calling thread, through the
    /// probe-and-charge code the direct route runs at each access.
    pub fn finish(mut self) -> KernelReport {
        let hazards = HazardReport {
            hazards: self
                .shadow
                .take()
                .map_or_else(Vec::new, |s| s.finish(&self.name)),
        };
        self.dev.record_hazards(&hazards);
        if let Some(trace) = self.trace.take() {
            let mut l1_hits = 0u64;
            for &w in &trace {
                let (sm, s, atomic) = crate::trace::unpack(w);
                l1_hits += u64::from(self.probe(sm, s, atomic));
            }
            let recorded = trace.len() as u64;
            // kernels that touched no cached device memory count as untraced
            if recorded > 0 || self.elided > 0 {
                self.dev.note_replay(
                    recorded,
                    self.elided,
                    recorded - l1_hits,
                    (trace.capacity() * std::mem::size_of::<u64>()) as u64,
                );
            }
            self.dev.return_trace(trace);
        }
        let br = compute_cycles(
            self.dev.cfg(),
            &self.per_sm,
            self.concurrency,
            self.host_bytes,
            self.host_requests,
        );
        let overhead = if self.scheduling {
            br.cycles - self.dev.cfg().kernel_launch_cycles as f64
        } else {
            br.critical_sched_insts as f64 / self.dev.cfg().issue_width
        };
        self.dev.charge(&br.totals, br.cycles, overhead);
        self.dev.charge_named(&self.name, br.cycles);
        KernelReport {
            seconds: self.dev.cfg().cycles_to_seconds(br.cycles),
            name: std::mem::take(&mut self.name),
            cycles: br.cycles,
            max_sm_cycles: br.max_sm,
            mean_sm_cycles: br.mean_sm,
            active_sms: br.active_sms,
            dram_bytes: br.dram_bytes,
            pcie_bytes: self.host_bytes,
            hazards,
        }
    }
}

/// The device-independent cycle computation of [`Kernel::finish`]: per-SM
/// critical-path max, device-wide bandwidth bounds, launch overhead, and the
/// profiler totals.
struct CycleBreakdown {
    totals: Profiler,
    cycles: f64,
    max_sm: f64,
    /// Scheduling instructions of the SM with the most cycles.
    critical_sched_insts: u64,
    mean_sm: f64,
    active_sms: usize,
    dram_bytes: u64,
}

fn compute_cycles(
    cfg: &DeviceConfig,
    per_sm: &[SmCounters],
    concurrency: f64,
    host_bytes: u64,
    host_requests: u64,
) -> CycleBreakdown {
    let mut totals = Profiler {
        kernels: 1,
        ..Profiler::default()
    };
    let mut max_sm = 0.0f64;
    let mut critical_sched_insts = 0u64;
    let mut sum_sm = 0.0f64;
    let mut active_sms = 0usize;
    let mut dram_bytes = 0u64;
    let mut l2_sectors_total = 0u64;

    for c in per_sm {
        let busy = c.warp_insts > 0.0 || c.mem_requests > 0 || c.syncs > 0;
        if !busy {
            continue;
        }
        active_sms += 1;
        let issue = c.warp_insts / cfg.issue_width;
        let sectors = c.l1_hits + c.l2_hits + c.dram_sectors + c.host_sectors;
        let mem_pipe = sectors as f64 / cfg.sectors_per_line() as f64;
        // matrix-unit pipe: MMA op throughput bounds the SM like the LSU
        // datapath bounds sector traffic
        let tensor_pipe = c.mma_ops as f64 / cfg.tensor.mma_per_cycle;
        let latency_sum = c.l1_hits as f64 * cfg.l1.hit_latency as f64
            + c.l2_hits as f64 * cfg.l2.hit_latency as f64
            + c.dram_sectors as f64 * cfg.dram_latency as f64
            + (c.atomics + c.atomic_serial) as f64 * cfg.atomic_cycles as f64
            + c.mma_ops as f64 * cfg.tensor.mma_latency as f64;
        let exposed = latency_sum / concurrency;
        let sync_cost = c.syncs as f64 * cfg.block_sync_cycles as f64;
        let sm_cycles = issue.max(mem_pipe).max(exposed).max(tensor_pipe) + sync_cost;
        if sm_cycles > max_sm {
            max_sm = sm_cycles;
            critical_sched_insts = c.sched_insts;
        }
        sum_sm += sm_cycles;

        totals.warp_insts += c.warp_insts;
        totals.active_lanes += c.active_lanes;
        totals.lane_slots += c.lane_slots;
        totals.mem_requests += c.mem_requests;
        totals.l1_hit_sectors += c.l1_hits;
        totals.l2_hit_sectors += c.l2_hits;
        totals.dram_sectors += c.dram_sectors;
        totals.write_sectors += c.write_sectors;
        totals.atomics += c.atomics;
        totals.atomic_conflicts += c.atomic_serial;
        totals.syncs += c.syncs;
        totals.mma_ops += c.mma_ops;
        dram_bytes += c.dram_sectors * cfg.sector_bytes as u64;
        l2_sectors_total += c.l2_hits + c.dram_sectors;
    }

    // Device-wide bandwidth bounds.
    let dram_bound = dram_bytes as f64 / cfg.dram_bytes_per_cycle();
    let l2_bound = (l2_sectors_total * cfg.sector_bytes as u64) as f64 / cfg.l2_bytes_per_cycle();
    // PCIe traffic bound (converted to cycles). The number of requests
    // the device keeps in flight scales with the kernel's independent
    // instruction streams — Resident Tile Stealing "increases the
    // occupancy of the external memory pipeline" (§7.2) — so the
    // effective DMA depth grows with concurrency.
    let pcie_seconds = if host_bytes > 0 {
        let mut pc = cfg.pcie;
        let depth_scale = (concurrency / 4.0).max(1.0);
        pc.queue_depth = ((pc.queue_depth as f64 * depth_scale) as usize).min(512);
        crate::pcie::transfer_seconds(&pc, host_bytes, host_requests)
    } else {
        0.0
    };
    let pcie_cycles = pcie_seconds * cfg.clock_hz;

    let cycles =
        max_sm.max(dram_bound).max(l2_bound).max(pcie_cycles) + cfg.kernel_launch_cycles as f64;

    totals.pcie_bytes = host_bytes;
    totals.pcie_requests = host_requests;
    totals.cycles = cycles;
    CycleBreakdown {
        totals,
        cycles,
        max_sm,
        critical_sched_insts,
        mean_sm: if active_sms == 0 {
            0.0
        } else {
            sum_sm / active_sms as f64
        },
        active_sms,
        dram_bytes,
    }
}

/// One SM's view of an in-flight kernel, and the only way to charge a
/// per-SM event: [`Kernel::shard`] binds the SM once, so helpers shared
/// between engines take a single `&mut SmShard` instead of threading a
/// `(&mut Kernel, sm)` pair through every call.
pub struct SmShard<'k, 'd> {
    k: &'k mut Kernel<'d>,
    /// Already folded into `0..num_sms` by [`Kernel::shard`].
    sm: usize,
}

impl SmShard<'_, '_> {
    /// Device configuration shortcut.
    #[must_use]
    pub fn cfg(&self) -> &DeviceConfig {
        self.k.dev.cfg()
    }

    fn counters(&mut self) -> &mut SmCounters {
        &mut self.k.per_sm[self.sm]
    }

    /// Issue `warp_insts` warp instructions with `active` of `width` lanes
    /// doing useful work (divergence shows up as `active < width`).
    pub fn exec(&mut self, warp_insts: u64, active: usize, width: usize) {
        let c = self.counters();
        c.warp_insts += warp_insts as f64;
        c.active_lanes += active as f64;
        c.lane_slots += width.max(active) as f64;
    }

    /// Issue scheduling instructions: the same cost as [`Self::exec`], also
    /// counted as scheduling overhead.
    pub fn exec_sched(&mut self, warp_insts: u64, active: usize, width: usize) {
        self.exec(warp_insts, active, width);
        self.counters().sched_insts += warp_insts;
    }

    /// Issue fully-converged instructions (all lanes active).
    pub fn exec_uniform(&mut self, warp_insts: u64) {
        let w = self.cfg().warp_size;
        self.exec(warp_insts, w, w);
    }

    /// Issue `ops` matrix-unit (tensor-core) ops: each op is one
    /// warpgroup-level binary fragment multiply over a
    /// [`crate::TensorConfig::block_dim`]-square adjacency block. Ops feed
    /// a per-SM tensor-pipe throughput bound plus an exposed-latency term
    /// hidden by concurrency — a fourth contender in the per-SM cycle max
    /// beside issue, the memory pipe, and scalar exposed latency. The charge
    /// is pure event arithmetic, so it is identical on the direct and
    /// recorded routes by construction; the operands' memory traffic
    /// is charged separately through the ordinary access paths.
    pub fn mma(&mut self, ops: u64) {
        if ops == 0 {
            return;
        }
        let warp = self.cfg().warp_size;
        let c = self.counters();
        c.mma_ops += ops;
        // each op occupies one issue slot (HMMA/BMMA instruction dispatch)
        c.warp_insts += ops as f64;
        c.active_lanes += (ops as usize * warp) as f64;
        c.lane_slots += (ops as usize * warp) as f64;
    }

    /// A warp/tile-wide memory access: lanes touch `addrs` (each `elem_bytes`
    /// wide). Addresses are coalesced into distinct 32-byte sectors, each
    /// probed through L1 → L2 → DRAM. Host-space addresses become PCIe
    /// traffic instead (zero-copy / UM-style access).
    pub fn access(&mut self, kind: AccessKind, addrs: &[u64], elem_bytes: usize) {
        self.access_impl(kind, addrs, elem_bytes, true);
    }

    /// A warp/tile-wide *dirty write*: identical cost accounting to
    /// [`Self::access`] with [`AccessKind::Write`], but exempt from the
    /// race sanitizer's hazard pairing, like an atomic. Engines use it to
    /// assert that a racy store is benign by construction — the paper's
    /// §7.2 "dirty write" idiom (same-value or monotone stores whose
    /// interleaving cannot change the converged result).
    pub fn access_dirty(&mut self, addrs: &[u64], elem_bytes: usize) {
        self.access_impl(AccessKind::Write, addrs, elem_bytes, false);
    }

    fn access_impl(&mut self, kind: AccessKind, addrs: &[u64], elem_bytes: usize, shadowed: bool) {
        if addrs.is_empty() {
            return;
        }
        if shadowed {
            self.shadow(kind, addrs, elem_bytes as u64);
        }
        self.coalesce(addrs, elem_bytes);
        self.request(addrs.len());
        let is_write = kind == AccessKind::Write;
        let mut prev_host_sector: u64 = u64::MAX;
        for i in 0..self.k.scratch_sectors.len() {
            let s = self.k.scratch_sectors[i];
            self.k
                .charge_sector(self.sm, is_write, s, &mut prev_host_sector);
        }
    }

    /// A coalesced access over `count` contiguous `elem_bytes`-wide elements
    /// starting at `base`: one warp-wide request per `warp_size` elements,
    /// without materializing a per-lane address vector. Equivalent in cost
    /// to calling [`Self::access`] on the same range chunked by warp
    /// (contiguous host sectors additionally merge across the whole range,
    /// as a streaming DMA would).
    pub fn access_range(&mut self, kind: AccessKind, base: u64, count: u64, elem_bytes: usize) {
        if count == 0 {
            return;
        }
        let warp = self.cfg().warp_size as u64;
        let shift = self.cfg().sector_bytes.trailing_zeros();
        self.shadow(kind, &[base], count * elem_bytes as u64);
        let is_write = kind == AccessKind::Write;
        let mut prev_host_sector: u64 = u64::MAX;
        let mut done = 0u64;
        while done < count {
            let lanes = warp.min(count - done);
            let lo = base + done * elem_bytes as u64;
            let hi = lo + lanes * elem_bytes as u64 - 1;
            self.request(lanes as usize);
            for s in (lo >> shift)..=(hi >> shift) {
                self.k
                    .charge_sector(self.sm, is_write, s, &mut prev_host_sector);
            }
            done += lanes;
        }
    }

    /// A warp access routed through a unified-memory page pool: faulting
    /// pages migrate over PCIe at page granularity, resident pages are
    /// served from device memory (the sectors are charged against a device
    /// staging alias of the host address, so the cache hierarchy behaves as
    /// if the page lived on the device).
    pub fn access_um(
        &mut self,
        kind: AccessKind,
        addrs: &[u64],
        elem_bytes: usize,
        pool: &mut crate::host::UmPool,
    ) {
        if addrs.is_empty() {
            return;
        }
        const UM_STAGE_BASE: u64 = 1 << 38;
        const HOST_BASE: u64 = 1 << 40;
        let mut translated: Vec<u64> = Vec::with_capacity(addrs.len());
        for &a in addrs {
            if is_host_addr(a) {
                if pool.access(a) == crate::host::PoolAccess::Fault {
                    self.k.pcie_traffic(pool.page_bytes(), 1);
                }
                translated.push(UM_STAGE_BASE + (a - HOST_BASE));
            } else {
                translated.push(a);
            }
        }
        self.access(kind, &translated, elem_bytes);
    }

    /// Atomic read-modify-write by the lanes at `addrs` (one per lane).
    /// Conflicting lanes (same address) serialise; every distinct address
    /// costs an L2 round trip. Atomics are exempt from the race sanitizer:
    /// the L2 point of coherence serialises them against everything.
    pub fn atomic(&mut self, addrs: &[u64]) {
        if addrs.is_empty() {
            return;
        }
        let n = addrs.len() as u64;
        // Sort a scratch copy to count conflicting lanes without mutating
        // the caller's address list.
        let sorted = &mut self.k.scratch_addrs;
        sorted.clear();
        sorted.extend_from_slice(addrs);
        sorted.sort_unstable();
        let mut distinct = 1u64;
        for i in 1..sorted.len() {
            if sorted[i] != sorted[i - 1] {
                distinct += 1;
            }
        }
        // Traffic: atomics resolve in L2, one probe per distinct sector; a
        // lane's atomic touches the sector holding its address, so it
        // coalesces as a one-byte element.
        self.coalesce(addrs, 1);
        for i in 0..self.k.scratch_sectors.len() {
            let s = self.k.scratch_sectors[i];
            self.k.probe_or_record(self.sm, s, true);
        }
        let c = self.counters();
        c.atomics += n;
        c.atomic_serial += n - distinct;
        self.request(addrs.len());
    }

    /// A block-wide barrier. Advances the sanitizer's per-SM epoch clock
    /// (reporting metadata only — a block barrier never orders accesses
    /// across SMs).
    pub fn sync(&mut self) {
        self.counters().syncs += 1;
        if let Some(sh) = &mut self.k.shadow {
            sh.barrier(self.sm);
        }
    }

    /// Charge one warp-wide memory request with `lanes` lanes taking part:
    /// one LSU instruction.
    fn request(&mut self, lanes: usize) {
        let warp = self.cfg().warp_size;
        let c = self.counters();
        c.mem_requests += 1;
        c.warp_insts += 1.0;
        c.active_lanes += lanes.min(warp) as f64;
        c.lane_slots += warp as f64;
    }

    /// Coalesce: collect the distinct sectors the lanes at `addrs` touch
    /// into the kernel's sector scratch, ascending. Elements may straddle
    /// sector boundaries when `elem_bytes > 1`. Lanes mostly walk ascending
    /// addresses, so the sort usually has nothing to do.
    fn coalesce(&mut self, addrs: &[u64], elem_bytes: usize) {
        // Device::new guarantees a power-of-two sector size
        let shift = self.cfg().sector_bytes.trailing_zeros();
        let sectors = &mut self.k.scratch_sectors;
        sectors.clear();
        for &a in addrs {
            let first = a >> shift;
            let last = (a + elem_bytes as u64 - 1) >> shift;
            for s in first..=last {
                sectors.push(s);
            }
        }
        if !sectors.is_sorted() {
            sectors.sort_unstable();
        }
        sectors.dedup();
    }

    /// Hand a `kind` access of `bytes` bytes at each of `addrs` to the race
    /// sanitizer, when it is on.
    fn shadow(&mut self, kind: AccessKind, addrs: &[u64], bytes: u64) {
        if let Some(sh) = &mut self.k.shadow {
            for &a in addrs {
                match kind {
                    AccessKind::Read => sh.read(self.sm, a, bytes),
                    AccessKind::Write => sh.write(self.sm, a, bytes),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::Device;
    use crate::mem::MemSpace;

    fn dev() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    #[test]
    fn empty_kernel_costs_launch_overhead_only() {
        let mut d = dev();
        let k = d.launch("noop");
        let r = k.finish();
        assert_eq!(
            r.cycles,
            DeviceConfig::test_tiny().kernel_launch_cycles as f64
        );
        assert_eq!(r.active_sms, 0);
    }

    #[test]
    fn compute_bound_kernel_scales_with_insts() {
        let mut d = dev();
        let mut k = d.launch("compute");
        k.shard(0).exec_uniform(1000);
        let r1 = k.finish();
        let mut k = d.launch("compute");
        k.shard(0).exec_uniform(2000);
        let r2 = k.finish();
        assert!(r2.cycles > r1.cycles);
    }

    #[test]
    fn scheduling_overhead_follows_the_two_rules() {
        let cfg = DeviceConfig::test_tiny();
        let (w, issue) = (cfg.warp_size, cfg.issue_width);
        let launch = cfg.kernel_launch_cycles as f64;

        // no scheduling instructions: no overhead
        let mut d = dev();
        let mut k = d.launch("plain");
        k.shard(0).exec_uniform(400);
        k.shard(1).access(AccessKind::Read, &[512], 4);
        let _ = k.finish();
        assert_eq!(d.overhead_seconds(), 0.0);

        // unmarked: the critical SM's scheduling instructions over the issue
        // width — SM 0 has the most cycles, so SM 1's larger count is not it
        let mut d = dev();
        let mut k = d.launch("mixed");
        k.shard(0).exec_uniform(1000);
        k.shard(0).exec_sched(10, w, w);
        k.shard(1).exec_sched(500, w, w);
        let _ = k.finish();
        assert_eq!(d.overhead_seconds(), cfg.cycles_to_seconds(10.0 / issue));

        // only scheduling instructions: bounded by the kernel's cycles
        let mut d = dev();
        let mut k = d.launch("sched");
        k.shard(0).exec_sched(400, w, w);
        k.shard(1).exec_sched(100, w, w);
        let _ = k.finish();
        assert_eq!(d.overhead_seconds(), cfg.cycles_to_seconds(400.0 / issue));
        assert!(d.overhead_seconds() < d.elapsed_seconds());

        // marked: every cycle but the launch, whatever the instructions are
        let mut d = dev();
        let mut k = d.launch("schedule");
        k.mark_scheduling();
        k.shard(0).exec_uniform(400);
        k.shard(1).access(AccessKind::Write, &[4096], 4);
        let r = k.finish();
        assert_eq!(
            d.overhead_seconds(),
            cfg.cycles_to_seconds(r.cycles - launch)
        );
        assert!(d.overhead_seconds() > 0.0);
    }

    #[test]
    fn coalesced_access_touches_one_sector() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8 consecutive u32s = 32 bytes = 1 sector
        let addrs: Vec<u64> = (0..8).map(|i| 1024 + i * 4).collect();
        k.shard(0).access(AccessKind::Read, &addrs, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 1);
    }

    #[test]
    fn scattered_access_touches_many_sectors() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8 addresses 1 KiB apart: 8 sectors
        let addrs: Vec<u64> = (0..8).map(|i| 1024 + i * 1024).collect();
        k.shard(0).access(AccessKind::Read, &addrs, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 8);
    }

    #[test]
    fn element_straddling_sector_boundary_costs_two() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8-byte element at offset 28 straddles sectors 0 and 1
        k.shard(0).access(AccessKind::Read, &[28], 8);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 2);
    }

    #[test]
    fn repeated_access_hits_cache_and_is_cheaper() {
        let mut d = dev();
        // 8 consecutive lines spread across all 4 L1 sets (2 per set).
        let addrs: Vec<u64> = (0..8).map(|i| 4096 + i * 128).collect();
        let mut k = d.launch("cold");
        k.shard(0).access(AccessKind::Read, &addrs, 4);
        let cold = k.finish();
        let mut k = d.launch("warm");
        k.shard(0).access(AccessKind::Read, &addrs, 4);
        let warm = k.finish();
        assert!(warm.cycles <= cold.cycles);
        assert!(d.profiler().l1_hit_sectors > 0);
    }

    #[test]
    fn higher_concurrency_hides_latency() {
        let run = |streams: f64| {
            let mut d = dev();
            let mut k = d.launch("lat");
            k.set_concurrency(streams);
            for i in 0..64u64 {
                k.shard(0)
                    .access(AccessKind::Read, &[(1 << 20) | (i * 4096)], 4);
            }
            k.finish().cycles
        };
        let serial = run(1.0);
        let parallel = run(8.0);
        assert!(
            parallel < serial,
            "8 streams ({parallel}) should beat 1 stream ({serial})"
        );
    }

    #[test]
    fn inter_sm_imbalance_lengthens_kernel() {
        let mut balanced = dev();
        let mut k = balanced.launch("bal");
        for sm in 0..4 {
            k.shard(sm).exec_uniform(1000);
        }
        let b = k.finish();

        let mut skewed = dev();
        let mut k = skewed.launch("skew");
        k.shard(0).exec_uniform(4000);
        let s = k.finish();

        assert!(s.cycles > b.cycles);
        assert!(s.sm_imbalance() >= b.sm_imbalance());
    }

    #[test]
    fn atomics_conflicts_serialize() {
        let mut d = dev();
        let mut k = d.launch("atomic");
        let same = vec![64u64; 8];
        k.shard(0).atomic(&same);
        let conflicted = k.finish();

        let mut d2 = dev();
        let mut k = d2.launch("atomic");
        let distinct: Vec<u64> = (0..8).map(|i| 64 + i * 64).collect();
        k.shard(0).atomic(&distinct);
        let _ = k.finish();

        assert_eq!(d.profiler().atomic_conflicts, 7);
        assert_eq!(d2.profiler().atomic_conflicts, 0);
        assert!(conflicted.cycles > 0.0);
    }

    #[test]
    fn host_addresses_become_pcie_traffic() {
        let mut d = dev();
        let mut h = crate::mem::Allocator::new(MemSpace::Host);
        let base = h.alloc(4096);
        let mut k = d.launch("ooc");
        k.shard(0).access(AccessKind::Read, &[base, base + 4096], 4);
        let r = k.finish();
        assert!(r.pcie_bytes > 0);
        assert_eq!(d.profiler().total_sectors(), 0, "host traffic skips caches");
        assert!(d.profiler().pcie_bytes > 0);
    }

    #[test]
    fn syncs_add_cost() {
        let mut d = dev();
        let mut k = d.launch("sync");
        k.shard(0).exec_uniform(10);
        for _ in 0..100 {
            k.shard(0).sync();
        }
        let r = k.finish();
        let base = DeviceConfig::test_tiny();
        assert!(r.cycles >= 100.0 * base.block_sync_cycles as f64);
        assert_eq!(d.profiler().syncs, 100);
    }

    #[test]
    fn divergence_lowers_simt_efficiency() {
        let mut d = dev();
        let mut k = d.launch("div");
        k.shard(0).exec(10, 2, 8);
        let _ = k.finish();
        assert!(d.profiler().simt_efficiency() < 0.5);
    }

    #[test]
    fn access_range_matches_per_warp_access_cost() {
        let warp = DeviceConfig::test_tiny().warp_size;
        // identical range charged both ways must produce identical counters
        let run = |ranged: bool| {
            let mut d = dev();
            let mut k = d.launch("range");
            let base = 4096u64;
            let count = 100u64;
            if ranged {
                k.shard(0).access_range(AccessKind::Read, base, count, 4);
            } else {
                let addrs: Vec<u64> = (0..count).map(|i| base + i * 4).collect();
                for chunk in addrs.chunks(warp) {
                    k.shard(0).access(AccessKind::Read, chunk, 4);
                }
            }
            let _ = k.finish();
            (
                d.profiler().mem_requests,
                d.profiler().total_sectors(),
                d.profiler().warp_insts.to_bits(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn access_range_on_host_memory_merges_dma_requests() {
        let mut d = dev();
        let mut h = crate::mem::Allocator::new(MemSpace::Host);
        let base = h.alloc(1 << 16);
        let mut k = d.launch("ooc_range");
        k.shard(0).access_range(AccessKind::Read, base, 1024, 4);
        let r = k.finish();
        assert!(r.pcie_bytes > 0);
        // the whole contiguous range is one streaming DMA request
        assert_eq!(d.profiler().pcie_requests, 1);
    }

    #[test]
    fn empty_access_range_is_free() {
        let mut d = dev();
        let mut k = d.launch("empty_range");
        k.shard(0).access_range(AccessKind::Read, 4096, 0, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().mem_requests, 0);
    }

    #[test]
    fn access_range_write_counts_write_sectors() {
        let mut d = dev();
        let mut k = d.launch("wr_range");
        k.shard(0).access_range(AccessKind::Write, 4096, 64, 4);
        let _ = k.finish();
        assert!(d.profiler().write_sectors > 0);
    }

    /// Drive a mixed workload (scattered reads, ranged writes, atomics,
    /// repeated warm accesses across several SMs) and return every counter
    /// the simulation produces, cycles included, as exact bit patterns.
    fn mixed_workload(threads: usize) -> (Vec<u64>, u64, u64, u64) {
        let mut d = dev();
        d.set_host_threads(threads);
        let sms = d.cfg().num_sms;
        for round in 0..3u64 {
            let mut k = d.launch("mixed");
            for sm in 0..sms {
                let addrs: Vec<u64> = (0..16)
                    .map(|i| 4096 + ((i * 2654435761u64 + sm as u64 * 97 + round * 13) % 4096))
                    .collect();
                let mut sh = k.shard(sm);
                sh.access(AccessKind::Read, &addrs, 4);
                sh.access_range(AccessKind::Write, 65536 + sm as u64 * 512, 200, 4);
                let at: Vec<u64> = (0..8).map(|i| 128 * ((i * 7 + sm as u64) % 5)).collect();
                sh.atomic(&at);
                // re-touch the same addresses: exercises warm L1/L2 state
                sh.access(AccessKind::Read, &addrs, 4);
                sh.sync();
            }
            let _ = k.finish();
        }
        let p = d.profiler();
        let counters = vec![
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
            p.cycles.to_bits(),
            d.elapsed_seconds().to_bits(),
        ];
        let (l2h, l2sm, l2lm) = d.l2_stats();
        (counters, l2h, l2sm, l2lm)
    }

    #[test]
    fn traced_replay_is_bitwise_identical_to_direct_path() {
        let direct = mixed_workload(1);
        for threads in [2, 3, 4] {
            assert_eq!(
                direct,
                mixed_workload(threads),
                "threads={threads} diverged from sequential"
            );
        }
    }

    #[test]
    fn traced_replay_handles_host_memory_identically() {
        let run = |threads: usize| {
            let mut d = dev();
            d.set_host_threads(threads);
            let mut h = crate::mem::Allocator::new(MemSpace::Host);
            let base = h.alloc(1 << 16);
            let mut k = d.launch("ooc");
            k.shard(0).access_range(AccessKind::Read, base, 512, 4);
            k.shard(1).access(AccessKind::Read, &[4096, base + 32], 4);
            let r = k.finish();
            (
                r.cycles.to_bits(),
                r.pcie_bytes,
                d.profiler().pcie_requests,
                d.profiler().total_sectors(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn shard_handle_charges_its_bound_sm() {
        let mut d = dev();
        let mut k = d.launch("shard");
        // an index past the last SM folds back onto SM 2
        let mut sh = k.shard(2 + k.num_sms());
        sh.exec_uniform(5);
        sh.access(AccessKind::Read, &[4096], 4);
        sh.access_range(AccessKind::Write, 8192, 32, 4);
        let at = vec![64u64, 64];
        sh.atomic(&at);
        sh.sync();
        // SM 2's own L1 holds the sector the folded handle loaded
        k.shard(2).access(AccessKind::Read, &[4096], 4);
        let r = k.finish();
        assert_eq!(r.active_sms, 1);
        assert_eq!(d.profiler().l1_hit_sectors, 1);
        assert_eq!(d.profiler().syncs, 1);
        assert!(d.profiler().write_sectors > 0);
    }

    fn sanitized_dev() -> Device {
        let mut cfg = DeviceConfig::test_tiny();
        cfg.sanitize = true;
        Device::new(cfg)
    }

    #[test]
    fn racy_fixture_reports_exactly_one_hazard() {
        let mut d = sanitized_dev();
        let r = crate::sanitizer::run_racy_fixture(&mut d);
        assert_eq!(r.hazards.len(), 1);
        assert_eq!(
            r.hazards.hazards[0].kind,
            crate::sanitizer::HazardKind::WriteWrite
        );
        assert_eq!(d.hazard_count(), 1);
        // without the sanitizer the same kernel is silent
        let mut d = dev();
        let r = crate::sanitizer::run_racy_fixture(&mut d);
        assert!(r.hazards.is_empty());
        assert_eq!(d.hazard_count(), 0);
    }

    #[test]
    fn sanitizer_is_cost_neutral_and_clean_on_ordered_kernels() {
        let run = |sanitize: bool, threads: usize| {
            let mut d = Device::new(DeviceConfig {
                sanitize,
                ..DeviceConfig::test_tiny()
            });
            d.set_host_threads(threads);
            let mut k = d.launch("ordered");
            // per-SM disjoint writes + atomics + a grid-sync'd cross-SM pass
            for sm in 0..4 {
                let mut sh = k.shard(sm);
                sh.access_range(AccessKind::Write, 4096 + sm as u64 * 256, 64, 4);
                sh.atomic(&[1 << 14]);
                sh.sync();
            }
            k.grid_sync();
            for sm in 0..4 {
                k.shard(sm).access(AccessKind::Read, &[4096, 4160, 4224], 4);
            }
            // dirty writes race by design but are exempt
            k.shard(0).access_dirty(&[1 << 15], 4);
            k.shard(1).access_dirty(&[1 << 15], 4);
            let r = k.finish();
            assert_eq!(d.hazard_count(), 0, "ordered kernel must be hazard-free");
            (r.cycles.to_bits(), d.profiler().clone())
        };
        for threads in [1, 4] {
            assert_eq!(
                run(false, threads),
                run(true, threads),
                "sanitizing must not change simulated results (threads={threads})"
            );
        }
    }

    #[test]
    fn unsynchronized_cross_sm_write_read_is_flagged() {
        let mut d = sanitized_dev();
        let mut k = d.launch("rw");
        k.shard(0).access(AccessKind::Write, &[8192], 4);
        k.shard(2).access(AccessKind::Read, &[8192], 4);
        let r = k.finish();
        assert_eq!(r.hazards.len(), 1);
        let hz = &r.hazards.hazards[0];
        assert_eq!(hz.kind, crate::sanitizer::HazardKind::ReadWrite);
        assert_eq!(hz.kernel, "rw");
        assert_eq!((hz.first.sm, hz.second.sm), (0, 2));
    }

    #[test]
    fn mma_ops_bound_the_tensor_pipe() {
        let cfg = DeviceConfig::test_tiny();
        let mut d = dev();
        let mut k = d.launch("mma");
        k.set_concurrency(cfg.max_resident_warps as f64);
        k.shard(0).mma(1000);
        let r = k.finish();
        let pipe = 1000.0 / cfg.tensor.mma_per_cycle;
        assert!(
            r.max_sm_cycles >= pipe,
            "tensor pipe must bound the SM: {} < {pipe}",
            r.max_sm_cycles
        );
        assert_eq!(d.profiler().mma_ops, 1000);
    }

    #[test]
    fn mma_is_deterministic_across_host_threads() {
        let run = |threads: usize| {
            let mut d = dev();
            d.set_host_threads(threads);
            let mut k = d.launch("mma_mixed");
            for sm in 0..4 {
                let mut sh = k.shard(sm);
                sh.mma(10 + sm as u64);
                sh.access_range(AccessKind::Read, 4096 + sm as u64 * 512, 64, 4);
            }
            let r = k.finish();
            (r.cycles.to_bits(), d.profiler().mma_ops)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn zero_mma_is_free() {
        let mut d = dev();
        let mut k = d.launch("mma0");
        k.shard(0).mma(0);
        let r = k.finish();
        assert_eq!(r.active_sms, 0);
        assert_eq!(d.profiler().mma_ops, 0);
    }

    /// A workload mixing streaming-region reads, cached reads, writes into
    /// the streaming region, and atomics, run three kernels deep so cache
    /// state carries across launches. Returns every simulated observable as
    /// exact bits plus the elided-probe count.
    fn streaming_workload(threads: usize) -> (Vec<u64>, u64) {
        let mut d = dev();
        d.set_host_threads(threads);
        let base = 1u64 << 20;
        // 4 KiB >= test_tiny's 2 KiB L2 way capacity -> registered
        d.mark_streaming(base, 4096);
        assert_eq!(d.streaming_region_count(), 1);
        for round in 0..3u64 {
            let mut k = d.launch("stream");
            for sm in 0..4 {
                let off = (sm as u64 * 1024 + round * 256) % 3072;
                let mut sh = k.shard(sm);
                sh.access_range(AccessKind::Read, base + off, 200, 4);
                sh.access_range(AccessKind::Read, 4096 + sm as u64 * 512, 64, 4);
                sh.access(AccessKind::Write, &[base + sm as u64 * 64], 4);
                sh.atomic(&[512 * (1 + sm as u64)]);
            }
            let _ = k.finish();
        }
        let p = d.profiler().clone();
        let (l2h, l2sm, l2lm) = d.l2_stats();
        let counters = vec![
            p.l1_hit_sectors,
            p.l2_hit_sectors,
            p.dram_sectors,
            p.write_sectors,
            p.atomics,
            p.cycles.to_bits(),
            d.elapsed_seconds().to_bits(),
            l2h,
            l2sm,
            l2lm,
        ];
        let elided = d.replay_stats().elided_probes;
        (counters, elided)
    }

    #[test]
    fn elision_is_bitwise_invisible() {
        // threads=1: direct route, no tracing at all — the reference.
        let (reference, e0) = streaming_workload(1);
        assert_eq!(e0, 0, "direct kernels never elide (nothing is traced)");
        for threads in [2, 4] {
            let (got, elided) = streaming_workload(threads);
            assert_eq!(got, reference, "threads={threads} diverged");
            assert!(elided > 0, "traced runs elide streaming reads");
        }
    }

    #[test]
    fn small_streaming_regions_are_not_registered() {
        let mut d = dev();
        // below the 2 KiB way capacity of test_tiny -> ignored
        d.mark_streaming(1 << 20, 1024);
        assert_eq!(d.streaming_region_count(), 0);
        d.mark_streaming(1 << 20, 2048);
        assert_eq!(d.streaming_region_count(), 1);
    }

    #[test]
    fn streaming_reads_bypass_caches_on_the_sequential_path() {
        let mut d = dev();
        let base = 1u64 << 20;
        d.mark_streaming(base, 4096);
        let mut k = d.launch("bypass");
        // Touch the same streaming sectors twice: no caching, so both
        // sweeps are compulsory DRAM misses.
        k.shard(0).access_range(AccessKind::Read, base, 64, 4);
        k.shard(0).access_range(AccessKind::Read, base, 64, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().l1_hit_sectors, 0);
        assert_eq!(d.profiler().l2_hit_sectors, 0);
        assert_eq!(d.profiler().dram_sectors, 16);
    }

    #[test]
    fn replay_telemetry_is_pinned() {
        // One fixed 2-thread kernel mixing cached reads, writes, atomics,
        // streaming reads and host sectors. The counts were recorded before
        // the replay backend last changed shape; they keep perfbench's
        // `replay.elision` and `replay.l1_absorption` meaning what they did.
        let mut d = dev();
        d.set_host_threads(2);
        let stream = 1u64 << 20;
        d.mark_streaming(stream, 4096);
        let mut h = crate::mem::Allocator::new(MemSpace::Host);
        let host = h.alloc(1 << 12);
        let mut k = d.launch("pinned");
        for sm in 0..4u64 {
            let addrs: Vec<u64> = (0..16)
                .map(|i| 4096 + ((i * 389 + sm * 61) % 512))
                .collect();
            let mut sh = k.shard(sm as usize);
            sh.access(AccessKind::Read, &addrs, 4);
            sh.access_range(AccessKind::Write, 8192 + sm * 256, 48, 4);
            sh.atomic(&[64 * sm, 64 * sm + 4, 4096 + 32 * sm]);
            sh.access_range(AccessKind::Read, stream + sm * 512, 96, 4);
            sh.access(AccessKind::Read, &[host + sm * 64, 4096], 4);
            sh.access(AccessKind::Read, &addrs, 4);
        }
        let _ = k.finish();
        // a kernel probing no cached device memory is not counted as traced
        let mut k = d.launch("compute_only");
        k.shard(0).exec_uniform(10);
        k.shard(0).access(AccessKind::Read, &[host], 4);
        let _ = k.finish();
        let s = d.replay_stats().clone();
        assert_eq!(
            (
                s.traced_kernels,
                s.recorded_probes,
                s.elided_probes,
                s.l2_probes
            ),
            (1, 132, 48, 86)
        );
        assert_eq!((s.parallel_replays, s.inline_replays), (0, 1));
        assert!(s.arena_bytes > 0);
    }

    #[test]
    fn concurrency_clamped_to_device_limits() {
        let mut d = dev();
        let mut k = d.launch("clamp");
        k.set_concurrency(1e9);
        assert_eq!(k.concurrency, 8.0);
        k.set_concurrency(0.0);
        assert_eq!(k.concurrency, 1.0);
        let _ = k.finish();
    }
}
