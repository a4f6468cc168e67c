//! Kernel-scoped cost accounting.
//!
//! Engines obtain a [`Kernel`] from [`crate::device::Device::launch`], report
//! the SIMT events their scheduling strategy generates (instructions, warp
//! memory accesses, atomics, barriers), and call [`Kernel::finish`] to turn
//! the event counts into simulated cycles.
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
//! # Execution backends
//!
//! With [`crate::device::Device::host_threads`] at 1 every cache probe runs
//! inline, in call order, against the shared hierarchy — the original
//! sequential path. Above 1 the kernel switches to a **trace/replay**
//! backend: event accounting still happens inline (it is cheap and
//! cache-independent), but sector probes are appended to compact packed
//! per-SM streams (`crate::trace::TraceArena`) — one
//! `seq << 36 | sector << 2 | atomic` word per probe —
//! stamped with a global sequence number and replayed at
//! [`Kernel::finish`] in two parallel passes: per-SM private-L1 replay
//! (each shard owns its SM's L1; survivors are compacted *in place* into
//! per-`(SM, slice)` runs already sorted by seq), then per-slice L2 replay
//! that merges the runs back into global probe order with a dense-seq
//! counting merge (each worker owns disjoint address-interleaved L2 slices,
//! see [`crate::cache::SlicedCache`]). Stream storage lives in a per-device
//! arena reused across launches, so steady-state recording never allocates.
//! Shard counters merge in SM order, so cycles, profiler stats and cache
//! states are bitwise identical to the sequential path.
//!
//! Traced kernels take one recording path. Reads of registered streaming
//! regions ([`crate::device::Device::mark_streaming`] — CSR adjacency
//! larger than one L2 way) bypass the cache hierarchy on every backend and
//! are charged as compulsory DRAM misses; since their outcome cannot depend
//! on inter-SM interleaving, they are charged at record time and never
//! streamed (counted as elided probes in
//! [`crate::profile::ReplayStats`]). The replay gate
//! ([`crate::device::REPLAY_GATE`]) is the only replay decision: kernels
//! recording fewer probes replay inline on the calling thread, since
//! spawning shard workers would cost more than the replay itself. At or
//! above it they replay on sharded workers, and [`Kernel::finish_async`]
//! hands that replay, with the cache hierarchy, to a background thread so
//! it overlaps the next kernel's recording; every observable device read
//! joins the in-flight replay first, so results stay bitwise identical to
//! [`Kernel::finish`].

use crate::cache::{Probe, SectorCache};
use crate::config::DeviceConfig;
use crate::device::{Device, ReplayCaches};
use crate::mem::is_host_addr;
use crate::profile::Profiler;
use crate::sanitizer::{HazardReport, ShadowTracker};
use crate::trace::TraceArena;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Probe streams of an in-flight traced kernel: the device's arena plus the
/// global sequence counter stamping every recorded probe.
#[derive(Debug)]
struct TraceBuf {
    arena: TraceArena,
    seq: u64,
    threads: usize,
    /// Streaming reads charged at record time instead of streamed
    /// (telemetry for `ReplayStats`).
    elided: u64,
}

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
    /// Host wall-clock seconds between launch and finish.
    pub host_seconds: f64,
    /// Host threads the simulation was allowed to use (1 = sequential).
    pub host_threads: usize,
    /// Hazards the race sanitizer detected in this kernel (always empty
    /// when the sanitizer is disabled).
    pub hazards: HazardReport,
}

impl KernelReport {
    /// Load-imbalance factor: busiest SM over mean SM (1.0 = perfectly even).
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
    trace: Option<TraceBuf>,
    shadow: Option<ShadowTracker>,
    started: Instant,
}

impl<'d> Kernel<'d> {
    pub(crate) fn new(dev: &'d mut Device, name: &str) -> Self {
        let sms = dev.cfg().num_sms;
        let concurrency = dev.cfg().max_resident_warps as f64;
        let threads = dev.host_threads();
        let trace = (threads > 1).then(|| TraceBuf {
            arena: dev.take_trace_arena(),
            seq: 0,
            threads,
            elided: 0,
        });
        let shadow = dev.sanitize_enabled().then(|| ShadowTracker::new(sms));
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
            shadow,
            // sage-lint: allow(wall-clock) — host-side telemetry only: measures real replay cost, never feeds simulated cycles or RunReport determinism
            started: Instant::now(),
        }
    }

    /// Bind this kernel to one SM, yielding a shard handle whose accessors
    /// drop the repeated `sm` argument — the form engine helpers take.
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

    /// Current latency-hiding concurrency.
    #[must_use]
    pub fn concurrency(&self) -> f64 {
        self.concurrency
    }

    /// Issue `warp_insts` warp instructions on `sm` with `active` of `width`
    /// lanes doing useful work (divergence shows up as `active < width`).
    pub fn exec(&mut self, sm: usize, warp_insts: u64, active: usize, width: usize) {
        let n = self.per_sm.len();
        let c = &mut self.per_sm[sm % n];
        c.warp_insts += warp_insts as f64;
        c.active_lanes += active as f64;
        c.lane_slots += width.max(active) as f64;
    }

    /// Issue fully-converged instructions (all lanes active).
    pub fn exec_uniform(&mut self, sm: usize, warp_insts: u64) {
        let w = self.dev.cfg().warp_size;
        self.exec(sm, warp_insts, w, w);
    }

    /// Issue `ops` matrix-unit (tensor-core) ops on `sm`: each op is one
    /// warpgroup-level binary fragment multiply over a
    /// [`crate::TensorConfig::block_dim`]-square adjacency block. Ops feed
    /// a per-SM tensor-pipe throughput bound plus an exposed-latency term
    /// hidden by concurrency — a fourth contender in the per-SM cycle max
    /// beside issue, the memory pipe, and scalar exposed latency. The charge
    /// is pure event arithmetic, so it is identical on the sequential and
    /// trace/replay backends by construction; the operands' memory traffic
    /// is charged separately through the ordinary access paths.
    pub fn mma(&mut self, sm: usize, ops: u64) {
        if ops == 0 {
            return;
        }
        let warp = self.dev.cfg().warp_size;
        let n = self.per_sm.len();
        let c = &mut self.per_sm[sm % n];
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
    pub fn access(&mut self, sm: usize, kind: AccessKind, addrs: &[u64], elem_bytes: usize) {
        self.access_impl(sm, kind, addrs, elem_bytes, true);
    }

    /// A warp/tile-wide *dirty write*: identical cost accounting to
    /// [`Kernel::access`] with [`AccessKind::Write`], but exempt from the
    /// race sanitizer's hazard pairing, like an atomic. Engines use it to
    /// assert that a racy store is benign by construction — the paper's
    /// §7.2 "dirty write" idiom (same-value or monotone stores whose
    /// interleaving cannot change the converged result).
    pub fn access_dirty(&mut self, sm: usize, addrs: &[u64], elem_bytes: usize) {
        self.access_impl(sm, AccessKind::Write, addrs, elem_bytes, false);
    }

    fn access_impl(
        &mut self,
        sm: usize,
        kind: AccessKind,
        addrs: &[u64],
        elem_bytes: usize,
        shadowed: bool,
    ) {
        if addrs.is_empty() {
            return;
        }
        // Device::new guarantees a power-of-two sector size
        let shift = self.dev.cfg().sector_bytes.trailing_zeros();
        let sm = sm % self.per_sm.len();
        if shadowed {
            if let Some(sh) = &mut self.shadow {
                for &a in addrs {
                    match kind {
                        AccessKind::Read => sh.read(sm, a, elem_bytes as u64),
                        AccessKind::Write => sh.write(sm, a, elem_bytes as u64),
                    }
                }
            }
        }

        // Coalesce: collect the distinct sectors the lanes touch. Elements may
        // straddle sector boundaries when elem_bytes > 1. Lanes mostly walk
        // ascending addresses, so the sort usually has nothing to do.
        self.scratch_sectors.clear();
        for &a in addrs {
            let first = a >> shift;
            let last = (a + elem_bytes as u64 - 1) >> shift;
            for s in first..=last {
                self.scratch_sectors.push(s);
            }
        }
        if !self.scratch_sectors.is_sorted() {
            self.scratch_sectors.sort_unstable();
        }
        self.scratch_sectors.dedup();

        let c = &mut self.per_sm[sm];
        c.mem_requests += 1;
        // one LSU instruction per request
        c.warp_insts += 1.0;
        c.active_lanes += addrs.len().min(self.dev.cfg().warp_size) as f64;
        c.lane_slots += self.dev.cfg().warp_size as f64;

        let is_write = kind == AccessKind::Write;
        let mut prev_host_sector: u64 = u64::MAX;
        for i in 0..self.scratch_sectors.len() {
            let s = self.scratch_sectors[i];
            self.charge_sector(sm, is_write, s, &mut prev_host_sector);
        }
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
        // they bypass L1 and L2 on *every* backend and cost a compulsory
        // DRAM sector. Because they never touch cache state, their outcome
        // is independent of inter-SM interleaving — which is what lets the
        // recording path charge them here instead of streaming them.
        if !is_write && self.dev.is_streaming_sector(s) {
            self.per_sm[sm].dram_sectors += 1;
            if let Some(t) = &mut self.trace {
                t.elided += 1;
            }
            return;
        }
        if let Some(t) = &mut self.trace {
            t.arena.record(sm, s, t.seq, false);
            t.seq += 1;
            return;
        }
        let outcome = self.dev.probe_memory(sm, s);
        let c = &mut self.per_sm[sm];
        match outcome {
            (Probe::Hit, _) => c.l1_hits += 1,
            (_, Some(Probe::Hit)) => c.l2_hits += 1,
            _ => c.dram_sectors += 1,
        }
    }

    /// A coalesced access over `count` contiguous `elem_bytes`-wide elements
    /// starting at `base`: one warp-wide request per `warp_size` elements,
    /// without materializing a per-lane address vector. Equivalent in cost
    /// to calling [`Kernel::access`] on the same range chunked by warp
    /// (contiguous host sectors additionally merge across the whole range,
    /// as a streaming DMA would).
    pub fn access_range(
        &mut self,
        sm: usize,
        kind: AccessKind,
        base: u64,
        count: u64,
        elem_bytes: usize,
    ) {
        if count == 0 {
            return;
        }
        let warp = self.dev.cfg().warp_size as u64;
        let shift = self.dev.cfg().sector_bytes.trailing_zeros();
        let sm = sm % self.per_sm.len();
        if let Some(sh) = &mut self.shadow {
            let bytes = count * elem_bytes as u64;
            match kind {
                AccessKind::Read => sh.read(sm, base, bytes),
                AccessKind::Write => sh.write(sm, base, bytes),
            }
        }
        let is_write = kind == AccessKind::Write;
        let mut prev_host_sector: u64 = u64::MAX;
        let mut done = 0u64;
        while done < count {
            let lanes = warp.min(count - done);
            let lo = base + done * elem_bytes as u64;
            let hi = lo + lanes * elem_bytes as u64 - 1;
            let c = &mut self.per_sm[sm];
            c.mem_requests += 1;
            c.warp_insts += 1.0;
            c.active_lanes += lanes as f64;
            c.lane_slots += warp as f64;
            for s in (lo >> shift)..=(hi >> shift) {
                self.charge_sector(sm, is_write, s, &mut prev_host_sector);
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
        sm: usize,
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
            if crate::mem::is_host_addr(a) {
                if pool.access(a) == crate::host::PoolAccess::Fault {
                    self.pcie_traffic(pool.page_bytes(), 1);
                }
                translated.push(UM_STAGE_BASE + (a - HOST_BASE));
            } else {
                translated.push(a);
            }
        }
        self.access(sm, kind, &translated, elem_bytes);
    }

    /// Atomic read-modify-write by the lanes at `addrs` (one per lane).
    /// Conflicting lanes (same address) serialise; every distinct address
    /// costs an L2 round trip. Atomics are exempt from the race sanitizer:
    /// the L2 point of coherence serialises them against everything.
    pub fn atomic(&mut self, sm: usize, addrs: &[u64]) {
        if addrs.is_empty() {
            return;
        }
        let sm = sm % self.per_sm.len();
        let n = addrs.len() as u64;
        // Sort a scratch copy to count conflicting lanes without mutating
        // the caller's address list.
        self.scratch_addrs.clear();
        self.scratch_addrs.extend_from_slice(addrs);
        self.scratch_addrs.sort_unstable();
        let mut distinct = 1u64;
        for i in 1..self.scratch_addrs.len() {
            if self.scratch_addrs[i] != self.scratch_addrs[i - 1] {
                distinct += 1;
            }
        }
        // Traffic: atomics resolve in L2; charge sector traffic there too.
        let shift = self.dev.cfg().sector_bytes.trailing_zeros();
        self.scratch_sectors.clear();
        for &a in addrs.iter() {
            self.scratch_sectors.push(a >> shift);
        }
        if !self.scratch_sectors.is_sorted() {
            self.scratch_sectors.sort_unstable();
        }
        self.scratch_sectors.dedup();
        for i in 0..self.scratch_sectors.len() {
            let s = self.scratch_sectors[i];
            if let Some(t) = &mut self.trace {
                t.arena.record(sm, s, t.seq, true);
                t.seq += 1;
                continue;
            }
            let outcome = self.dev.probe_l2_only(s);
            let c = &mut self.per_sm[sm];
            match outcome {
                Probe::Hit => c.l2_hits += 1,
                _ => c.dram_sectors += 1,
            }
        }
        let c = &mut self.per_sm[sm];
        c.atomics += n;
        c.atomic_serial += n - distinct;
        c.warp_insts += 1.0;
        c.active_lanes += addrs.len().min(self.dev.cfg().warp_size) as f64;
        c.lane_slots += self.dev.cfg().warp_size as f64;
        c.mem_requests += 1;
    }

    /// A block-wide barrier executed on `sm`. Advances the sanitizer's
    /// per-SM epoch clock (reporting metadata only — a block barrier never
    /// orders accesses across SMs).
    pub fn sync(&mut self, sm: usize) {
        let n = self.per_sm.len();
        self.per_sm[sm % n].syncs += 1;
        if let Some(sh) = &mut self.shadow {
            sh.barrier(sm);
        }
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
    /// profiler, and return the report. Synchronous: any in-flight async
    /// replay is joined first (launch order), then this kernel's own replay
    /// runs to completion before the report is built.
    pub fn finish(self) -> KernelReport {
        self.finalize(false)
            .expect("synchronous finish always yields a report")
    }

    /// Like [`Kernel::finish`], but a traced kernel at or above the replay
    /// gate hands its probe streams and the cache hierarchy to a background
    /// replay thread instead of blocking — the next kernel can record while
    /// this one replays. The report is folded into the device at the next
    /// observable read (a deterministic join barrier), so callers that
    /// discard the report lose nothing. Kernels below the gate and
    /// sequential kernels finish synchronously.
    pub fn finish_async(self) {
        let _ = self.finalize(true);
    }

    /// Shared finish path. Hazards are always resolved synchronously here
    /// (the shadow tracker is cache-independent); the replay + cycle
    /// computation either runs inline or is deferred to a thread, but both
    /// routes execute the exact same code on the exact same data, which is
    /// what makes async replay bitwise identical by construction.
    fn finalize(mut self, may_defer: bool) -> Option<KernelReport> {
        let hazards = HazardReport {
            hazards: self
                .shadow
                .take()
                .map_or_else(Vec::new, |s| s.finish(&self.name)),
        };
        self.dev.record_hazards(&hazards);
        if let Some(trace) = self.trace.take() {
            let TraceBuf {
                arena,
                threads,
                elided,
                ..
            } = trace;
            let work = ReplayWork {
                caches: self.dev.take_replay_caches(),
                arena,
                per_sm: std::mem::take(&mut self.per_sm),
                threads,
                gate: self.dev.replay_gate(),
                cfg: self.dev.cfg().clone(),
                concurrency: self.concurrency,
                host_bytes: self.host_bytes,
                host_requests: self.host_requests,
                name: std::mem::take(&mut self.name),
                elided,
                started: self.started,
            };
            let sms = work.arena.rec.len();
            let sharded = threads.min(sms).max(1) > 1 && work.arena.total_ops() >= work.gate;
            if may_defer && sharded {
                let name = work.name.clone();
                self.dev
                    .set_pending_replay(name, std::thread::spawn(move || work.run()));
                return None;
            }
            let done = work.run();
            let mut report = done.apply(self.dev);
            report.hazards = hazards;
            Some(report)
        } else {
            let br = compute_cycles(
                self.dev.cfg(),
                &self.per_sm,
                self.concurrency,
                self.host_bytes,
                self.host_requests,
            );
            self.dev.charge(&br.totals, br.cycles);
            self.dev.charge_named(&self.name, br.cycles);
            Some(KernelReport {
                seconds: self.dev.cfg().cycles_to_seconds(br.cycles),
                name: std::mem::take(&mut self.name),
                cycles: br.cycles,
                max_sm_cycles: br.max_sm,
                mean_sm_cycles: br.mean_sm,
                active_sms: br.active_sms,
                dram_bytes: br.dram_bytes,
                pcie_bytes: self.host_bytes,
                host_seconds: self.started.elapsed().as_secs_f64(),
                host_threads: 1,
                hazards,
            })
        }
    }
}

/// The device-independent cycle computation shared by the sequential finish
/// path and (a)synchronous replay: per-SM critical-path max, device-wide
/// bandwidth bounds, launch overhead, and the profiler totals.
struct CycleBreakdown {
    totals: Profiler,
    cycles: f64,
    max_sm: f64,
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
        max_sm = max_sm.max(sm_cycles);
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
        mean_sm: if active_sms == 0 {
            0.0
        } else {
            sum_sm / active_sms as f64
        },
        active_sms,
        dram_bytes,
    }
}

/// Everything one traced kernel's replay needs, owned, so it can run on the
/// calling thread or be moved onto a background thread unchanged.
struct ReplayWork {
    caches: ReplayCaches,
    arena: TraceArena,
    per_sm: Vec<SmCounters>,
    threads: usize,
    gate: usize,
    cfg: DeviceConfig,
    concurrency: f64,
    host_bytes: u64,
    host_requests: u64,
    name: String,
    elided: u64,
    started: Instant,
}

impl ReplayWork {
    /// Replay the streams against the owned cache hierarchy and compute the
    /// kernel's cycles — the same code whether invoked inline or on a
    /// background thread.
    fn run(mut self) -> ReplayDone {
        let (recorded, l2_probes, parallel, arena_bytes) = replay_streams(
            &mut self.caches,
            &mut self.arena,
            &mut self.per_sm,
            self.threads,
            self.gate,
        );
        let br = compute_cycles(
            &self.cfg,
            &self.per_sm,
            self.concurrency,
            self.host_bytes,
            self.host_requests,
        );
        ReplayDone {
            caches: self.caches,
            arena: self.arena,
            name: self.name,
            totals: br.totals,
            cycles: br.cycles,
            max_sm: br.max_sm,
            mean_sm: br.mean_sm,
            active_sms: br.active_sms,
            dram_bytes: br.dram_bytes,
            recorded,
            elided: self.elided,
            l2_probes,
            parallel,
            arena_bytes,
            host_threads: self.threads,
            started: self.started,
        }
    }
}

/// A completed replay: the caches to install back plus everything needed to
/// charge the device and build the report. Applying it is the only step that
/// touches the device, so the sync path (apply immediately) and the async
/// path (apply at the join barrier) are indistinguishable to simulated
/// state.
pub(crate) struct ReplayDone {
    caches: ReplayCaches,
    arena: TraceArena,
    name: String,
    totals: Profiler,
    cycles: f64,
    max_sm: f64,
    mean_sm: f64,
    active_sms: usize,
    dram_bytes: u64,
    recorded: u64,
    elided: u64,
    l2_probes: u64,
    parallel: bool,
    arena_bytes: u64,
    host_threads: usize,
    started: Instant,
}

impl ReplayDone {
    /// Fold the completed replay into the device in launch order: install
    /// the caches, return the arena, account telemetry, charge clock and
    /// profiler, and build the report.
    pub(crate) fn apply(self, dev: &mut Device) -> KernelReport {
        dev.install_replay_caches(self.caches);
        if self.recorded > 0 || self.elided > 0 {
            dev.note_replay(
                self.recorded,
                self.elided,
                self.l2_probes,
                self.parallel,
                self.arena_bytes,
            );
        }
        dev.return_trace_arena(self.arena);
        dev.charge(&self.totals, self.cycles);
        dev.charge_named(&self.name, self.cycles);
        let seconds = dev.cfg().cycles_to_seconds(self.cycles);
        KernelReport {
            name: self.name,
            cycles: self.cycles,
            seconds,
            max_sm_cycles: self.max_sm,
            mean_sm_cycles: self.mean_sm,
            active_sms: self.active_sms,
            dram_bytes: self.dram_bytes,
            pcie_bytes: self.totals.pcie_bytes,
            host_seconds: self.started.elapsed().as_secs_f64(),
            host_threads: self.host_threads,
            hazards: HazardReport {
                hazards: Vec::new(),
            },
        }
    }
}

/// One SM's view of an in-flight kernel: every accessor charges the bound
/// SM, so helpers shared between engines take a single `&mut SmShard`
/// instead of threading a `(&mut Kernel, sm)` pair through every call.
pub struct SmShard<'k, 'd> {
    k: &'k mut Kernel<'d>,
    sm: usize,
}

impl<'d> SmShard<'_, 'd> {
    /// The SM this shard charges.
    #[must_use]
    pub fn sm(&self) -> usize {
        self.sm
    }

    /// Device configuration shortcut.
    #[must_use]
    pub fn cfg(&self) -> &DeviceConfig {
        self.k.cfg()
    }

    /// Issue warp instructions on this shard's SM ([`Kernel::exec`]).
    pub fn exec(&mut self, warp_insts: u64, active: usize, width: usize) {
        self.k.exec(self.sm, warp_insts, active, width);
    }

    /// Issue fully-converged instructions ([`Kernel::exec_uniform`]).
    pub fn exec_uniform(&mut self, warp_insts: u64) {
        self.k.exec_uniform(self.sm, warp_insts);
    }

    /// Issue matrix-unit ops on this shard's SM ([`Kernel::mma`]).
    pub fn mma(&mut self, ops: u64) {
        self.k.mma(self.sm, ops);
    }

    /// A warp/tile-wide memory access ([`Kernel::access`]).
    pub fn access(&mut self, kind: AccessKind, addrs: &[u64], elem_bytes: usize) {
        self.k.access(self.sm, kind, addrs, elem_bytes);
    }

    /// A coalesced contiguous access ([`Kernel::access_range`]).
    pub fn access_range(&mut self, kind: AccessKind, base: u64, count: u64, elem_bytes: usize) {
        self.k.access_range(self.sm, kind, base, count, elem_bytes);
    }

    /// A sanitizer-exempt benign-race store ([`Kernel::access_dirty`]).
    pub fn access_dirty(&mut self, addrs: &[u64], elem_bytes: usize) {
        self.k.access_dirty(self.sm, addrs, elem_bytes);
    }

    /// Atomic read-modify-writes by the lanes ([`Kernel::atomic`]).
    pub fn atomic(&mut self, addrs: &[u64]) {
        self.k.atomic(self.sm, addrs);
    }

    /// A block-wide barrier ([`Kernel::sync`]).
    pub fn sync(&mut self) {
        self.k.sync(self.sm);
    }

    /// The underlying kernel, for cross-SM operations.
    pub fn kernel(&mut self) -> &mut Kernel<'d> {
        self.k
    }
}

/// Split `items` into at most `parts` contiguous chunks of near-equal size
/// (ownership partition for shard workers; deterministic by construction).
fn chunk_len(total: usize, parts: usize) -> usize {
    total.div_ceil(parts.max(1)).max(1)
}

/// Replay a traced kernel's probe streams against the (moved-out) cache
/// hierarchy and fill the deferred `l1_hits` / `l2_hits` / `dram_sectors`
/// counters. Returns `(recorded, l2_probes, parallel, arena_bytes)`.
///
/// Pass 1 replays each SM's packed stream against that SM's private L1 —
/// per-SM program order is exactly the sequential probe order projected onto
/// one SM, and L1 outcomes depend on nothing else. Survivors (L1 misses
/// plus atomics, which bypass L1) are compacted **in place** into the same
/// per-SM vector, re-packed with slice-local sector ids and stably grouped
/// by L2 slice (`TraceArena::runs` brackets the groups) — the arena never
/// holds a second copy of a probe. Because the per-SM stream is in sequence
/// order, every group comes out sorted by seq. Pass 2 replays each slice's
/// probes in global sequence order by a dense-seq counting merge of that
/// slice's per-SM runs (sequence stamps are globally unique, so the order is
/// total) — per-set LRU state only depends on the relative order of that
/// set's probes, so the sliced replay reproduces the monolithic outcome
/// probe for probe. A slice fed by a single SM skips the merge and drains
/// the run in one sweep. Both passes run on `threads` scoped workers over
/// disjoint cache shards; kernels below the replay gate stay on the calling
/// thread. Counter merging is fixed-order u64 sums, so the result is
/// independent of thread scheduling.
fn replay_streams(
    caches: &mut ReplayCaches,
    arena: &mut TraceArena,
    per_sm: &mut [SmCounters],
    threads: usize,
    gate: usize,
) -> (u64, u64, bool, u64) {
    use crate::trace::{ATOMIC_FLAG, SECTOR_MASK, SEQ_SHIFT};
    let num_slices = caches.l2.num_slices();
    let total_ops = arena.total_ops();
    if total_ops == 0 {
        return (0, 0, false, arena.reserved_bytes());
    }
    let sms = arena.rec.len();
    let workers = threads.min(sms).max(1);
    let parallel = workers > 1 && total_ops >= gate;
    let seq_mask_hi = !((1u64 << SEQ_SHIFT) - 1);

    // ---- pass 1: private L1 replay, one shard per SM ----
    let mut l1_hits = vec![0u64; sms];
    {
        let l1 = &mut caches.l1;
        let l2 = &caches.l2;
        // Survivors are re-packed (seq | slice-local sector) into per-slice
        // scratch groups, then written back over the drained stream prefix —
        // scratch is per-worker and sized to one SM's survivors, so the
        // arena itself never grows in pass 1.
        let replay_one = |cache: &mut SectorCache,
                          rec: &mut Vec<u64>,
                          runs: &mut [usize],
                          hits: &mut u64,
                          scratch: &mut Vec<Vec<u64>>| {
            for g in scratch.iter_mut() {
                g.clear();
            }
            for &w in rec.iter() {
                let s = (w >> 2) & SECTOR_MASK;
                if w & ATOMIC_FLAG == 0 && cache.access(s) == Probe::Hit {
                    *hits += 1;
                    continue;
                }
                let (slice, local) = l2.slice_and_local(s);
                scratch[slice].push((w & seq_mask_hi) | (local << 2));
            }
            rec.clear();
            runs[0] = 0;
            for (slice, g) in scratch.iter().enumerate() {
                rec.extend_from_slice(g);
                runs[slice + 1] = rec.len();
            }
        };
        if parallel {
            let chunk = chunk_len(sms, workers);
            std::thread::scope(|scope| {
                for (((l1c, recc), runsc), hitc) in l1
                    .chunks_mut(chunk)
                    .zip(arena.rec.chunks_mut(chunk))
                    .zip(arena.runs.chunks_mut(chunk * (num_slices + 1)))
                    .zip(l1_hits.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); num_slices];
                        for (i, cache) in l1c.iter_mut().enumerate() {
                            replay_one(
                                cache,
                                &mut recc[i],
                                &mut runsc[i * (num_slices + 1)..(i + 1) * (num_slices + 1)],
                                &mut hitc[i],
                                &mut scratch,
                            );
                        }
                    });
                }
            });
        } else {
            let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); num_slices];
            for (sm, cache) in l1.iter_mut().enumerate() {
                replay_one(
                    cache,
                    &mut arena.rec[sm],
                    &mut arena.runs[sm * (num_slices + 1)..(sm + 1) * (num_slices + 1)],
                    &mut l1_hits[sm],
                    &mut scratch,
                );
            }
        }
    }

    // ---- pass 2: L2 replay, one worker chunk per group of slices ----
    let l2_probes = arena.total_ops() as u64;
    let mut slice_counts: Vec<(u64, u64)> = vec![(0, 0); num_slices * sms];
    {
        let l2 = &mut caches.l2;
        let rec = &arena.rec;
        let run_bounds = &arena.runs;
        // Pack (seq, sm) into one sortable key: stamps are globally unique,
        // so the low sm bits never decide an ordering.
        let sm_bits = usize::BITS - sms.saturating_sub(1).leading_zeros();
        let sm_mask = (1u64 << sm_bits) - 1;
        let replay_slice = |cache: &mut SectorCache, slice: usize, counts: &mut [(u64, u64)]| {
            let mut runs: Vec<(usize, &[u64])> = Vec::with_capacity(sms);
            let mut n = 0usize;
            let mut min_seq = u64::MAX;
            let mut max_seq = 0u64;
            for (sm, stream) in rec.iter().enumerate() {
                let b = sm * (num_slices + 1) + slice;
                let seg = &stream[run_bounds[b]..run_bounds[b + 1]];
                if let (Some(&first), Some(&last)) = (seg.first(), seg.last()) {
                    n += seg.len();
                    min_seq = min_seq.min(first >> SEQ_SHIFT);
                    max_seq = max_seq.max(last >> SEQ_SHIFT);
                    runs.push((sm, seg));
                }
            }
            if runs.is_empty() {
                return;
            }
            if let [(sm, seg)] = runs[..] {
                // single contributing SM: the run already is global order
                let mut h = 0u64;
                for &w in seg {
                    if cache.access((w >> 2) & SECTOR_MASK) == Probe::Hit {
                        h += 1;
                    }
                }
                counts[sm].0 += h;
                counts[sm].1 += seg.len() as u64 - h;
                return;
            }
            // Dense-seq counting merge: stamps are dense per kernel, so
            // scatter the runs into ~1-probe-wide seq buckets (count,
            // prefix-sum, place), sort the rare multi-entry bucket, and
            // sweep in ascending-seq order — O(n) instead of per-probe
            // heap churn.
            let buckets = n;
            let width = (max_seq - min_seq + 1).div_ceil(buckets as u64).max(1);
            let mut offsets = vec![0usize; buckets + 1];
            for &(_, seg) in &runs {
                for &w in seg {
                    offsets[(((w >> SEQ_SHIFT) - min_seq) / width) as usize + 1] += 1;
                }
            }
            for i in 1..=buckets {
                offsets[i] += offsets[i - 1];
            }
            let mut cursor = offsets[..buckets].to_vec();
            let mut pairs = vec![(0u64, 0u64); n];
            for &(sm, seg) in &runs {
                for &w in seg {
                    let q = w >> SEQ_SHIFT;
                    let b = ((q - min_seq) / width) as usize;
                    pairs[cursor[b]] = ((q << sm_bits) | sm as u64, (w >> 2) & SECTOR_MASK);
                    cursor[b] += 1;
                }
            }
            for b in 0..buckets {
                let seg = &mut pairs[offsets[b]..offsets[b + 1]];
                if seg.len() > 1 {
                    seg.sort_unstable();
                }
                for &(key, local) in seg.iter() {
                    let c = &mut counts[(key & sm_mask) as usize];
                    if cache.access(local) == Probe::Hit {
                        c.0 += 1;
                    } else {
                        c.1 += 1;
                    }
                }
            }
        };
        let slices = l2.slices_mut();
        if parallel {
            let chunk = chunk_len(num_slices, workers);
            std::thread::scope(|scope| {
                for (ci, (slice_chunk, count_chunk)) in slices
                    .chunks_mut(chunk)
                    .zip(slice_counts.chunks_mut(chunk * sms))
                    .enumerate()
                {
                    scope.spawn(move || {
                        for (i, cache) in slice_chunk.iter_mut().enumerate() {
                            replay_slice(
                                cache,
                                ci * chunk + i,
                                &mut count_chunk[i * sms..(i + 1) * sms],
                            );
                        }
                    });
                }
            });
        } else {
            for (slice, cache) in slices.iter_mut().enumerate() {
                replay_slice(
                    cache,
                    slice,
                    &mut slice_counts[slice * sms..(slice + 1) * sms],
                );
            }
        }
    }

    // ---- pass 3: merge in fixed SM-major order ----
    for (sm, c) in per_sm.iter_mut().enumerate() {
        c.l1_hits += l1_hits[sm];
        for slice in 0..num_slices {
            let (h, m) = slice_counts[slice * sms + sm];
            c.l2_hits += h;
            c.dram_sectors += m;
        }
    }

    (
        total_ops as u64,
        l2_probes,
        parallel,
        arena.reserved_bytes(),
    )
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
        k.exec_uniform(0, 1000);
        let r1 = k.finish();
        let mut k = d.launch("compute");
        k.exec_uniform(0, 2000);
        let r2 = k.finish();
        assert!(r2.cycles > r1.cycles);
    }

    #[test]
    fn coalesced_access_touches_one_sector() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8 consecutive u32s = 32 bytes = 1 sector
        let addrs: Vec<u64> = (0..8).map(|i| 1024 + i * 4).collect();
        k.access(0, AccessKind::Read, &addrs, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 1);
    }

    #[test]
    fn scattered_access_touches_many_sectors() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8 addresses 1 KiB apart: 8 sectors
        let addrs: Vec<u64> = (0..8).map(|i| 1024 + i * 1024).collect();
        k.access(0, AccessKind::Read, &addrs, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 8);
    }

    #[test]
    fn element_straddling_sector_boundary_costs_two() {
        let mut d = dev();
        let mut k = d.launch("mem");
        // 8-byte element at offset 28 straddles sectors 0 and 1
        k.access(0, AccessKind::Read, &[28], 8);
        let _ = k.finish();
        assert_eq!(d.profiler().total_sectors(), 2);
    }

    #[test]
    fn repeated_access_hits_cache_and_is_cheaper() {
        let mut d = dev();
        // 8 consecutive lines spread across all 4 L1 sets (2 per set).
        let addrs: Vec<u64> = (0..8).map(|i| 4096 + i * 128).collect();
        let mut k = d.launch("cold");
        k.access(0, AccessKind::Read, &addrs, 4);
        let cold = k.finish();
        let mut k = d.launch("warm");
        k.access(0, AccessKind::Read, &addrs, 4);
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
                k.access(0, AccessKind::Read, &[(1 << 20) | (i * 4096)], 4);
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
            k.exec_uniform(sm, 1000);
        }
        let b = k.finish();

        let mut skewed = dev();
        let mut k = skewed.launch("skew");
        k.exec_uniform(0, 4000);
        let s = k.finish();

        assert!(s.cycles > b.cycles);
        assert!(s.sm_imbalance() >= b.sm_imbalance());
    }

    #[test]
    fn atomics_conflicts_serialize() {
        let mut d = dev();
        let mut k = d.launch("atomic");
        let same = vec![64u64; 8];
        k.atomic(0, &same);
        let conflicted = k.finish();

        let mut d2 = dev();
        let mut k = d2.launch("atomic");
        let distinct: Vec<u64> = (0..8).map(|i| 64 + i * 64).collect();
        k.atomic(0, &distinct);
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
        k.access(0, AccessKind::Read, &[base, base + 4096], 4);
        let r = k.finish();
        assert!(r.pcie_bytes > 0);
        assert_eq!(d.profiler().total_sectors(), 0, "host traffic skips caches");
        assert!(d.profiler().pcie_bytes > 0);
    }

    #[test]
    fn syncs_add_cost() {
        let mut d = dev();
        let mut k = d.launch("sync");
        k.exec_uniform(0, 10);
        for _ in 0..100 {
            k.sync(0);
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
        k.exec(0, 10, 2, 8);
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
                k.access_range(0, AccessKind::Read, base, count, 4);
            } else {
                let addrs: Vec<u64> = (0..count).map(|i| base + i * 4).collect();
                for chunk in addrs.chunks(warp) {
                    k.access(0, AccessKind::Read, chunk, 4);
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
        k.access_range(0, AccessKind::Read, base, 1024, 4);
        let r = k.finish();
        assert!(r.pcie_bytes > 0);
        // the whole contiguous range is one streaming DMA request
        assert_eq!(d.profiler().pcie_requests, 1);
    }

    #[test]
    fn empty_access_range_is_free() {
        let mut d = dev();
        let mut k = d.launch("empty_range");
        k.access_range(0, AccessKind::Read, 4096, 0, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().mem_requests, 0);
    }

    #[test]
    fn access_range_write_counts_write_sectors() {
        let mut d = dev();
        let mut k = d.launch("wr_range");
        k.access_range(0, AccessKind::Write, 4096, 64, 4);
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
                k.access(sm, AccessKind::Read, &addrs, 4);
                k.access_range(sm, AccessKind::Write, 65536 + sm as u64 * 512, 200, 4);
                let at: Vec<u64> = (0..8).map(|i| 128 * ((i * 7 + sm as u64) % 5)).collect();
                k.atomic(sm, &at);
                // re-touch the same addresses: exercises warm L1/L2 state
                k.access(sm, AccessKind::Read, &addrs, 4);
                k.sync(sm);
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
            d.elapsed_cycles().to_bits(),
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
            k.access_range(0, AccessKind::Read, base, 512, 4);
            k.access(1, AccessKind::Read, &[4096, base + 32], 4);
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
    fn kernel_report_carries_host_thread_budget() {
        let mut d = dev();
        d.set_host_threads(3);
        let mut k = d.launch("budget");
        k.exec_uniform(0, 10);
        let r = k.finish();
        assert_eq!(r.host_threads, 3);
        assert!(r.host_seconds >= 0.0);
        d.set_host_threads(1);
        let r = d.launch("seq").finish();
        assert_eq!(r.host_threads, 1);
    }

    #[test]
    fn shard_handle_charges_its_bound_sm() {
        let mut d = dev();
        let mut k = d.launch("shard");
        {
            let mut sh = k.shard(2);
            assert_eq!(sh.sm(), 2);
            sh.exec_uniform(5);
            sh.access(AccessKind::Read, &[4096], 4);
            sh.access_range(AccessKind::Write, 8192, 32, 4);
            let at = vec![64u64, 64];
            sh.atomic(&at);
            sh.sync();
        }
        let r = k.finish();
        assert_eq!(r.active_sms, 1);
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
            let mut d = dev();
            d.set_sanitize(sanitize);
            d.set_host_threads(threads);
            let mut k = d.launch("ordered");
            // per-SM disjoint writes + atomics + a grid-sync'd cross-SM pass
            for sm in 0..4 {
                k.access_range(sm, AccessKind::Write, 4096 + sm as u64 * 256, 64, 4);
                k.atomic(sm, &[1 << 14]);
                k.sync(sm);
            }
            k.grid_sync();
            for sm in 0..4 {
                k.access(sm, AccessKind::Read, &[4096, 4160, 4224], 4);
            }
            // dirty writes race by design but are exempt
            k.access_dirty(0, &[1 << 15], 4);
            k.access_dirty(1, &[1 << 15], 4);
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
        k.access(0, AccessKind::Write, &[8192], 4);
        k.access(2, AccessKind::Read, &[8192], 4);
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
        k.mma(0, 1000);
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
                k.mma(sm, 10 + sm as u64);
                k.access_range(sm, AccessKind::Read, 4096 + sm as u64 * 512, 64, 4);
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
        k.mma(0, 0);
        let r = k.finish();
        assert_eq!(r.active_sms, 0);
        assert_eq!(d.profiler().mma_ops, 0);
    }

    /// A workload mixing streaming-region reads, cached reads, writes into
    /// the streaming region, and atomics, run three kernels deep so cache
    /// state carries across launches (and, finished with
    /// [`Kernel::finish_async`], across the record/replay overlap). Returns
    /// every simulated observable as exact bits plus the elided-probe count.
    fn streaming_workload(threads: usize, deferred: bool) -> (Vec<u64>, u64) {
        let mut d = dev();
        d.set_host_threads(threads);
        d.set_replay_gate(1); // every traced kernel goes sharded
        let base = 1u64 << 20;
        // 4 KiB >= test_tiny's 2 KiB L2 way capacity -> registered
        d.mark_streaming(base, 4096);
        assert_eq!(d.streaming_region_count(), 1);
        for round in 0..3u64 {
            let mut k = d.launch("stream");
            for sm in 0..4 {
                let off = (sm as u64 * 1024 + round * 256) % 3072;
                k.access_range(sm, AccessKind::Read, base + off, 200, 4);
                k.access_range(sm, AccessKind::Read, 4096 + sm as u64 * 512, 64, 4);
                k.access(sm, AccessKind::Write, &[base + sm as u64 * 64], 4);
                k.atomic(sm, &[512 * (1 + sm as u64)]);
            }
            if deferred {
                k.finish_async();
            } else {
                let _ = k.finish();
            }
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
            d.elapsed_cycles().to_bits(),
            l2h,
            l2sm,
            l2lm,
        ];
        let elided = d.replay_stats().elided_probes;
        (counters, elided)
    }

    #[test]
    fn elision_and_async_replay_are_bitwise_invisible() {
        // threads=1: sequential backend, no tracing at all — the reference.
        let (reference, e0) = streaming_workload(1, true);
        assert_eq!(e0, 0, "sequential kernels never elide (nothing is traced)");
        for threads in [2, 4] {
            for deferred in [false, true] {
                let (got, elided) = streaming_workload(threads, deferred);
                assert_eq!(
                    got, reference,
                    "threads={threads} finish_async={deferred} diverged"
                );
                assert!(elided > 0, "traced runs elide streaming reads");
            }
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
        k.access_range(0, AccessKind::Read, base, 64, 4);
        k.access_range(0, AccessKind::Read, base, 64, 4);
        let _ = k.finish();
        assert_eq!(d.profiler().l1_hit_sectors, 0);
        assert_eq!(d.profiler().l2_hit_sectors, 0);
        assert_eq!(d.profiler().dram_sectors, 16);
    }

    #[test]
    fn async_replay_joins_at_observable_reads() {
        let mut d = dev();
        d.set_host_threads(4);
        d.set_replay_gate(1);
        let mut k = d.launch("async");
        for sm in 0..4 {
            k.access_range(sm, AccessKind::Read, 4096 + sm as u64 * 4096, 256, 4);
        }
        k.finish_async();
        // The join barrier must surface the kernel's full charge.
        assert!(d.elapsed_cycles() > 0.0);
        assert_eq!(d.profiler().kernels, 1);
        assert_eq!(d.replay_stats().traced_kernels, 1);
        let bd = d.kernel_breakdown();
        assert_eq!(bd.len(), 1);
        assert_eq!(bd[0].1, 1);
    }

    #[test]
    fn concurrency_clamped_to_device_limits() {
        let mut d = dev();
        let mut k = d.launch("clamp");
        k.set_concurrency(1e9);
        assert_eq!(k.concurrency(), 8.0);
        k.set_concurrency(0.0);
        assert_eq!(k.concurrency(), 1.0);
        let _ = k.finish();
    }
}
