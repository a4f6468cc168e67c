//! The simulated device: configuration, caches, allocators, clock, profiler.

use crate::cache::{Probe, SectorCache, SlicedCache};
use crate::config::DeviceConfig;
use crate::kernel::{Kernel, ReplayDone};
use crate::mem::{Allocator, DeviceArray, MemSpace};
use crate::profile::{Profiler, ReplayStats};
use crate::sanitizer::{Hazard, HazardReport};
use crate::trace::TraceArena;
use std::collections::HashMap;
use std::thread::JoinHandle;

/// Resolve the sanitizer switch: the `SAGE_SANITIZE` environment variable
/// overrides [`DeviceConfig::sanitize`] when set (`0` / `false` / `off` /
/// `no` / empty disable, anything else enables).
#[must_use]
pub fn default_sanitize(cfg_default: bool) -> bool {
    match std::env::var("SAGE_SANITIZE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "false" | "off" | "no"
        ),
        Err(_) => cfg_default,
    }
}

/// Probe-count crossover of the trace/replay backend: traced kernels
/// recording fewer probes replay inline on the calling thread (spawning
/// shard workers would cost more than the replay itself); at or above it
/// they replay on SM-sharded workers, on a background thread when finished
/// with [`Kernel::finish_async`]. Host-side only: simulated results are
/// bitwise identical on either side of the gate.
pub const REPLAY_GATE: usize = 8_192;

/// Resolve the default host-thread count for kernel simulation:
/// `SAGE_HOST_THREADS` when set, otherwise the machine's available
/// parallelism, clamped to `[1, num_sms]` (one shard per SM is the finest
/// useful partition).
#[must_use]
pub fn default_host_threads(num_sms: usize) -> usize {
    let requested = std::env::var("SAGE_HOST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
    requested.clamp(1, num_sms.max(1))
}

/// One simulated GPU.
///
/// Owns the cache hierarchy and the simulated clock. Engines allocate their
/// arrays through [`Device::alloc_array`], launch [`Kernel`]s to account
/// work, and read the elapsed simulated time at the end of a run.
pub struct Device {
    cfg: DeviceConfig,
    device_alloc: Allocator,
    host_alloc: Allocator,
    l1: Vec<SectorCache>,
    l2: SlicedCache,
    l2_slices: usize,
    profiler: Profiler,
    elapsed_cycles: f64,
    kernel_times: HashMap<String, (u64, f64)>,
    host_threads: usize,
    sanitize: bool,
    hazards: Vec<Hazard>,
    replay_gate: usize,
    /// Half-open streaming regions in sector units: reads landing inside are
    /// charged as compulsory DRAM misses and never probe the caches.
    streaming: Vec<(u64, u64)>,
    /// Double-buffered trace arenas: one can ride an in-flight async replay
    /// while the next kernel records into the other.
    arena_pool: Vec<TraceArena>,
    /// The in-flight asynchronous replay and its kernel's name, if any.
    /// Joined (and its results applied, in launch order) before any
    /// observable state is read.
    pending: Option<(String, JoinHandle<ReplayDone>)>,
    replay_stats: ReplayStats,
}

/// The cache hierarchy a replay mutates, moved out of the device for the
/// duration of one (possibly asynchronous) replay and installed back when it
/// completes. Taking it joins any in-flight replay first, so replays apply
/// in launch order.
pub(crate) struct ReplayCaches {
    /// Per-SM private L1s.
    pub(crate) l1: Vec<SectorCache>,
    /// The shared sliced L2.
    pub(crate) l2: SlicedCache,
}

impl Device {
    /// Build a device from its configuration.
    ///
    /// # Panics
    /// Panics unless `sector_bytes` and `line_bytes` are powers of two with
    /// `line_bytes / sector_bytes` in 1..=32: the cache hierarchy indexes
    /// sectors and lines by shift and mask.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Self {
        assert!(
            cfg.sector_bytes.is_power_of_two(),
            "sector_bytes must be a power of two, got {}",
            cfg.sector_bytes
        );
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line_bytes must be a power of two, got {}",
            cfg.line_bytes
        );
        assert!(
            cfg.line_bytes >= cfg.sector_bytes && cfg.line_bytes / cfg.sector_bytes <= 32,
            "line_bytes / sector_bytes must be in 1..=32, got {} / {}",
            cfg.line_bytes,
            cfg.sector_bytes
        );
        let spl = cfg.sectors_per_line();
        let l1 = (0..cfg.num_sms)
            .map(|_| SectorCache::new(cfg.l1.lines(cfg.line_bytes), cfg.l1.ways, spl))
            .collect();
        let l2 = SlicedCache::new(cfg.l2.lines(cfg.line_bytes), cfg.l2.ways, spl);
        let l2_slices = l2.num_slices();
        let host_threads = default_host_threads(cfg.num_sms);
        let sanitize = default_sanitize(cfg.sanitize);
        Self {
            device_alloc: Allocator::new(MemSpace::Device),
            host_alloc: Allocator::new(MemSpace::Host),
            l1,
            l2,
            l2_slices,
            profiler: Profiler::default(),
            elapsed_cycles: 0.0,
            kernel_times: HashMap::new(),
            host_threads,
            sanitize,
            hazards: Vec::new(),
            replay_gate: REPLAY_GATE,
            streaming: Vec::new(),
            arena_pool: vec![TraceArena::default(), TraceArena::default()],
            pending: None,
            replay_stats: ReplayStats::default(),
            cfg,
        }
    }

    /// Whether kernels launched on this device run under the race sanitizer.
    #[must_use]
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Turn the race sanitizer on or off for subsequent kernel launches.
    /// Sanitized runs produce bitwise-identical cycles and counters — the
    /// switch only controls hazard detection.
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Hazards every sanitized kernel on this device has reported so far,
    /// in launch order.
    #[must_use]
    pub fn hazards(&self) -> &[Hazard] {
        &self.hazards
    }

    /// Number of hazards recorded so far (snapshot this before a run to
    /// attribute the run's delta).
    #[must_use]
    pub fn hazard_count(&self) -> usize {
        self.hazards.len()
    }

    /// Drop all recorded hazards.
    pub fn clear_hazards(&mut self) {
        self.hazards.clear();
    }

    pub(crate) fn record_hazards(&mut self, report: &HazardReport) {
        self.hazards.extend(report.hazards.iter().cloned());
    }

    /// Host threads kernel simulation may use (1 = sequential execution).
    #[must_use]
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Set the host-thread budget for kernel simulation. Clamped to
    /// `[1, num_sms]`; 1 selects the direct sequential path, anything above
    /// routes kernels through the SM-sharded trace/replay backend. Either
    /// way the simulated results are bitwise identical.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.sync_replay();
        self.host_threads = threads.clamp(1, self.cfg.num_sms.max(1));
    }

    /// Current inline-vs-sharded replay crossover, in recorded probes.
    #[must_use]
    pub fn replay_gate(&self) -> usize {
        self.replay_gate
    }

    /// Move the replay crossover for subsequent launches (floored at 1 so a
    /// traced kernel with zero probes never spawns workers) — the seam tests
    /// use to force small kernels onto the sharded, asynchronous route.
    /// Simulated results are identical on either side of the gate; this
    /// only moves where host wall-clock is spent.
    pub fn set_replay_gate(&mut self, gate: usize) {
        self.replay_gate = gate.max(1);
    }

    /// Host-side trace/replay telemetry accumulated since construction (or
    /// the last [`Self::reset_profiler`]). Joins any in-flight async replay.
    pub fn replay_stats(&mut self) -> &ReplayStats {
        self.sync_replay();
        &self.replay_stats
    }

    /// Register `[base, base + bytes)` as a single-touch streaming region —
    /// a range scanned at most once per kernel with no expectation of reuse
    /// (CSR adjacency arrays are the canonical case). Regions smaller than
    /// one L2 way (`l2.capacity_bytes / l2.ways`) are ignored: they could
    /// plausibly stay resident, so their probes keep full cache semantics.
    /// Reads inside a registered region model `ld.global.cs` no-allocate
    /// loads: they bypass L1 and L2 on every backend and are charged as
    /// compulsory DRAM misses at record time, which is what makes them
    /// order-insensitive and keeps them out of the replay streams. Writes
    /// are unaffected.
    pub fn mark_streaming(&mut self, base: u64, bytes: u64) {
        let way_bytes = ((self.cfg.l2.capacity_bytes / self.cfg.l2.ways.max(1)).max(1)) as u64;
        if bytes < way_bytes {
            return;
        }
        let sector = (self.cfg.sector_bytes.max(1)) as u64;
        self.streaming
            .push((base / sector, (base + bytes).div_ceil(sector)));
    }

    /// Number of registered streaming regions (telemetry/tests).
    #[must_use]
    pub fn streaming_region_count(&self) -> usize {
        self.streaming.len()
    }

    /// Whether `sector` falls in a registered streaming region. Graphs
    /// register a handful of regions, so a linear scan beats any index.
    #[inline]
    pub(crate) fn is_streaming_sector(&self, sector: u64) -> bool {
        self.streaming
            .iter()
            .any(|&(lo, hi)| sector >= lo && sector < hi)
    }

    /// Whether `bytes` of graph data fit the simulated device memory next
    /// to what is already allocated — the placement predicate out-of-core
    /// routing uses.
    #[must_use]
    pub fn fits_device_memory(&self, bytes: u64) -> bool {
        self.device_alloc.used_bytes().saturating_add(bytes) <= self.cfg.memory_bytes
    }

    /// Take a trace arena for one traced launch, sized for the current SM
    /// and L2-slice geometry with every stream empty. The pool is
    /// double-buffered so one arena can sit in an in-flight async replay
    /// while the next kernel records into the other; when both are out the
    /// in-flight replay is joined first. Returned via
    /// [`Self::return_trace_arena`] so grown capacity is reused.
    pub(crate) fn take_trace_arena(&mut self) -> TraceArena {
        // sage-lint: allow(replay-join) — pool emptiness IS the join condition: both arenas out means one is held by the in-flight replay, and the branch below joins it before popping
        if self.arena_pool.is_empty() {
            self.sync_replay();
        }
        let mut arena = self.arena_pool.pop().unwrap_or_default();
        arena.reset(self.cfg.num_sms, self.l2_slices);
        arena
    }

    /// Give an arena back after replay (capacity is retained).
    pub(crate) fn return_trace_arena(&mut self, arena: TraceArena) {
        self.arena_pool.push(arena);
    }

    /// Account one traced-kernel replay in [`Self::replay_stats`].
    pub(crate) fn note_replay(
        &mut self,
        recorded: u64,
        elided: u64,
        l2: u64,
        parallel: bool,
        arena_bytes: u64,
    ) {
        let s = &mut self.replay_stats;
        s.traced_kernels += 1;
        s.recorded_probes += recorded;
        s.elided_probes += elided;
        s.l2_probes += l2;
        if parallel {
            s.parallel_replays += 1;
        } else {
            s.inline_replays += 1;
        }
        s.arena_bytes = s.arena_bytes.max(arena_bytes);
    }

    /// Move the cache hierarchy out for one replay, joining any replay
    /// already in flight first (launch-order discipline: kernel N's probes
    /// must land in the caches before kernel N+1's replay reads them).
    pub(crate) fn take_replay_caches(&mut self) -> ReplayCaches {
        self.sync_replay();
        ReplayCaches {
            l1: std::mem::take(&mut self.l1),
            l2: std::mem::replace(&mut self.l2, SlicedCache::new(1, 1, 1)),
        }
    }

    /// Install the cache hierarchy back after a replay completed.
    pub(crate) fn install_replay_caches(&mut self, caches: ReplayCaches) {
        self.l1 = caches.l1;
        self.l2 = caches.l2;
    }

    /// Park an asynchronous replay of kernel `name`. At most one may be in
    /// flight; callers go through [`Self::take_replay_caches`] first, which
    /// joins any previous one.
    pub(crate) fn set_pending_replay(&mut self, name: String, handle: JoinHandle<ReplayDone>) {
        debug_assert!(
            self.pending.is_none(),
            "only one async replay may be in flight"
        );
        self.pending = Some((name, handle));
    }

    /// Deterministic join barrier: wait for the in-flight async replay (if
    /// any) and apply its results — caches, profiler charge, clock, replay
    /// telemetry — exactly as the synchronous path would have. Every
    /// observable read on the device funnels through here, so async replay
    /// is invisible to simulated results.
    ///
    /// # Panics
    /// Re-raises a panic of the replay thread, naming the kernel it was
    /// replaying.
    pub(crate) fn sync_replay(&mut self) {
        if let Some((name, handle)) = self.pending.take() {
            match handle.join() {
                Ok(done) => {
                    done.apply(self);
                }
                Err(payload) => {
                    let cause = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    panic!("async replay of kernel `{name}` panicked: {cause}");
                }
            }
        }
    }

    /// A default-configured device (Quadro RTX 8000).
    #[must_use]
    pub fn default_device() -> Self {
        Self::new(DeviceConfig::default())
    }

    /// The device configuration.
    #[must_use]
    pub fn cfg(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocate a device-memory array.
    pub fn alloc_array<T: Clone>(&mut self, len: usize, fill: T) -> DeviceArray<T> {
        DeviceArray::new(&mut self.device_alloc, len, fill)
    }

    /// Allocate a device-memory array from existing data.
    pub fn alloc_from_vec<T: Clone>(&mut self, data: Vec<T>) -> DeviceArray<T> {
        DeviceArray::from_vec(&mut self.device_alloc, data)
    }

    /// Allocate a *host*-memory array (reads become PCIe traffic).
    pub fn alloc_host_array<T: Clone>(&mut self, len: usize, fill: T) -> DeviceArray<T> {
        DeviceArray::new(&mut self.host_alloc, len, fill)
    }

    /// Allocate a host-memory array from existing data.
    pub fn alloc_host_from_vec<T: Clone>(&mut self, data: Vec<T>) -> DeviceArray<T> {
        DeviceArray::from_vec(&mut self.host_alloc, data)
    }

    /// Device memory in use, bytes.
    #[must_use]
    pub fn device_bytes_used(&self) -> u64 {
        self.device_alloc.used_bytes()
    }

    /// Begin a kernel; report events on the returned handle, then call
    /// [`Kernel::finish`].
    pub fn launch(&mut self, name: &str) -> Kernel<'_> {
        Kernel::new(self, name)
    }

    /// Probe one sector through L1(sm) then L2, filling on the way.
    /// Returns `(l1_probe, l2_probe_if_missed_l1)`. Only the sequential
    /// (1-host-thread) backend probes inline, and sequential kernels can
    /// never coexist with an in-flight async replay — assert that.
    pub(crate) fn probe_memory(&mut self, sm: usize, sector: u64) -> (Probe, Option<Probe>) {
        debug_assert!(
            self.pending.is_none(),
            "inline probe with a replay in flight"
        );
        // sage-lint: allow(replay-join) — inline probes run only on the sequential backend, which never launches an async replay; the debug_assert above enforces exactly that
        let p1 = self.l1[sm].access(sector);
        if p1 == Probe::Hit {
            (p1, None)
        } else {
            let p2 = self.l2.access(sector);
            (p1, Some(p2))
        }
    }

    /// Probe L2 directly (atomics resolve in L2).
    pub(crate) fn probe_l2_only(&mut self, sector: u64) -> Probe {
        debug_assert!(
            self.pending.is_none(),
            "inline probe with a replay in flight"
        );
        // sage-lint: allow(replay-join) — inline probes run only on the sequential backend, which never launches an async replay; the debug_assert above enforces exactly that
        self.l2.access(sector)
    }

    pub(crate) fn charge(&mut self, totals: &Profiler, cycles: f64) {
        self.profiler.merge(totals);
        self.elapsed_cycles += cycles;
    }

    pub(crate) fn charge_named(&mut self, name: &str, cycles: f64) {
        let e = self.kernel_times.entry(name.to_owned()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += cycles;
    }

    /// Per-kernel-name `(launches, seconds)` breakdown, sorted by time
    /// descending — the where-did-the-time-go view a profiler gives.
    /// Joins any in-flight async replay.
    pub fn kernel_breakdown(&mut self) -> Vec<(String, u64, f64)> {
        self.sync_replay();
        let mut v: Vec<(String, u64, f64)> = self
            .kernel_times
            // sage-lint: allow(hash-iter) — the collected Vec is fully sorted by time on the next line, so map visit order cannot reach the output
            .iter()
            .map(|(k, &(n, c))| (k.clone(), n, self.cfg.cycles_to_seconds(c)))
            .collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    /// Advance the simulated clock by host-side seconds (PCIe transfers,
    /// peer synchronisation, CPU work overlapping nothing). Joins any
    /// in-flight async replay first so clock additions keep launch order
    /// (floating-point accumulation order is observable bitwise).
    pub fn advance_seconds(&mut self, seconds: f64) {
        self.sync_replay();
        self.elapsed_cycles += seconds * self.cfg.clock_hz;
    }

    /// Simulated time elapsed since construction or the last
    /// [`Self::reset_clock`]. Joins any in-flight async replay.
    pub fn elapsed_seconds(&mut self) -> f64 {
        self.sync_replay();
        self.cfg.cycles_to_seconds(self.elapsed_cycles)
    }

    /// Simulated cycles elapsed. Joins any in-flight async replay.
    pub fn elapsed_cycles(&mut self) -> f64 {
        self.sync_replay();
        self.elapsed_cycles
    }

    /// Zero the clock (caches and profiler keep their state). Joins any
    /// in-flight async replay first so its cycles land before the reset.
    pub fn reset_clock(&mut self) {
        self.sync_replay();
        self.elapsed_cycles = 0.0;
    }

    /// Invalidate all caches (cold-start between unrelated runs). Joins any
    /// in-flight async replay first.
    pub fn flush_caches(&mut self) {
        self.sync_replay();
        for c in &mut self.l1 {
            c.flush();
        }
        self.l2.flush();
    }

    /// Aggregated profiler counters. Joins any in-flight async replay.
    pub fn profiler(&mut self) -> &Profiler {
        self.sync_replay();
        &self.profiler
    }

    /// Owned copy of the profiler counters at this instant — the form a
    /// monitoring layer ships off-thread as a per-device metrics sample.
    /// Joins any in-flight async replay.
    pub fn profiler_snapshot(&mut self) -> Profiler {
        self.sync_replay();
        self.profiler.clone()
    }

    /// Clear profiler counters (including the per-kernel breakdown and the
    /// trace/replay telemetry). Joins any in-flight async replay first.
    pub fn reset_profiler(&mut self) {
        self.sync_replay();
        self.profiler = Profiler::default();
        self.kernel_times.clear();
        self.replay_stats = ReplayStats::default();
    }

    /// Record peer-link traffic in the profiler (used by multi-GPU drivers).
    pub fn profiler_peer_bytes(&mut self, bytes: u64) {
        self.sync_replay();
        self.profiler.peer_bytes += bytes;
    }

    /// L2 hit/miss statistics `(hits, sector_misses, line_misses)`.
    /// Joins any in-flight async replay.
    pub fn l2_stats(&mut self) -> (u64, u64, u64) {
        self.sync_replay();
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccessKind;

    #[test]
    fn clock_accumulates_across_kernels() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        assert_eq!(d.elapsed_seconds(), 0.0);
        let k = d.launch("a");
        let r = k.finish();
        assert!((d.elapsed_cycles() - r.cycles).abs() < 1e-9);
        let k = d.launch("b");
        let r2 = k.finish();
        assert!((d.elapsed_cycles() - r.cycles - r2.cycles).abs() < 1e-9);
        d.reset_clock();
        assert_eq!(d.elapsed_cycles(), 0.0);
    }

    #[test]
    fn advance_seconds_moves_clock() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.advance_seconds(1e-6);
        assert!((d.elapsed_seconds() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn flush_caches_makes_next_access_cold() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("warm");
        k.access(0, AccessKind::Read, &[512], 4);
        k.access(0, AccessKind::Read, &[512], 4);
        let _ = k.finish();
        assert!(d.profiler().l1_hit_sectors > 0);
        d.flush_caches();
        d.reset_profiler();
        let mut k = d.launch("cold");
        k.access(0, AccessKind::Read, &[512], 4);
        let _ = k.finish();
        assert_eq!(d.profiler().l1_hit_sectors, 0);
        assert_eq!(d.profiler().dram_sectors, 1);
    }

    #[test]
    fn arrays_from_device_and_host_spaces() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let dv = d.alloc_array::<u32>(10, 0);
        let hv = d.alloc_host_array::<u32>(10, 0);
        assert!(!crate::mem::is_host_addr(dv.addr(0)));
        assert!(crate::mem::is_host_addr(hv.addr(0)));
        assert!(d.device_bytes_used() >= 40);
    }

    #[test]
    fn kernel_breakdown_tracks_names() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        for _ in 0..3 {
            let mut k = d.launch("expand");
            k.exec_uniform(0, 100);
            let _ = k.finish();
        }
        let k = d.launch("contract");
        let _ = k.finish();
        let bd = d.kernel_breakdown();
        assert_eq!(bd.len(), 2);
        let expand = bd.iter().find(|(n, _, _)| n == "expand").unwrap();
        assert_eq!(expand.1, 3);
        assert!(expand.2 > 0.0);
        d.reset_profiler();
        assert!(d.kernel_breakdown().is_empty());
    }

    #[test]
    fn replay_gate_defaults_to_const_and_clamps() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        assert_eq!(d.replay_gate(), REPLAY_GATE);
        d.set_replay_gate(0);
        assert_eq!(d.replay_gate(), 1);
        d.set_replay_gate(123);
        assert_eq!(d.replay_gate(), 123);
    }

    #[test]
    fn traced_kernels_feed_replay_stats_and_reuse_arena() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.set_host_threads(4);
        for _ in 0..2 {
            let mut k = d.launch("traced");
            for sm in 0..4 {
                k.access_range(sm, AccessKind::Read, 4096 + sm as u64 * 4096, 256, 4);
            }
            let _ = k.finish();
        }
        let s = d.replay_stats().clone();
        assert_eq!(s.traced_kernels, 2);
        assert!(s.recorded_probes > 0);
        assert!(s.l2_probes > 0);
        assert!(s.arena_bytes > 0);
        assert_eq!(s.parallel_replays + s.inline_replays, 2);
        // sequential kernels bypass the trace path entirely
        d.set_host_threads(1);
        let _ = d.launch("seq").finish();
        assert_eq!(d.replay_stats().traced_kernels, 2);
        d.reset_profiler();
        assert_eq!(d.replay_stats(), &crate::profile::ReplayStats::default());
    }

    #[test]
    fn async_replay_panic_names_its_kernel() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.set_pending_replay(
            "sage_expand_tiles".to_owned(),
            std::thread::spawn(|| -> ReplayDone { panic!("replay worker fault") }),
        );
        let payload = catch_unwind(AssertUnwindSafe(|| d.elapsed_cycles()))
            .expect_err("the join barrier must re-raise the replay panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("re-raised with a formatted message");
        assert_eq!(
            msg,
            "async replay of kernel `sage_expand_tiles` panicked: replay worker fault"
        );
    }

    #[test]
    fn device_memory_placement_predicate() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let cap = d.cfg().memory_bytes;
        assert!(d.fits_device_memory(cap));
        assert!(!d.fits_device_memory(cap + 1));
        let _held = d.alloc_array::<u32>(1024, 0); // 4 KiB now in use
        assert!(!d.fits_device_memory(cap - 1024));
    }

    #[test]
    fn separate_l1_per_sm() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("l1");
        k.access(0, AccessKind::Read, &[512], 4);
        // Same sector from another SM: misses its own L1, hits shared L2.
        k.access(1, AccessKind::Read, &[512], 4);
        let _ = k.finish();
        assert_eq!(d.profiler().l2_hit_sectors, 1);
        assert_eq!(d.profiler().dram_sectors, 1);
    }

    #[test]
    #[should_panic(expected = "sector_bytes must be a power of two")]
    fn non_power_of_two_sector_bytes_panics() {
        let _ = Device::new(DeviceConfig {
            sector_bytes: 24,
            line_bytes: 96,
            ..DeviceConfig::test_tiny()
        });
    }

    #[test]
    #[should_panic(expected = "line_bytes must be a power of two")]
    fn non_power_of_two_line_bytes_panics() {
        let _ = Device::new(DeviceConfig {
            line_bytes: 96,
            ..DeviceConfig::test_tiny()
        });
    }

    #[test]
    #[should_panic(expected = "line_bytes / sector_bytes must be in 1..=32")]
    fn line_narrower_than_sector_panics() {
        let _ = Device::new(DeviceConfig {
            line_bytes: 16,
            ..DeviceConfig::test_tiny()
        });
    }

    #[test]
    #[should_panic(expected = "line_bytes / sector_bytes must be in 1..=32")]
    fn more_than_32_sectors_per_line_panics() {
        let _ = Device::new(DeviceConfig {
            line_bytes: 2048,
            ..DeviceConfig::test_tiny()
        });
    }
}
