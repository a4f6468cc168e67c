//! The simulated device: configuration, caches, allocators, clock, profiler.

use crate::cache::{Probe, SectorCache};
use crate::config::DeviceConfig;
use crate::kernel::Kernel;
use crate::mem::{Allocator, DeviceArray, MemSpace};
use crate::profile::{Profiler, ReplayStats};
use crate::sanitizer::{Hazard, HazardReport};
use std::collections::HashMap;

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
    l2: SectorCache,
    profiler: Profiler,
    elapsed_cycles: f64,
    /// Scheduling-overhead cycles within `elapsed_cycles` (kept outside the
    /// profiler, like the clock).
    overhead_cycles: f64,
    kernel_times: HashMap<String, (u64, f64)>,
    host_threads: usize,
    hazards: Vec<Hazard>,
    /// Half-open streaming regions in sector units: reads landing inside are
    /// charged as compulsory DRAM misses and never probe the caches.
    streaming: Vec<(u64, u64)>,
    /// The packed probe trace recorded kernels borrow (capacity is kept
    /// across launches).
    trace: Vec<u64>,
    replay_stats: ReplayStats,
}

impl Device {
    /// Build a device from its configuration.
    ///
    /// # Panics
    /// Panics unless `sector_bytes` and `line_bytes` are powers of two with
    /// `line_bytes / sector_bytes` in 1..=32: the cache hierarchy indexes
    /// sectors and lines by shift and mask. Panics too when `num_sms`
    /// exceeds the SM field of a packed probe word (2^29).
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Self {
        assert!(
            cfg.num_sms <= crate::trace::MAX_SMS,
            "num_sms must fit the packed probe word's SM field (at most {}), got {}",
            crate::trace::MAX_SMS,
            cfg.num_sms
        );
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
        let l2 = SectorCache::new(cfg.l2.lines(cfg.line_bytes), cfg.l2.ways, spl);
        Self {
            device_alloc: Allocator::new(MemSpace::Device),
            host_alloc: Allocator::new(MemSpace::Host),
            l1,
            l2,
            profiler: Profiler::default(),
            elapsed_cycles: 0.0,
            overhead_cycles: 0.0,
            kernel_times: HashMap::new(),
            host_threads: 1,
            hazards: Vec::new(),
            streaming: Vec::new(),
            trace: Vec::new(),
            replay_stats: ReplayStats::default(),
            cfg,
        }
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

    pub(crate) fn record_hazards(&mut self, report: &HazardReport) {
        self.hazards.extend(report.hazards.iter().cloned());
    }

    /// The host-thread setting: 1 (the default) selects the direct route,
    /// anything above selects the recorded route.
    #[must_use]
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Choose the route subsequent kernels take. Clamped to
    /// `[1, num_sms]`; 1 probes the caches at each access, anything above
    /// records each probe into a trace that [`Kernel::finish`] replays in
    /// program order. Both routes run on the calling thread and give
    /// bitwise-identical simulated results; the setting keeps its name for
    /// the callers that pass a thread count.
    pub fn set_host_threads(&mut self, threads: usize) {
        self.host_threads = threads.clamp(1, self.cfg.num_sms.max(1));
    }

    /// Host-side telemetry of the recorded route, accumulated since
    /// construction (or the last [`Self::reset_profiler`]).
    #[must_use]
    pub fn replay_stats(&self) -> &ReplayStats {
        &self.replay_stats
    }

    /// Register `[base, base + bytes)` as a single-touch streaming region —
    /// a range scanned at most once per kernel with no expectation of reuse
    /// (CSR adjacency arrays are the canonical case). Regions smaller than
    /// one L2 way (`l2.capacity_bytes / l2.ways`) are ignored: they could
    /// plausibly stay resident, so their probes keep full cache semantics.
    /// Reads inside a registered region model `ld.global.cs` no-allocate
    /// loads: they bypass L1 and L2 on both routes and are charged as
    /// compulsory DRAM misses at the access, which keeps them out of the
    /// probe trace. Writes are unaffected.
    pub fn mark_streaming(&mut self, base: u64, bytes: u64) {
        let way_bytes = ((self.cfg.l2.capacity_bytes / self.cfg.l2.ways.max(1)).max(1)) as u64;
        if bytes < way_bytes {
            return;
        }
        let sector = (self.cfg.sector_bytes.max(1)) as u64;
        self.streaming
            .push((base / sector, (base + bytes).div_ceil(sector)));
    }

    /// Number of registered streaming regions.
    #[cfg(test)]
    pub(crate) fn streaming_region_count(&self) -> usize {
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

    /// Lend the probe trace to a recorded kernel, empty, with the capacity
    /// earlier launches grew. Given back through [`Self::return_trace`].
    pub(crate) fn take_trace(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.trace)
    }

    /// Take the probe trace back after replay, keeping its capacity.
    pub(crate) fn return_trace(&mut self, mut trace: Vec<u64>) {
        trace.clear();
        self.trace = trace;
    }

    /// Account one recorded kernel's replay in [`Self::replay_stats`].
    pub(crate) fn note_replay(&mut self, recorded: u64, elided: u64, l2: u64, trace_bytes: u64) {
        let s = &mut self.replay_stats;
        s.traced_kernels += 1;
        s.recorded_probes += recorded;
        s.elided_probes += elided;
        s.l2_probes += l2;
        s.inline_replays += 1;
        s.arena_bytes = s.arena_bytes.max(trace_bytes);
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

    /// Allocate a *host*-memory array (reads become PCIe traffic).
    pub fn alloc_host_array<T: Clone>(&mut self, len: usize, fill: T) -> DeviceArray<T> {
        DeviceArray::new(&mut self.host_alloc, len, fill)
    }

    /// Begin a kernel; report events on the returned handle, then call
    /// [`Kernel::finish`].
    pub fn launch(&mut self, name: &str) -> Kernel<'_> {
        Kernel::new(self, name)
    }

    /// Probe (and fill) `sm`'s private L1 for one sector.
    #[inline]
    pub(crate) fn probe_l1(&mut self, sm: usize, sector: u64) -> Probe {
        self.l1[sm].access(sector)
    }

    /// Probe (and fill) the shared L2 for one sector: an L1 miss, or an
    /// atomic, which resolves in L2.
    #[inline]
    pub(crate) fn probe_l2(&mut self, sector: u64) -> Probe {
        self.l2.access(sector)
    }

    pub(crate) fn charge(&mut self, totals: &Profiler, cycles: f64, overhead_cycles: f64) {
        self.profiler.merge(totals);
        self.elapsed_cycles += cycles;
        self.overhead_cycles += overhead_cycles;
    }

    pub(crate) fn charge_named(&mut self, name: &str, cycles: f64) {
        let e = self.kernel_times.entry(name.to_owned()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += cycles;
    }

    /// Per-kernel-name `(launches, seconds)` breakdown, sorted by time
    /// descending — the where-did-the-time-go view a profiler gives.
    #[must_use]
    pub fn kernel_breakdown(&self) -> Vec<(String, u64, f64)> {
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
    /// peer synchronisation, CPU work overlapping nothing).
    pub fn advance_seconds(&mut self, seconds: f64) {
        self.elapsed_cycles += seconds * self.cfg.clock_hz;
    }

    /// Simulated time elapsed since construction.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.cfg.cycles_to_seconds(self.elapsed_cycles)
    }

    /// The scheduling-overhead share of [`Self::elapsed_seconds`]: what
    /// every finished kernel charged as scheduling work (see the
    /// `kernel` module docs).
    #[must_use]
    pub fn overhead_seconds(&self) -> f64 {
        self.cfg.cycles_to_seconds(self.overhead_cycles)
    }

    /// Aggregated profiler counters.
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Owned copy of the profiler counters at this instant — the form a
    /// monitoring layer ships off-thread as a per-device metrics sample.
    #[must_use]
    pub fn profiler_snapshot(&self) -> Profiler {
        self.profiler.clone()
    }

    /// Clear profiler counters (including the per-kernel breakdown and the
    /// recorded-route telemetry).
    // sage-lint: allow(dead-pub) — integration_crosscheck::sampling_reorder_reduces_dram_traffic_on_scrambled_graph clears the counters with it before the measured run
    pub fn reset_profiler(&mut self) {
        self.profiler = Profiler::default();
        self.kernel_times.clear();
        self.replay_stats = ReplayStats::default();
    }

    /// Record peer-link traffic in the profiler (used by multi-GPU drivers).
    pub fn profiler_peer_bytes(&mut self, bytes: u64) {
        self.profiler.peer_bytes += bytes;
    }

    /// L2 hit/miss statistics `(hits, sector_misses, line_misses)`.
    #[cfg(test)]
    pub(crate) fn l2_stats(&self) -> (u64, u64, u64) {
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
        assert!((d.elapsed_cycles - r.cycles).abs() < 1e-9);
        let k = d.launch("b");
        let r2 = k.finish();
        assert!((d.elapsed_cycles - r.cycles - r2.cycles).abs() < 1e-9);
    }

    #[test]
    fn advance_seconds_moves_clock() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.advance_seconds(1e-6);
        assert!((d.elapsed_seconds() - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn arrays_from_device_and_host_spaces() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let dv = d.alloc_array::<u32>(10, 0);
        let hv = d.alloc_host_array::<u32>(10, 0);
        assert!(!crate::mem::is_host_addr(dv.addr(0)));
        assert!(crate::mem::is_host_addr(hv.addr(0)));
    }

    #[test]
    fn kernel_breakdown_tracks_names() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        for _ in 0..3 {
            let mut k = d.launch("expand");
            k.shard(0).exec_uniform(100);
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
    fn traced_kernels_feed_replay_stats_and_reuse_arena() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        d.set_host_threads(4);
        for _ in 0..2 {
            let mut k = d.launch("traced");
            for sm in 0..4 {
                k.shard(sm)
                    .access_range(AccessKind::Read, 4096 + sm as u64 * 4096, 256, 4);
            }
            let _ = k.finish();
        }
        let s = d.replay_stats().clone();
        assert_eq!(s.traced_kernels, 2);
        assert!(s.recorded_probes > 0);
        assert!(s.l2_probes > 0);
        assert!(s.arena_bytes > 0);
        // every replay runs on the calling thread
        assert_eq!((s.parallel_replays, s.inline_replays), (0, 2));
        // the second launch reused the first one's trace capacity
        assert_eq!(d.trace.capacity() as u64 * 8, s.arena_bytes);
        // direct kernels bypass the trace entirely
        d.set_host_threads(1);
        let _ = d.launch("seq").finish();
        assert_eq!(d.replay_stats().traced_kernels, 2);
        d.reset_profiler();
        assert_eq!(d.replay_stats(), &crate::profile::ReplayStats::default());
    }

    #[test]
    fn separate_l1_per_sm() {
        let mut d = Device::new(DeviceConfig::test_tiny());
        let mut k = d.launch("l1");
        k.shard(0).access(AccessKind::Read, &[512], 4);
        // Same sector from another SM: misses its own L1, hits shared L2.
        k.shard(1).access(AccessKind::Read, &[512], 4);
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

    #[test]
    #[should_panic(expected = "num_sms must fit the packed probe word's SM field")]
    fn too_many_sms_for_the_probe_word_panics() {
        let _ = Device::new(DeviceConfig {
            num_sms: crate::trace::MAX_SMS + 1,
            ..DeviceConfig::test_tiny()
        });
    }
}
