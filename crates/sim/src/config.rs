//! Device configuration: the architectural parameters of the simulated GPU.
//!
//! The defaults model an NVIDIA Quadro RTX 8000 (the card used in the paper's
//! evaluation, §7.1): 72 SMs, 4608 CUDA cores, 48 GB GDDR6 at ~672 GB/s, a
//! 6 MB device-wide L2 and 64 KB per-SM L1, 128-byte cache lines split into
//! four 32-byte sectors.
//!
//! All costs are expressed in *cycles* of the SM clock; the clock converts
//! simulated cycles into simulated seconds. The model is transaction-level,
//! not cycle-exact: it is designed so that the architectural mechanisms the
//! paper's results depend on (occupancy-based latency hiding, warp
//! divergence, sector-granular access amplification, inter-SM load imbalance,
//! PCIe frame overheads) have first-order effects on the simulated time.

use serde::{Deserialize, Serialize};

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Load-to-use latency in cycles on a hit.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of cache lines this configuration holds.
    #[must_use]
    pub fn lines(&self, line_bytes: usize) -> usize {
        (self.capacity_bytes / line_bytes).max(self.ways)
    }

    /// Number of sets (lines / ways), always at least one.
    #[must_use]
    pub fn sets(&self, line_bytes: usize) -> usize {
        (self.lines(line_bytes) / self.ways).max(1)
    }
}

/// PCIe interconnect parameters for out-of-core traffic (§3.3).
///
/// Every transfer is carried in frames consisting of a control segment
/// (header) and a data segment (payload); scattered small requests therefore
/// waste a large fraction of the wire on headers, which is exactly the
/// behaviour SAGE's tile-aligned access mitigates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieConfig {
    /// Raw unidirectional bandwidth in bytes per second (PCIe 3.0 x16).
    pub bandwidth_bytes_per_sec: f64,
    /// Per-request round-trip latency in seconds.
    pub latency_sec: f64,
    /// Header (TLP + DLLP + framing) overhead per frame in bytes.
    pub frame_header_bytes: usize,
    /// Maximum payload per frame in bytes.
    pub max_payload_bytes: usize,
    /// How many outstanding requests the DMA engines keep in flight;
    /// amortises per-request latency.
    pub queue_depth: usize,
}

impl Default for PcieConfig {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_sec: 16.0e9,
            latency_sec: 1.0e-6,
            frame_header_bytes: 24,
            max_payload_bytes: 256,
            queue_depth: 32,
        }
    }
}

/// Inter-GPU link for the multi-GPU scenario (peer-to-peer over the switch).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerLinkConfig {
    /// Peer-to-peer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Per-synchronisation latency in seconds (kernel quiesce + fence + copy
    /// launch): this is the per-iteration overhead that makes multi-GPU
    /// traversal non-trivially faster (§7.2 multi-GPU discussion).
    pub sync_latency_sec: f64,
}

impl Default for PeerLinkConfig {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_sec: 12.0e9,
            sync_latency_sec: 12.0e-6,
        }
    }
}

/// Matrix-unit (tensor-core) parameters for the SpMV traversal mode.
///
/// The matrix pipe sits beside the scalar-lane model: one **MMA op** is a
/// warpgroup-level binary fragment multiply covering a
/// `block_dim × block_dim` adjacency block against a frontier fragment
/// (the `(A^T ⊙ mask) · f` step), internally a sequence of
/// `side × side × side` hardware fragments. Ops charge a per-SM tensor-pipe
/// throughput bound plus an exposed-latency term hidden by warp concurrency,
/// exactly like scalar memory latency — pure arithmetic on event counts, so
/// the term is bitwise identical on the direct and recorded routes (the
/// memory side of a matrix kernel goes through the ordinary
/// [`crate::Kernel`] access paths and is traced/sanitized there).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorConfig {
    /// Hardware MMA fragment dimension (m = n = k), e.g. 16 for WMMA
    /// 16×16×16 on Turing.
    pub side: usize,
    /// Adjacency-block dimension one MMA op covers (the warpgroup tile);
    /// a multiple of `side`. 64 aligns a column block with one frontier
    /// bitmap word.
    pub block_dim: usize,
    /// MMA ops the SM's tensor pipe retires per cycle. Binary (b1) fragment
    /// throughput on Turing-class tensor cores is ~8× FP16 FMA rate, which
    /// is what lets a whole 64×64 bit-block clear in a handful of cycles.
    pub mma_per_cycle: f64,
    /// Pipeline latency of one MMA op in cycles (exposed latency, hidden by
    /// concurrency like a memory stall).
    pub mma_latency: u64,
}

impl Default for TensorConfig {
    fn default() -> Self {
        Self {
            side: 16,
            block_dim: 64,
            mma_per_cycle: 0.25,
            mma_latency: 64,
        }
    }
}

/// Full architectural description of one simulated device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable name, e.g. `"Quadro RTX 8000 (sim)"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Lanes per warp: the minimum scheduling granularity.
    pub warp_size: usize,
    /// Maximum threads per block.
    pub max_block_threads: usize,
    /// Maximum warps concurrently resident on one SM (occupancy ceiling).
    pub max_resident_warps: usize,
    /// Warp instructions the SM can issue per cycle.
    pub issue_width: f64,
    /// SM clock in Hz.
    pub clock_hz: f64,

    /// Cache line size in bytes (128 on NVIDIA parts).
    pub line_bytes: usize,
    /// Memory sector size in bytes (32): granularity of DRAM/L2 traffic.
    pub sector_bytes: usize,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Device-wide L2 cache.
    pub l2: CacheConfig,
    /// DRAM load-to-use latency in cycles.
    pub dram_latency: u64,
    /// Aggregate DRAM bandwidth in bytes per second.
    pub dram_bandwidth_bytes_per_sec: f64,
    /// L2 aggregate bandwidth in bytes per second (sector throughput bound).
    pub l2_bandwidth_bytes_per_sec: f64,

    /// Fixed cost of launching a kernel, in cycles (driver + dispatch).
    pub kernel_launch_cycles: u64,
    /// Cost of a block-wide barrier (`__syncthreads`) in cycles.
    pub block_sync_cycles: u64,
    /// Cost of one cooperative-group vote (`any`/`all`/`elect`) in cycles.
    pub vote_cycles: u64,
    /// Cost of one warp shuffle in cycles.
    pub shuffle_cycles: u64,
    /// L2 round-trip cost of an atomic operation in cycles.
    pub atomic_cycles: u64,
    /// Matrix-unit (tensor-core) pipe feeding the SpMV traversal mode.
    pub tensor: TensorConfig,

    /// PCIe link to the host (out-of-core scenario).
    pub pcie: PcieConfig,
    /// Peer link to sibling GPUs (multi-GPU scenario).
    pub peer: PeerLinkConfig,

    /// Run kernels under the shadow-memory race sanitizer (the initial
    /// state of [`crate::Device::set_sanitize`]); detection never changes
    /// simulated cycles or counters.
    pub sanitize: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::quadro_rtx_8000()
    }
}

impl DeviceConfig {
    /// The paper's evaluation card (§7.1).
    #[must_use]
    pub fn quadro_rtx_8000() -> Self {
        Self {
            name: "Quadro RTX 8000 (sim)".to_owned(),
            num_sms: 72,
            warp_size: 32,
            max_block_threads: 1024,
            max_resident_warps: 32,
            issue_width: 1.0,
            clock_hz: 1.77e9,
            line_bytes: 128,
            sector_bytes: 32,
            l1: CacheConfig {
                capacity_bytes: 64 * 1024,
                ways: 4,
                hit_latency: 28,
            },
            l2: CacheConfig {
                capacity_bytes: 6 * 1024 * 1024,
                ways: 16,
                hit_latency: 190,
            },
            dram_latency: 460,
            dram_bandwidth_bytes_per_sec: 672.0e9,
            l2_bandwidth_bytes_per_sec: 2000.0e9,
            kernel_launch_cycles: 4500,
            block_sync_cycles: 40,
            vote_cycles: 2,
            shuffle_cycles: 2,
            atomic_cycles: 210,
            tensor: TensorConfig::default(),
            pcie: PcieConfig::default(),
            peer: PeerLinkConfig::default(),
            sanitize: false,
        }
    }

    /// The evaluation card with its cache hierarchy scaled by `scale`.
    ///
    /// Experiments run on datasets shrunk by a scale factor; shrinking the
    /// caches by the same factor preserves the *ratio* of working-set to
    /// cache capacity, which is what decides whether locality matters —
    /// otherwise a 1/400-scale graph fits entirely in the full-size 6 MB L2
    /// and every reordering effect vanishes.
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    #[must_use]
    pub fn scaled_rtx_8000(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut cfg = Self::quadro_rtx_8000();
        // paper datasets are ~400x larger than scale-1.0 synthetics
        let shrink = (scale / 400.0).min(1.0);
        cfg.l2.capacity_bytes = ((cfg.l2.capacity_bytes as f64 * shrink) as usize).max(16 * 1024);
        cfg.l1.capacity_bytes = ((cfg.l1.capacity_bytes as f64 * shrink) as usize).max(1024);
        cfg.name = format!("Quadro RTX 8000 (sim, cache scale {shrink:.2e})");
        cfg
    }

    /// A deliberately tiny device for unit tests: 4 SMs, small caches, so
    /// that cache-boundary behaviour is observable with small inputs.
    #[must_use]
    pub fn test_tiny() -> Self {
        Self {
            name: "tiny-test-gpu".to_owned(),
            num_sms: 4,
            warp_size: 8,
            max_block_threads: 64,
            max_resident_warps: 8,
            issue_width: 1.0,
            clock_hz: 1.0e9,
            line_bytes: 128,
            sector_bytes: 32,
            l1: CacheConfig {
                capacity_bytes: 1024,
                ways: 2,
                hit_latency: 10,
            },
            l2: CacheConfig {
                capacity_bytes: 8 * 1024,
                ways: 4,
                hit_latency: 50,
            },
            dram_latency: 200,
            dram_bandwidth_bytes_per_sec: 100.0e9,
            l2_bandwidth_bytes_per_sec: 400.0e9,
            kernel_launch_cycles: 100,
            block_sync_cycles: 10,
            vote_cycles: 1,
            shuffle_cycles: 1,
            atomic_cycles: 60,
            // tiny matrix unit matching the 8-lane warps: 8×8 fragments
            // over 16-wide blocks so block boundaries show up on small
            // test graphs
            tensor: TensorConfig {
                side: 8,
                block_dim: 16,
                mma_per_cycle: 0.25,
                mma_latency: 20,
            },
            pcie: PcieConfig::default(),
            peer: PeerLinkConfig::default(),
            sanitize: false,
        }
    }

    /// Sectors per cache line (4 for 128-byte lines with 32-byte sectors).
    #[must_use]
    pub fn sectors_per_line(&self) -> usize {
        self.line_bytes / self.sector_bytes
    }

    /// Convert a cycle count on this device into seconds.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }

    /// DRAM bandwidth expressed in bytes per cycle (device-wide).
    #[must_use]
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_bytes_per_sec / self.clock_hz
    }

    /// L2 bandwidth expressed in bytes per cycle (device-wide).
    #[must_use]
    pub fn l2_bytes_per_cycle(&self) -> f64 {
        self.l2_bandwidth_bytes_per_sec / self.clock_hz
    }
}

/// A simple multicore-CPU cost model used by the Ligra baseline (§7.1 runs
/// Ligra on 2× Xeon Gold 6140).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Descriptive name.
    pub name: String,
    /// Physical cores across all sockets.
    pub cores: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Average cycles a core spends per traversed edge when the working set
    /// is cache-resident (branchy pointer-chasing work).
    pub cycles_per_edge_hot: f64,
    /// Average cycles per edge when the access misses to DRAM.
    pub cycles_per_edge_cold: f64,
    /// Aggregate DRAM bandwidth in bytes per second.
    pub dram_bandwidth_bytes_per_sec: f64,
    /// Last-level cache capacity in bytes (decides hot/cold mix).
    pub llc_bytes: usize,
    /// Per-parallel-iteration scheduling overhead in seconds (OpenMP fork/join).
    pub parallel_overhead_sec: f64,
}

impl CpuConfig {
    /// The evaluation host with its last-level cache scaled to match a
    /// dataset scale (same reasoning as [`DeviceConfig::scaled_rtx_8000`]).
    ///
    /// # Panics
    /// Panics unless `0 < scale <= 1`.
    #[must_use]
    pub fn scaled_xeon(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut cfg = Self::default();
        let shrink = (scale / 400.0).min(1.0);
        cfg.llc_bytes = ((cfg.llc_bytes as f64 * shrink) as usize).max(8 * 1024);
        cfg
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            name: "2x Xeon Gold 6140 (sim)".to_owned(),
            cores: 36,
            clock_hz: 2.3e9,
            cycles_per_edge_hot: 6.0,
            cycles_per_edge_cold: 38.0,
            dram_bandwidth_bytes_per_sec: 220.0e9,
            llc_bytes: 2 * 24_750 * 1024,
            parallel_overhead_sec: 8.0e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_rtx8000() {
        let c = DeviceConfig::default();
        assert_eq!(c.num_sms, 72);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.sectors_per_line(), 4);
    }

    #[test]
    fn cache_geometry() {
        let c = DeviceConfig::default();
        assert_eq!(c.l1.lines(c.line_bytes), 512);
        assert_eq!(c.l1.sets(c.line_bytes), 128);
        assert_eq!(c.l2.lines(c.line_bytes), 49152);
        assert_eq!(c.l2.sets(c.line_bytes), 3072);
    }

    #[test]
    fn cycle_conversion_roundtrip() {
        let c = DeviceConfig::default();
        let s = c.cycles_to_seconds(c.clock_hz);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dram_bytes_per_cycle_positive() {
        let c = DeviceConfig::default();
        assert!(c.dram_bytes_per_cycle() > 300.0);
        assert!(c.l2_bytes_per_cycle() > c.dram_bytes_per_cycle());
    }

    #[test]
    fn tiny_config_small_enough_for_tests() {
        let c = DeviceConfig::test_tiny();
        assert!(c.l1.lines(c.line_bytes) <= 8);
        assert!(c.num_sms == 4);
    }

    #[test]
    fn cache_sets_never_zero() {
        let cc = CacheConfig {
            capacity_bytes: 64,
            ways: 4,
            hit_latency: 1,
        };
        assert!(cc.sets(128) >= 1);
        assert!(cc.lines(128) >= cc.ways);
    }

    #[test]
    fn tensor_block_is_multiple_of_fragment_side() {
        for cfg in [DeviceConfig::default(), DeviceConfig::test_tiny()] {
            let t = cfg.tensor;
            assert!(t.block_dim >= t.side);
            assert_eq!(t.block_dim % t.side, 0, "{}: ragged matrix block", cfg.name);
            assert!(t.mma_per_cycle > 0.0);
        }
    }

    #[test]
    fn pcie_defaults_sane() {
        let p = PcieConfig::default();
        assert!(p.frame_header_bytes < p.max_payload_bytes);
        assert!(p.queue_depth >= 1);
    }
}
