//! # gpu-sim — a transaction-level GPU architecture simulator
//!
//! This crate is the hardware substrate for the SAGE reproduction. Rust has
//! no mature toolchain for fine-grained cooperative-group CUDA kernels, so
//! the paper's device — 2× Quadro RTX 8000 — is replaced by a deterministic
//! simulator that models exactly the architectural mechanisms the paper's
//! results rest on:
//!
//! * **SIMT execution** — warps of 32 lanes, divergence accounting, per-SM
//!   issue pipelines, occupancy-bounded latency hiding (Little's law);
//! * **memory hierarchy** — 32-byte sectors in 128-byte lines, sectored
//!   set-associative L1 (per SM) and L2 (device), DRAM latency and
//!   bandwidth bounds; uncoalesced access amplification falls out of sector
//!   counting (§2.1/§3.2 of the paper);
//! * **cooperative groups** — tile shapes, votes, shuffles, partitions with
//!   multi-warp costs (§5.1);
//! * **out-of-core** — PCIe frame model with header overhead and a
//!   unified-memory style LRU page pool (§3.3);
//! * **multi-GPU** — peer links and bulk-synchronous device groups (§7.2);
//! * **CPU baseline** — a multicore cost model for Ligra.
//!
//! The model is calibrated for *shape fidelity*, not absolute numbers: load
//! imbalance, warp divergence, sector amplification and PCIe fragmentation
//! each have first-order, monotone effects on simulated time.
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig, AccessKind};
//!
//! let mut dev = Device::new(DeviceConfig::default());
//! let values = dev.alloc_array::<u32>(1024, 0);
//! let mut k = dev.launch("example");
//! let addrs: Vec<u64> = (0..32).map(|i| values.addr(i)).collect();
//! k.shard(0).access(AccessKind::Read, &addrs, 4);
//! let report = k.finish();
//! assert!(report.seconds > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod cpu;
pub mod device;
pub mod host;
pub mod kernel;
pub mod mem;
pub mod multi;
pub mod pcie;
pub mod profile;
pub mod sanitizer;
pub mod tile;
mod trace;

pub use cache::{Probe, SectorCache};
pub use config::{CacheConfig, CpuConfig, DeviceConfig, PcieConfig, PeerLinkConfig, TensorConfig};
pub use cpu::Cpu;
pub use device::Device;
pub use host::{PoolAccess, UmPool};
pub use kernel::{AccessKind, Kernel, KernelReport, SmShard};
pub use mem::{Allocator, DeviceArray, MemSpace};
pub use profile::{Profiler, ReplayStats};
pub use sanitizer::{Hazard, HazardKind, HazardParty, HazardReport};
pub use tile::Tile;
