//! Multi-GPU support: peer-link transfer costs and device pools.
//!
//! GPU graph traversal iterates short kernels and must synchronise frontier
//! data after every iteration, so the per-iteration communication overhead is
//! high relative to compute — the effect §7.2 observes when two GPUs fail to
//! beat one on some datasets.

use crate::config::{DeviceConfig, PeerLinkConfig};
use crate::device::Device;

/// Construct `n` identically configured devices — the building block of a
/// serving-layer device pool, where each worker thread owns one device.
///
/// # Panics
/// Panics when `n == 0`.
#[must_use]
pub fn device_pool(cfg: &DeviceConfig, n: usize) -> Vec<Device> {
    assert!(n > 0, "device pool cannot be empty");
    (0..n).map(|_| Device::new(cfg.clone())).collect()
}

/// Seconds to synchronise peers and exchange `bytes` over the peer link.
#[must_use]
pub fn exchange_seconds(cfg: &PeerLinkConfig, bytes: u64) -> f64 {
    cfg.sync_latency_sec + bytes as f64 / cfg.bandwidth_bytes_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, PeerLinkConfig};

    #[test]
    fn exchange_seconds_has_floor_latency() {
        let cfg = PeerLinkConfig::default();
        assert!(exchange_seconds(&cfg, 0) >= cfg.sync_latency_sec);
        assert!(exchange_seconds(&cfg, 1 << 30) > exchange_seconds(&cfg, 0));
    }

    #[test]
    fn device_pool_builds_independent_devices() {
        let mut pool = device_pool(&DeviceConfig::test_tiny(), 3);
        assert_eq!(pool.len(), 3);
        pool[1].advance_seconds(1e-6);
        assert_eq!(pool[0].elapsed_seconds(), 0.0);
        assert!(pool[1].elapsed_seconds() > 0.0);
        let snap = pool[1].profiler_snapshot();
        assert_eq!(snap, *pool[1].profiler());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_device_pool_rejected() {
        let _ = device_pool(&DeviceConfig::test_tiny(), 0);
    }
}
