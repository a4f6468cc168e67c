//! Multi-GPU support: peer-link transfer costs and a small helper that keeps
//! a set of devices' clocks in lock-step across bulk-synchronous iterations.
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

/// A group of devices executing a bulk-synchronous program.
pub struct DeviceGroup {
    devices: Vec<Device>,
}

impl DeviceGroup {
    /// Build a group from pre-constructed devices.
    ///
    /// # Panics
    /// Panics on an empty group.
    #[must_use]
    pub fn new(devices: Vec<Device>) -> Self {
        assert!(!devices.is_empty(), "device group cannot be empty");
        Self { devices }
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the group holds no devices (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Access device `i`.
    pub fn device(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// Immutable access to device `i`.
    #[must_use]
    pub fn device_ref(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Barrier: advance every device's clock to the maximum of the group —
    /// bulk-synchronous semantics where the slowest device gates the step.
    pub fn barrier(&mut self) {
        let max = self
            .devices
            .iter()
            .map(Device::elapsed_seconds)
            .fold(0.0f64, f64::max);
        for d in &mut self.devices {
            let lag = max - d.elapsed_seconds();
            if lag > 0.0 {
                d.advance_seconds(lag);
            }
        }
    }

    /// Barrier, then all-to-all exchange of `bytes_total` over the peer link;
    /// every device pays the exchange time.
    pub fn exchange(&mut self, bytes_total: u64) {
        self.barrier();
        let cfg = self.devices[0].cfg().peer;
        let t = exchange_seconds(&cfg, bytes_total);
        for d in &mut self.devices {
            d.advance_seconds(t);
        }
        // charge traffic to device 0's profiler as the group aggregate
        // (per-device attribution is not needed by any experiment)
        self.devices[0].profiler_peer_bytes(bytes_total);
    }

    /// Elapsed time of the group: the slowest device.
    #[must_use]
    pub fn elapsed_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(Device::elapsed_seconds)
            .fold(0.0f64, f64::max)
    }

    /// Reset every device clock.
    pub fn reset_clocks(&mut self) {
        for d in &mut self.devices {
            d.reset_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, PeerLinkConfig};

    fn group(n: usize) -> DeviceGroup {
        DeviceGroup::new(
            (0..n)
                .map(|_| Device::new(DeviceConfig::test_tiny()))
                .collect(),
        )
    }

    #[test]
    fn exchange_seconds_has_floor_latency() {
        let cfg = PeerLinkConfig::default();
        assert!(exchange_seconds(&cfg, 0) >= cfg.sync_latency_sec);
        assert!(exchange_seconds(&cfg, 1 << 30) > exchange_seconds(&cfg, 0));
    }

    #[test]
    fn barrier_aligns_clocks_to_slowest() {
        let mut g = group(2);
        g.device(0).advance_seconds(5e-6);
        g.device(1).advance_seconds(1e-6);
        g.barrier();
        let a = g.device(0).elapsed_seconds();
        let b = g.device(1).elapsed_seconds();
        assert!((a - b).abs() < 1e-15);
        assert!((a - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn exchange_advances_all_devices() {
        let mut g = group(2);
        let before = g.elapsed_seconds();
        g.exchange(1 << 20);
        let after = g.elapsed_seconds();
        assert!(after > before);
        assert!(g.device(0).profiler().peer_bytes >= 1 << 20);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_group_rejected() {
        let _ = DeviceGroup::new(vec![]);
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

    #[test]
    fn group_elapsed_is_max() {
        let mut g = group(3);
        g.device(2).advance_seconds(7e-6);
        assert!((g.elapsed_seconds() - 7e-6).abs() < 1e-12);
        g.reset_clocks();
        assert_eq!(g.elapsed_seconds(), 0.0);
    }
}
