//! Multi-GPU support: peer-link transfer costs.
//!
//! GPU graph traversal iterates short kernels and must synchronise frontier
//! data after every iteration, so the per-iteration communication overhead is
//! high relative to compute — the effect §7.2 observes when two GPUs fail to
//! beat one on some datasets.

use crate::config::PeerLinkConfig;

/// Seconds to synchronise peers and exchange `bytes` over the peer link.
#[must_use]
pub fn exchange_seconds(cfg: &PeerLinkConfig, bytes: u64) -> f64 {
    cfg.sync_latency_sec + bytes as f64 / cfg.bandwidth_bytes_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_seconds_has_floor_latency() {
        let cfg = PeerLinkConfig::default();
        assert!(exchange_seconds(&cfg, 0) >= cfg.sync_latency_sec);
        assert!(exchange_seconds(&cfg, 1 << 30) > exchange_seconds(&cfg, 0));
    }
}
