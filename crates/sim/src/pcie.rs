//! PCIe transfer cost model (§3.3 of the paper).
//!
//! Every transfer is carried in frames of `header + payload`; graph analysis
//! tends to generate massive, non-contiguous, small-payload requests, which
//! inflates the header share and collapses the *effective* bandwidth. Bulk,
//! contiguous transfers (Subway's preloading, SAGE's tile-aligned access)
//! amortise both headers and per-request latency.

use crate::config::PcieConfig;

/// Wire time in seconds to move `bytes` of payload split across `requests`
/// independent requests.
///
/// Each request is framed into `ceil(request_bytes / max_payload)` frames,
/// each paying `frame_header_bytes` of overhead; per-request latency is
/// amortised by the DMA queue depth.
#[must_use]
pub fn transfer_seconds(cfg: &PcieConfig, bytes: u64, requests: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let requests = requests.max(1);
    let per_request = (bytes as f64 / requests as f64).max(1.0);
    let frames_per_request = (per_request / cfg.max_payload_bytes as f64).ceil();
    let total_frames = frames_per_request * requests as f64;
    let wire_bytes = bytes as f64 + total_frames * cfg.frame_header_bytes as f64;
    let wire_time = wire_bytes / cfg.bandwidth_bytes_per_sec;
    let latency_time = requests as f64 * cfg.latency_sec / cfg.queue_depth as f64;
    wire_time + latency_time
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PcieConfig {
        PcieConfig::default()
    }

    /// Effective bandwidth (payload bytes per second) achieved by a
    /// transfer pattern — the metric §3.3 argues is the out-of-core
    /// bottleneck.
    fn effective_bandwidth(cfg: &PcieConfig, bytes: u64, requests: u64) -> f64 {
        let t = transfer_seconds(cfg, bytes, requests);
        if t <= 0.0 {
            0.0
        } else {
            bytes as f64 / t
        }
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(transfer_seconds(&cfg(), 0, 0), 0.0);
    }

    #[test]
    fn bulk_transfer_approaches_raw_bandwidth() {
        let c = cfg();
        // One 64 MiB contiguous request.
        let eff = effective_bandwidth(&c, 64 << 20, 1);
        assert!(
            eff > 0.85 * c.bandwidth_bytes_per_sec,
            "bulk transfer should be near wire speed, got {eff:.3e}"
        );
    }

    #[test]
    fn scattered_small_requests_collapse_bandwidth() {
        let c = cfg();
        let bytes = 1u64 << 20;
        // Same volume in 32-byte scattered requests vs one bulk request.
        let scattered = effective_bandwidth(&c, bytes, bytes / 32);
        let bulk = effective_bandwidth(&c, bytes, 1);
        assert!(
            scattered < bulk / 2.0,
            "scattered {scattered:.3e} should be far below bulk {bulk:.3e}"
        );
    }

    #[test]
    fn more_requests_never_faster() {
        let c = cfg();
        let t1 = transfer_seconds(&c, 1 << 20, 4);
        let t2 = transfer_seconds(&c, 1 << 20, 4096);
        assert!(t2 >= t1);
    }

    #[test]
    fn monotone_in_bytes() {
        let c = cfg();
        let a = transfer_seconds(&c, 1 << 10, 1);
        let b = transfer_seconds(&c, 1 << 20, 1);
        assert!(b > a);
    }

    #[test]
    fn header_overhead_bounded() {
        // A single max-payload frame pays exactly one header.
        let c = cfg();
        let t = transfer_seconds(&c, c.max_payload_bytes as u64, 1);
        let expected = (c.max_payload_bytes + c.frame_header_bytes) as f64
            / c.bandwidth_bytes_per_sec
            + c.latency_sec / c.queue_depth as f64;
        assert!((t - expected).abs() < 1e-12);
    }
}
