//! Multicore-CPU cost model for the Ligra baseline (§7.1).
//!
//! Ligra \[42\] is the CPU reference in Figure 7; the model charges per-edge
//! work on a NUMA multiprocessor with a hot/cold split decided by whether
//! the per-node state fits the last-level cache, a DRAM bandwidth bound, and
//! a fork/join overhead per parallel iteration.

use crate::config::CpuConfig;

/// A simulated multicore CPU. Each step returns the seconds it took; the
/// caller adds them to its own clock.
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: CpuConfig,
}

impl Cpu {
    /// Build a CPU from its configuration.
    #[must_use]
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// Charge one parallel edge-processing step.
    ///
    /// * `edges` — edges traversed this step;
    /// * `bytes_touched` — memory volume the step moves;
    /// * `working_set_bytes` — size of the randomly-accessed state (decides
    ///   hot/cold cycles per edge);
    /// * `imbalance` — ≥ 1.0; ratio busiest/mean work across cores.
    ///
    /// Returns the seconds charged.
    pub fn parallel_step(
        &self,
        edges: u64,
        bytes_touched: u64,
        working_set_bytes: u64,
        imbalance: f64,
    ) -> f64 {
        let c = &self.cfg;
        // Interpolate cycles/edge between hot and cold by how far the working
        // set exceeds the LLC.
        let pressure = (working_set_bytes as f64 / c.llc_bytes as f64).min(1.0);
        let cpe =
            c.cycles_per_edge_hot + pressure * (c.cycles_per_edge_cold - c.cycles_per_edge_hot);
        let compute = edges as f64 * cpe / (c.cores as f64 * c.clock_hz) * imbalance.max(1.0);
        let bw = bytes_touched as f64 / c.dram_bandwidth_bytes_per_sec;
        compute.max(bw) + c.parallel_overhead_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    #[test]
    fn more_edges_cost_more() {
        let c = cpu();
        let a = c.parallel_step(1_000, 8_000, 1 << 20, 1.0);
        let b = c.parallel_step(1_000_000, 8_000_000, 1 << 20, 1.0);
        assert!(b > a);
    }

    #[test]
    fn large_working_set_is_slower_per_edge() {
        let c = cpu();
        let hot = c.parallel_step(1_000_000, 0, 1 << 10, 1.0);
        let cold = c.parallel_step(1_000_000, 0, 1 << 34, 1.0);
        assert!(cold > hot * 2.0);
    }

    #[test]
    fn imbalance_scales_time() {
        let c = cpu();
        let even = c.parallel_step(10_000_000, 0, 1 << 34, 1.0);
        let skew = c.parallel_step(10_000_000, 0, 1 << 34, 4.0);
        assert!(skew > even * 3.0);
    }

    #[test]
    fn bandwidth_bound_applies() {
        let c = cpu();
        // Tiny edge count moving a huge volume: bandwidth-bound.
        let t = c.parallel_step(1, 1 << 33, 0, 1.0);
        assert!(t >= (1u64 << 33) as f64 / CpuConfig::default().dram_bandwidth_bytes_per_sec);
    }

    #[test]
    fn every_step_charges_time() {
        let c = cpu();
        assert!(c.parallel_step(100, 100, 100, 1.0) > 0.0);
    }

    #[test]
    fn every_step_pays_fork_join_overhead() {
        let c = cpu();
        let t = c.parallel_step(0, 0, 0, 1.0);
        assert!((t - CpuConfig::default().parallel_overhead_sec).abs() < 1e-15);
    }
}
