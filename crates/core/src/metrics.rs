//! Run reports and throughput metrics.
//!
//! The paper measures graph traversal speed in **billion edges per second**
//! (GTEPS); this module carries per-run accounting from engines to the
//! experiment harness.

use gpu_sim::HazardReport;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where a query's end-to-end latency went, stage by stage.
///
/// Filled in by serving layers (`sage-serve`) that wrap traversal runs in a
/// queue → batch → execute → remap pipeline; a bare engine run leaves it at
/// the default (all zeros). All fields are **host wall-clock** seconds — the
/// simulated device time stays in [`RunReport::seconds`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Waiting in the admission queue before a worker picked the query up.
    pub queue_seconds: f64,
    /// Waiting inside the worker while its batch was assembled.
    pub batch_seconds: f64,
    /// Executing the traversal (host time of the simulated run).
    pub exec_seconds: f64,
    /// Mapping results back through the composed permutation to original
    /// node ids (plus cache bookkeeping).
    pub remap_seconds: f64,
}

impl LatencyBreakdown {
    /// End-to-end host latency: sum of every stage.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.queue_seconds + self.batch_seconds + self.exec_seconds + self.remap_seconds
    }

    /// Merge another breakdown into this one (stage-wise sum).
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.queue_seconds += other.queue_seconds;
        self.batch_seconds += other.batch_seconds;
        self.exec_seconds += other.exec_seconds;
        self.remap_seconds += other.remap_seconds;
    }
}

/// Outcome of one traversal run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Application name (bfs / bc / pr / ...).
    pub app: String,
    /// Engine name (sage / b40c / tigr / ...).
    pub engine: String,
    /// Pipeline iterations executed (BFS levels, PR rounds, ...).
    pub iterations: usize,
    /// Algorithmic edges traversed — each iteration's frontier out-edge
    /// mass, i.e. what a push iteration filters. Pull iterations charge the
    /// same number (the Beamer-standard TEPS numerator), so throughput is
    /// comparable across directions; the bottom-up saving shows up in
    /// [`RunReport::edges_examined`] and in `seconds`.
    pub edges: u64,
    /// Edge examinations actually performed: equals `edges` for push
    /// iterations; for pull iterations it counts in-edge probes, which
    /// early exit can make far smaller.
    pub edges_examined: u64,
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// The scheduling share of `seconds` (tile votes, shuffles and
    /// partitions, fragment steering, the resident tile-schedule build) —
    /// the numerator of Table 3. The device accounts it per kernel, so it
    /// never exceeds `seconds`.
    pub overhead_seconds: f64,
    /// Per-iteration direction trace: `>` for a push iteration, `<` for a
    /// pull iteration, `M` for a matrix (masked SpMV on the tensor units)
    /// iteration, `|` separating accumulated runs. Empty for runners
    /// predating the adaptive pipeline (e.g. multi-GPU drivers).
    pub direction_trace: String,
    /// False when the run stopped at the iteration cap instead of the
    /// application's own convergence condition.
    pub converged: bool,
    /// Host-side query-latency breakdown (zeros outside a serving layer).
    pub latency: LatencyBreakdown,
    /// Host wall-clock seconds the simulation itself took to run.
    pub host_seconds: f64,
    /// Host threads the simulation was allowed to use (1 = sequential).
    pub host_threads: usize,
    /// Hazards the race sanitizer attributed to this run's kernels (always
    /// empty when sanitizing is disabled).
    pub hazards: HazardReport,
}

impl RunReport {
    /// Billion traversed edges per second — the paper's headline metric.
    #[must_use]
    pub fn gteps(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.edges as f64 / self.seconds / 1e9
        }
    }

    /// Scheduling overhead as a fraction of total runtime (Table 3).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.overhead_seconds / self.seconds
        }
    }

    /// Merge another run into an aggregate (for multi-source averaging).
    pub fn accumulate(&mut self, other: &RunReport) {
        self.iterations += other.iterations;
        self.edges += other.edges;
        self.edges_examined += other.edges_examined;
        self.seconds += other.seconds;
        self.overhead_seconds += other.overhead_seconds;
        self.converged &= other.converged;
        if !other.direction_trace.is_empty() {
            if !self.direction_trace.is_empty() {
                self.direction_trace.push('|');
            }
            self.direction_trace.push_str(&other.direction_trace);
        }
        self.latency.accumulate(&other.latency);
        self.host_seconds += other.host_seconds;
        self.host_threads = self.host_threads.max(other.host_threads);
        self.hazards.merge(&other.hazards);
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {} iters, {} edges, {:.3} ms, {:.3} GTEPS",
            self.app,
            self.engine,
            self.iterations,
            self.edges,
            self.seconds * 1e3,
            self.gteps()
        )?;
        if !self.direction_trace.is_empty() {
            // keep the line bounded on long-running apps
            if self.direction_trace.len() <= 48 {
                write!(f, " [{}]", self.direction_trace)?;
            } else {
                let head: String = self.direction_trace.chars().take(45).collect();
                write!(f, " [{head}…]")?;
            }
        }
        if !self.converged {
            write!(f, " [truncated]")?;
        }
        if !self.hazards.is_empty() {
            write!(f, " [{} hazards]", self.hazards.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(edges: u64, seconds: f64) -> RunReport {
        RunReport {
            app: "bfs".into(),
            engine: "test".into(),
            iterations: 3,
            edges,
            edges_examined: edges,
            seconds,
            overhead_seconds: 0.1 * seconds,
            direction_trace: ">>>".into(),
            converged: true,
            latency: LatencyBreakdown::default(),
            host_seconds: 0.0,
            host_threads: 1,
            hazards: HazardReport::default(),
        }
    }

    #[test]
    fn gteps_computation() {
        let r = report(2_000_000_000, 1.0);
        assert!((r.gteps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_gives_zero_gteps() {
        let r = report(100, 0.0);
        assert_eq!(r.gteps(), 0.0);
        assert_eq!(r.overhead_fraction(), 0.0);
    }

    #[test]
    fn overhead_fraction() {
        let r = report(100, 2.0);
        assert!((r.overhead_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = report(100, 1.0);
        a.accumulate(&report(50, 0.5));
        assert_eq!(a.edges, 150);
        assert!((a.seconds - 1.5).abs() < 1e-12);
        assert_eq!(a.iterations, 6);
    }

    #[test]
    fn latency_breakdown_totals_and_accumulates() {
        let mut a = LatencyBreakdown {
            queue_seconds: 1.0,
            batch_seconds: 0.5,
            exec_seconds: 2.0,
            remap_seconds: 0.25,
        };
        assert!((a.total_seconds() - 3.75).abs() < 1e-12);
        a.accumulate(&a.clone());
        assert!((a.total_seconds() - 7.5).abs() < 1e-12);
        assert!((a.queue_seconds - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_metric() {
        let r = report(1000, 0.001);
        let s = format!("{r}");
        assert!(s.contains("GTEPS"));
        assert!(s.contains(">>>"), "direction trace shown: {s}");
        assert!(!s.contains("truncated"));
    }

    #[test]
    fn display_flags_truncation_and_caps_trace() {
        let mut r = report(1000, 0.001);
        r.converged = false;
        r.direction_trace = ">".repeat(100);
        let s = format!("{r}");
        assert!(s.contains("[truncated]"));
        assert!(s.contains('…'), "long trace elided: {s}");
    }

    #[test]
    fn accumulate_joins_traces_and_ands_convergence() {
        let mut a = report(100, 1.0);
        let mut b = report(50, 0.5);
        b.direction_trace = "><".into();
        b.converged = false;
        a.accumulate(&b);
        assert_eq!(a.direction_trace, ">>>|><");
        assert!(!a.converged);
    }
}
