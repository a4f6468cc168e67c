//! Degree-distribution and locality metrics used to characterise datasets
//! (Table 1) and to verify generator fidelity.

use crate::csr::Csr;
use serde::{Deserialize, Serialize};

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Mean out-degree (|E| / |V|, the density column of Table 1).
    pub avg_degree: f64,
    /// Largest out-degree.
    pub max_degree: usize,
    /// Coefficient of variation of the degrees (std / mean) — the skew
    /// measure; power-law graphs score far above regular graphs.
    pub degree_cv: f64,
    /// Gini coefficient of the degree distribution in `[0, 1]`.
    pub degree_gini: f64,
    /// Mean |neighbor id − node id| — id-order locality; small values mean
    /// adjacent data sits nearby in memory.
    pub mean_neighbor_gap: f64,
    /// Fraction of nodes with zero out-degree.
    pub sink_fraction: f64,
}

impl GraphStats {
    /// Compute all statistics in one pass over the graph.
    #[must_use]
    pub fn compute(g: &Csr) -> Self {
        let n = g.num_nodes();
        let m = g.num_edges();
        let mut degs: Vec<usize> = Vec::with_capacity(n);
        let mut gap_sum = 0.0f64;
        let mut sinks = 0usize;
        for u in 0..n as u32 {
            let d = g.degree(u);
            degs.push(d);
            if d == 0 {
                sinks += 1;
            }
            for &v in g.neighbors(u) {
                gap_sum += (i64::from(v) - i64::from(u)).unsigned_abs() as f64;
            }
        }
        let mean = if n == 0 { 0.0 } else { m as f64 / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            degs.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64
        };
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

        // Gini over the sorted degree sequence.
        degs.sort_unstable();
        let gini = if m == 0 || n == 0 {
            0.0
        } else {
            let s: f64 = degs
                .iter()
                .enumerate()
                .map(|(i, &d)| (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * d as f64)
                .sum();
            s / (n as f64 * m as f64)
        };

        Self {
            nodes: n,
            edges: m,
            avg_degree: mean,
            max_degree: degs.last().copied().unwrap_or(0),
            degree_cv: cv,
            degree_gini: gini,
            mean_neighbor_gap: if m == 0 { 0.0 } else { gap_sum / m as f64 },
            sink_fraction: if n == 0 { 0.0 } else { sinks as f64 / n as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_cycle_stats() {
        // 0->1->2->3->0: perfectly regular.
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.avg_degree, 1.0);
        assert_eq!(s.max_degree, 1);
        assert_eq!(s.degree_cv, 0.0);
        assert!(s.degree_gini.abs() < 1e-12);
        assert_eq!(s.sink_fraction, 0.0);
    }

    #[test]
    fn star_is_maximally_skewed() {
        let edges: Vec<(u32, u32)> = (1..100).map(|v| (0, v)).collect();
        let g = Csr::from_edges(100, &edges);
        let s = GraphStats::compute(&g);
        assert_eq!(s.max_degree, 99);
        assert!(s.degree_cv > 9.0);
        assert!(s.degree_gini > 0.95);
        assert!((s.sink_fraction - 0.99).abs() < 1e-12);
    }

    #[test]
    fn neighbor_gap_measures_locality() {
        let local = Csr::from_edges(100, &[(10, 11), (11, 12), (50, 51)]);
        let remote = Csr::from_edges(100, &[(0, 99), (1, 98), (2, 97)]);
        let sl = GraphStats::compute(&local);
        let sr = GraphStats::compute(&remote);
        assert!(sl.mean_neighbor_gap < 2.0);
        assert!(sr.mean_neighbor_gap > 90.0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Csr::from_edges(3, &[]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.edges, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.degree_cv, 0.0);
        assert_eq!(s.mean_neighbor_gap, 0.0);
        assert_eq!(s.sink_fraction, 1.0);
    }
}
