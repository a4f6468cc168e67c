//! R-MAT (recursive matrix) generator — the standard Kronecker-style
//! synthetic used throughout the GPU graph literature for stress tests.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::ingest;

/// Generate an R-MAT graph with `2^scale` nodes and `edge_factor * 2^scale`
/// directed edges (before dedup), with the classic `(a,b,c,d) =
/// (0.57, 0.19, 0.19, 0.05)` partition probabilities. Symmetrised.
///
/// Large graphs are sampled in chunks on every core, each from the seed's
/// stream jumped ahead to its first edge; the graph does not depend on
/// how many chunks.
///
/// # Panics
/// Panics if `scale == 0` or `scale > 30`.
#[must_use]
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    assert!((1..=30).contains(&scale), "scale must be in 1..=30");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let (u, v) = ingest::rmat_edges(scale, m, seed, ingest::parts_for(2 * m));
    Csr::from_coo_symmetric(&Coo { num_nodes: n, u, v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn valid_and_deterministic() {
        let a = rmat_graph(10, 8, 5);
        let b = rmat_graph(10, 8, 5);
        assert!(a.validate().is_ok());
        assert_eq!(a, b);
        assert_eq!(a.num_nodes(), 1024);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat_graph(12, 8, 5);
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_cv > 1.0,
            "R-MAT should be skewed, CV = {}",
            s.degree_cv
        );
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        let _ = rmat_graph(0, 8, 1);
    }
}
