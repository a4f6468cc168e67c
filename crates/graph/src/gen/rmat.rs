//! R-MAT (recursive matrix) generator — the standard Kronecker-style
//! synthetic used throughout the GPU graph literature for stress tests.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Generate an R-MAT graph with `2^scale` nodes and `edge_factor * 2^scale`
/// directed edges (before dedup), with the classic `(a,b,c,d) =
/// (0.57, 0.19, 0.19, 0.05)` partition probabilities. Symmetrised.
///
/// # Panics
/// Panics if `scale == 0` or `scale > 30`.
#[must_use]
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    assert!((1..=30).contains(&scale), "scale must be in 1..=30");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b, c) = (0.57, 0.19, 0.19);
    // Each level draws a 53-bit integer `j`, the draw behind `rng.gen::<f64>()
    // == j * 2^-53` (exact). For an f64 `p`, `j * 2^-53 < p` iff
    // `j < ceil(p * 2^53)`, so the quadrant picks compare integers against
    // these thresholds (computed from the same f64 sums) without branches.
    let unit = (1u64 << 53) as f64;
    let [ta, tab, tabc] = [a, a + b, a + b + c].map(|p: f64| (p * unit).ceil() as u64);

    let (mut u, mut v) = (Vec::with_capacity(m), Vec::with_capacity(m));
    for _ in 0..m {
        let (mut x, mut y) = (0 as NodeId, 0 as NodeId);
        for _ in 0..scale {
            let j = rng.next_u64() >> 11;
            let (ga, gab, gabc) = (j >= ta, j >= tab, j >= tabc);
            // quadrants [0,ta) none, [ta,tab) y, [tab,tabc) x, [tabc,..) both
            x = (x << 1) | NodeId::from(gab);
            y = (y << 1) | NodeId::from(ga ^ gab ^ gabc);
        }
        if x != y {
            u.push(x);
            v.push(y);
        }
    }
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
