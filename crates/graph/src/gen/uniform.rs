//! Erdős–Rényi G(n, m) graphs for unit tests: no skew, no locality.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a uniform random graph with `nodes` nodes and roughly `edges`
/// directed edges (before dedup), symmetrised.
///
/// # Panics
/// Panics if `nodes < 2`.
#[must_use]
pub fn uniform_graph(nodes: usize, edges: usize, seed: u64) -> Csr {
    assert!(nodes >= 2, "uniform graph needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(nodes);
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes as NodeId);
        let v = rng.gen_range(0..nodes as NodeId);
        if u != v {
            coo.push(u, v);
        }
    }
    Csr::from_coo_symmetric(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn valid_and_deterministic() {
        let a = uniform_graph(500, 3000, 1);
        let b = uniform_graph(500, 3000, 1);
        assert!(a.validate().is_ok());
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_has_low_skew() {
        let g = uniform_graph(2000, 30_000, 2);
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_cv < 0.6,
            "uniform CV should be small, got {}",
            s.degree_cv
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_node_rejected() {
        let _ = uniform_graph(1, 10, 0);
    }
}
