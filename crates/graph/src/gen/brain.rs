//! Spatially-embedded near-regular graphs (brain / bn-human family).
//!
//! The paper's `brain` dataset records links between neurons: extremely
//! dense (|E|/|V| ≈ 683), near-uniform degree distribution, and a "clear
//! hierarchical structure" (§7.2) — every method traverses it fastest, and
//! Tigr's irregularity-oriented preprocessing actively hurts on it.
//!
//! The generator embeds nodes in a 3D lattice (row-major ids, so id order ≈
//! spatial order) and connects each node to a dense local neighborhood plus
//! a few long-range fibres.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a brain-like graph of roughly `nodes` nodes (rounded down to a
/// cube) with ~`avg_deg` neighbors each. Symmetric.
///
/// # Panics
/// Panics if `nodes < 8` or `avg_deg < 1.0`.
#[must_use]
pub fn brain_graph(nodes: usize, avg_deg: f64, seed: u64) -> Csr {
    assert!(nodes >= 8, "brain graph needs at least 8 nodes");
    assert!(avg_deg >= 1.0, "avg_deg must be at least 1");
    let side = (nodes as f64).cbrt().floor() as usize;
    let n = side * side * side;
    let mut rng = StdRng::seed_from_u64(seed);

    // Neighborhood radius r chosen so that the ball holds ~avg_deg nodes:
    // |ball| ≈ (2r+1)^3 - 1.
    let r = (((avg_deg + 1.0).cbrt() - 1.0) / 2.0).ceil().max(1.0) as i64;
    let coord = |u: usize| -> (i64, i64, i64) {
        (
            (u % side) as i64,
            ((u / side) % side) as i64,
            (u / (side * side)) as i64,
        )
    };
    let id = |x: i64, y: i64, z: i64| -> usize {
        (x as usize) + (y as usize) * side + (z as usize) * side * side
    };

    let mut coo = Coo::new(n);
    let target_local = avg_deg * 0.96;
    for u in 0..n {
        let (x, y, z) = coord(u);
        // Dense local ball, sampled to hit the target degree.
        let ball = ((2 * r + 1).pow(3) - 1) as f64;
        let keep = (target_local / ball).min(1.0);
        for dz in -r..=r {
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let (nx, ny, nz) = (x + dx, y + dy, z + dz);
                    if nx < 0
                        || ny < 0
                        || nz < 0
                        || nx >= side as i64
                        || ny >= side as i64
                        || nz >= side as i64
                    {
                        continue;
                    }
                    if keep >= 1.0 || rng.gen_bool(keep) {
                        coo.push(u as NodeId, id(nx, ny, nz) as NodeId);
                    }
                }
            }
        }
        // A few long-range fibres (~4% of degree).
        let fibres = (avg_deg * 0.04).ceil() as usize;
        for _ in 0..fibres {
            let v = rng.gen_range(0..n as NodeId);
            if v as usize != u {
                coo.push(u as NodeId, v);
            }
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
        let a = brain_graph(1000, 24.0, 11);
        let b = brain_graph(1000, 24.0, 11);
        assert!(a.validate().is_ok());
        assert_eq!(a, b);
        // rounded to a cube: 10^3 (cbrt(1000) is exact)
        assert_eq!(a.num_nodes(), 1000);
    }

    #[test]
    fn degree_is_near_uniform() {
        let g = brain_graph(1728, 30.0, 3);
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_cv < 0.5,
            "brain degrees should be near-uniform, CV = {}",
            s.degree_cv
        );
    }

    #[test]
    fn dense_relative_to_web() {
        let g = brain_graph(1728, 60.0, 3);
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg > 30.0, "brain graph should be dense, avg = {avg}");
    }

    #[test]
    fn spatial_ids_give_locality() {
        let g = brain_graph(1728, 30.0, 3);
        let s = GraphStats::compute(&g);
        assert!(
            s.mean_neighbor_gap < g.num_nodes() as f64 * 0.2,
            "lattice ids should be local, gap = {}",
            s.mean_neighbor_gap
        );
    }

    #[test]
    #[should_panic(expected = "at least 8 nodes")]
    fn tiny_rejected() {
        let _ = brain_graph(4, 8.0, 0);
    }
}
