//! Community-structured power-law social graphs (ljournal / twitter /
//! friendster families).
//!
//! Construction: nodes join power-law-sized communities; every node draws a
//! power-law out-degree; each stub connects intra-community with probability
//! `p_intra` (uniform inside the community) and otherwise globally with
//! degree-proportional preference (a stub list). Finally the node ids are
//! *scrambled* by a random permutation: a crawled social network's ids carry
//! no locality, which is exactly why reordering methods buy the most on
//! these graphs (§7.2, Figure 6).
//!
//! Skew is tuned by `alpha` and `max_deg_frac`: twitter's follower graph —
//! "following a popular user does not need a permission" (§7.3) — gets a
//! low alpha and a large degree cap, producing super-nodes.

use super::{powerlaw_degree, random_permutation};
use crate::coo::Coo;
use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables for [`social_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocialParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Mean out-degree before symmetrisation.
    pub avg_deg: f64,
    /// Power-law exponent of the degree distribution (lower = more skewed).
    pub alpha: f64,
    /// Degree cap as a fraction of `nodes` (super-node ceiling).
    pub max_deg_frac: f64,
    /// Probability a stub stays inside its community.
    pub p_intra: f64,
    /// Mean community size.
    pub community_size: usize,
    /// Whether ids are scrambled (true for realistic social crawls).
    pub scramble: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialParams {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            avg_deg: 16.0,
            alpha: 2.2,
            max_deg_frac: 0.05,
            p_intra: 0.7,
            community_size: 64,
            scramble: true,
            seed: 42,
        }
    }
}

/// Generate a social graph; the result is symmetric (friendship edges).
///
/// # Panics
/// Panics if `nodes == 0`.
#[must_use]
pub fn social_graph(p: &SocialParams) -> Csr {
    assert!(p.nodes > 0, "social graph needs at least one node");
    let n = p.nodes;
    let mut rng = StdRng::seed_from_u64(p.seed);

    // Communities with power-law sizes around `community_size`.
    // community[i] = (start, len) over contiguous *pre-scramble* ids.
    let mut communities: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let len = powerlaw_degree(
            &mut rng,
            2.5,
            (p.community_size / 4).max(1) as f64,
            (p.community_size * 16) as f64,
        )
        .min(n - start);
        communities.push((start, len));
        start += len;
    }
    let mut comm_of = vec![0u32; n];
    for (ci, &(s, l)) in communities.iter().enumerate() {
        comm_of[s..s + l].fill(ci as u32);
    }

    // Degree sequence scaled to hit avg_deg.
    let min_deg = (p.avg_deg / 4.0).max(1.0);
    let max_deg = (n as f64 * p.max_deg_frac).max(min_deg + 1.0);
    let mut degs: Vec<usize> = (0..n)
        .map(|_| powerlaw_degree(&mut rng, p.alpha, min_deg, max_deg))
        .collect();
    let total: usize = degs.iter().sum();
    let scale = p.avg_deg * n as f64 / total.max(1) as f64;
    for d in &mut degs {
        *d = ((*d as f64 * scale).round() as usize).max(1);
    }

    // Stub list for degree-proportional global targets.
    let mut stubs: Vec<NodeId> = Vec::with_capacity(degs.iter().sum());
    for (u, &d) in degs.iter().enumerate() {
        for _ in 0..d {
            stubs.push(u as NodeId);
        }
    }

    // one edge per stub at most: sized once, so no growth copies are left
    // behind in the heap
    let mut coo = Coo::new(n);
    coo.u.reserve_exact(stubs.len());
    coo.v.reserve_exact(stubs.len());
    for (u, &d) in degs.iter().enumerate() {
        let (cs, cl) = communities[comm_of[u] as usize];
        for _ in 0..d {
            let v = if cl > 1 && rng.gen_bool(p.p_intra) {
                (cs + rng.gen_range(0..cl)) as NodeId
            } else {
                stubs[rng.gen_range(0..stubs.len())]
            };
            if v as usize != u {
                coo.push(u as NodeId, v);
            }
        }
    }

    if p.scramble {
        let perm = random_permutation(&mut rng, n);
        for e in 0..coo.num_edges() {
            coo.u[e] = perm[coo.u[e] as usize];
            coo.v[e] = perm[coo.v[e] as usize];
        }
    }

    Csr::from_coo_symmetric(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    fn small() -> SocialParams {
        SocialParams {
            nodes: 2000,
            avg_deg: 10.0,
            ..SocialParams::default()
        }
    }

    #[test]
    fn generates_valid_symmetric_csr() {
        let g = social_graph(&small());
        assert!(g.validate().is_ok());
        assert_eq!(g.num_nodes(), 2000);
        // symmetric: every edge has its reverse
        for (u, v) in g.edges().take(5000) {
            assert!(
                g.neighbors(v).binary_search(&u).is_ok(),
                "missing reverse of ({u},{v})"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = social_graph(&small());
        let b = social_graph(&small());
        assert_eq!(a, b);
        let c = social_graph(&SocialParams {
            seed: 43,
            ..small()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn hits_requested_density_roughly() {
        let p = small();
        let g = social_graph(&p);
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        // symmetrisation ~doubles, dedup removes some
        assert!(
            avg > p.avg_deg * 0.8 && avg < p.avg_deg * 2.6,
            "avg degree {avg}"
        );
    }

    #[test]
    fn low_alpha_more_skewed_than_high_alpha() {
        let lo = social_graph(&SocialParams {
            alpha: 1.8,
            max_deg_frac: 0.2,
            ..small()
        });
        let hi = social_graph(&SocialParams {
            alpha: 3.0,
            max_deg_frac: 0.2,
            ..small()
        });
        let s_lo = GraphStats::compute(&lo);
        let s_hi = GraphStats::compute(&hi);
        assert!(
            s_lo.degree_cv > s_hi.degree_cv,
            "alpha 1.8 CV {} should exceed alpha 3.0 CV {}",
            s_lo.degree_cv,
            s_hi.degree_cv
        );
    }

    #[test]
    fn scramble_destroys_id_locality() {
        let scrambled = social_graph(&small());
        let ordered = social_graph(&SocialParams {
            scramble: false,
            ..small()
        });
        let s = GraphStats::compute(&scrambled);
        let o = GraphStats::compute(&ordered);
        assert!(
            s.mean_neighbor_gap > o.mean_neighbor_gap * 1.5,
            "scrambled gap {} vs ordered gap {}",
            s.mean_neighbor_gap,
            o.mean_neighbor_gap
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = social_graph(&SocialParams {
            nodes: 0,
            ..SocialParams::default()
        });
    }
}
