//! Crawl-ordered hierarchical web graphs (uk-2002 family).
//!
//! A web crawl (UbiCrawler \[4\]) assigns ids in discovery order following
//! hyperlinks, so pages of the same host get contiguous ids and the graph
//! has "a relatively regular hierarchy" (§7.2). The generator lays out
//! hosts contiguously, links pages mostly within their host (nearby ids),
//! adds a tree of host-to-host links, and a small fraction of far links.

use super::powerlaw_degree;
use crate::coo::Coo;
use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a web graph with `nodes` pages and roughly `avg_deg` links per
/// page (directed, then symmetrised for traversal experiments).
///
/// # Panics
/// Panics if `nodes == 0`.
#[must_use]
pub fn web_graph(nodes: usize, avg_deg: f64, seed: u64) -> Csr {
    assert!(nodes > 0, "web graph needs at least one node");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = nodes;

    // Hosts: contiguous id ranges with lognormal-ish (mild power-law) sizes.
    let mut hosts: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let len = powerlaw_degree(&mut rng, 3.0, 16.0, 4096.0).min(n - start);
        hosts.push((start, len));
        start += len;
    }
    let mut host_of = vec![0u32; n];
    for (hi, &(s, l)) in hosts.iter().enumerate() {
        host_of[s..s + l].fill(hi as u32);
    }

    let mut coo = Coo::new(n);
    for u in 0..n {
        // Mildly varying degree: web pages have moderate, fairly uniform
        // outdegrees compared to social networks.
        let d = powerlaw_degree(&mut rng, 3.5, avg_deg * 0.5, avg_deg * 8.0);
        let (hs, hl) = hosts[host_of[u] as usize];
        for _ in 0..d {
            let r: f64 = rng.gen();
            let v = if r < 0.80 && hl > 1 {
                // intra-host navigation link
                (hs + rng.gen_range(0..hl)) as NodeId
            } else if r < 0.95 {
                // link to a "nearby" host (crawl frontier locality)
                let win = (8 * hl).max(64).min(n);
                let lo = u.saturating_sub(win / 2).min(n - win);
                (lo + rng.gen_range(0..win)) as NodeId
            } else {
                // far hyperlink
                rng.gen_range(0..n as NodeId)
            };
            if v as usize != u {
                coo.push(u as NodeId, v);
            }
        }
    }
    // Host hierarchy: each host links to its "parent" host's landing page.
    for hi in 1..hosts.len() {
        let (s, _) = hosts[hi];
        let (ps, _) = hosts[hi / 2];
        coo.push(s as NodeId, ps as NodeId);
        coo.push(ps as NodeId, s as NodeId);
    }

    Csr::from_coo_symmetric(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn valid_and_deterministic() {
        let a = web_graph(3000, 8.0, 7);
        let b = web_graph(3000, 8.0, 7);
        assert!(a.validate().is_ok());
        assert_eq!(a, b);
    }

    #[test]
    fn has_high_id_locality() {
        let g = web_graph(3000, 8.0, 7);
        let s = GraphStats::compute(&g);
        // Most links stay within hosts: neighbor ids are close to the source.
        assert!(
            s.mean_neighbor_gap < g.num_nodes() as f64 * 0.15,
            "web graph should be local, gap = {}",
            s.mean_neighbor_gap
        );
    }

    #[test]
    fn degree_distribution_is_mild() {
        let g = web_graph(3000, 8.0, 7);
        let s = GraphStats::compute(&g);
        assert!(
            s.degree_cv < 2.0,
            "web degree CV should be mild, got {}",
            s.degree_cv
        );
    }

    #[test]
    fn connected_enough_for_traversal() {
        // the host tree guarantees one weakly connected component dominates
        let g = web_graph(2000, 6.0, 9);
        let mut seen = vec![false; g.num_nodes()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut cnt = 1usize;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    cnt += 1;
                    stack.push(v);
                }
            }
        }
        assert!(cnt > g.num_nodes() * 9 / 10, "reached only {cnt}");
    }

    #[test]
    fn respects_density_request() {
        let g = web_graph(3000, 8.0, 7);
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(avg > 6.0 && avg < 40.0, "avg {avg}");
    }
}
