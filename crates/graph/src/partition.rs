//! METIS-like balanced edge-cut partitioning for the multi-GPU scenario.
//!
//! §7.2 pre-partitions graphs with metis \[22\] for the Gunrock/Groute
//! baselines. This is a greedy BFS-growth partitioner with one
//! boundary-refinement pass: seeds are spread through the graph, regions
//! grow by claiming the frontier vertex with the most already-claimed
//! neighbors (minimising cut), and a refinement pass moves boundary
//! vertices with positive gain while keeping balance.

use crate::csr::Csr;
use crate::NodeId;

/// A k-way node partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// `part[u]` = partition id of node `u`.
    pub part: Vec<u32>,
    /// Number of partitions.
    pub k: usize,
}

impl Partitioning {
    /// Nodes per partition.
    #[cfg(test)]
    fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &p in &self.part {
            s[p as usize] += 1;
        }
        s
    }

    /// Number of cut edges (endpoints in different partitions).
    #[cfg(test)]
    fn cut_edges(&self, g: &Csr) -> usize {
        g.edges()
            .filter(|&(u, v)| self.part[u as usize] != self.part[v as usize])
            .count()
    }

    /// Balance factor: largest partition over ideal size (1.0 = perfect).
    #[cfg(test)]
    fn balance(&self) -> f64 {
        let sizes = self.sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let ideal = self.part.len() as f64 / self.k as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max / ideal
        }
    }
}

/// Partition `g` into `k` balanced parts minimising the edge cut.
///
/// # Panics
/// Panics if `k == 0`.
#[must_use]
pub fn partition_graph(g: &Csr, k: usize) -> Partitioning {
    assert!(k > 0, "k must be positive");
    let n = g.num_nodes();
    if k == 1 || n == 0 {
        return Partitioning {
            part: vec![0; n],
            k,
        };
    }

    const UNASSIGNED: u32 = u32::MAX;
    let mut part = vec![UNASSIGNED; n];
    let cap = n.div_ceil(k);
    let mut sizes = vec![0usize; k];

    // Seeds spread across the id space.
    let mut frontiers: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (p, f) in frontiers.iter_mut().enumerate() {
        let seed = (p * n / k) as NodeId;
        f.push(seed);
    }

    // Round-robin BFS growth: the smallest partition claims next, preferring
    // frontier vertices with many neighbors already inside it.
    let mut assigned = 0usize;
    while assigned < n {
        // pick the smallest unfinished partition
        let p = (0..k)
            .filter(|&p| sizes[p] < cap)
            .min_by_key(|&p| sizes[p])
            .unwrap_or(0);
        // pop an unassigned frontier vertex with max internal affinity
        let mut best: Option<(usize, usize)> = None; // (frontier idx, affinity)
        for (i, &u) in frontiers[p].iter().enumerate().rev().take(64) {
            if part[u as usize] != UNASSIGNED {
                continue;
            }
            let aff = g
                .neighbors(u)
                .iter()
                .filter(|&&v| part[v as usize] == p as u32)
                .count();
            if best.is_none_or(|(_, b)| aff > b) {
                best = Some((i, aff));
            }
        }
        let u = match best {
            Some((i, _)) => frontiers[p].swap_remove(i),
            None => {
                // frontier exhausted: jump to the next unassigned vertex
                match part.iter().position(|&x| x == UNASSIGNED) {
                    Some(u) => u as NodeId,
                    None => break,
                }
            }
        };
        if part[u as usize] != UNASSIGNED {
            continue;
        }
        part[u as usize] = p as u32;
        sizes[p] += 1;
        assigned += 1;
        for &v in g.neighbors(u) {
            if part[v as usize] == UNASSIGNED {
                frontiers[p].push(v);
            }
        }
    }

    // One refinement pass: move boundary vertices with positive gain.
    let slack = cap + cap / 8;
    for u in 0..n as NodeId {
        let cur = part[u as usize];
        let mut counts = vec![0usize; k];
        for &v in g.neighbors(u) {
            counts[part[v as usize] as usize] += 1;
        }
        if let Some((best_p, &best_c)) = counts.iter().enumerate().max_by_key(|&(_, c)| *c) {
            if best_p as u32 != cur
                && best_c > counts[cur as usize]
                && sizes[best_p] < slack
                && sizes[cur as usize] > 1
            {
                sizes[cur as usize] -= 1;
                sizes[best_p] += 1;
                part[u as usize] = best_p as u32;
            }
        }
    }

    Partitioning { part, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{social_graph, uniform_graph, SocialParams};

    #[test]
    fn every_node_assigned_and_in_range() {
        let g = uniform_graph(500, 3000, 1);
        let p = partition_graph(&g, 4);
        assert_eq!(p.part.len(), 500);
        assert!(p.part.iter().all(|&x| x < 4));
    }

    #[test]
    fn k1_puts_everything_in_partition_zero() {
        let g = uniform_graph(100, 500, 2);
        let p = partition_graph(&g, 1);
        assert!(p.part.iter().all(|&x| x == 0));
        assert_eq!(p.cut_edges(&g), 0);
    }

    #[test]
    fn partitions_are_balanced() {
        let g = uniform_graph(1000, 8000, 3);
        let p = partition_graph(&g, 2);
        assert!(p.balance() < 1.3, "balance {}", p.balance());
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn beats_random_cut_on_community_graph() {
        let g = social_graph(&SocialParams {
            nodes: 2000,
            avg_deg: 12.0,
            p_intra: 0.8,
            scramble: false,
            ..SocialParams::default()
        });
        let p = partition_graph(&g, 2);
        // random 2-way cut severs ~half the edges
        let random_cut = g.num_edges() / 2;
        let cut = p.cut_edges(&g);
        assert!(
            cut < random_cut * 8 / 10,
            "cut {cut} should beat random {random_cut}"
        );
    }

    #[test]
    fn handles_disconnected_graph() {
        // two disjoint cliques
        let mut edges = Vec::new();
        for a in 0..10u32 {
            for b in 0..10u32 {
                if a != b {
                    edges.push((a, b));
                    edges.push((a + 10, b + 10));
                }
            }
        }
        let g = Csr::from_edges(20, &edges);
        let p = partition_graph(&g, 2);
        assert_eq!(p.part.len(), 20);
        // ideal split: one clique per partition, cut = 0
        assert!(p.cut_edges(&g) <= g.num_edges() / 4);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let g = uniform_graph(10, 20, 0);
        let _ = partition_graph(&g, 0);
    }

    #[test]
    fn more_parts_than_nodes_still_works() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let p = partition_graph(&g, 8);
        assert_eq!(p.part.len(), 3);
        assert!(p.part.iter().all(|&x| x < 8));
    }
}
