//! Plain sequential reference implementations used to cross-check every
//! engine's functional results.

use crate::app::synthetic_weight;
use sage_graph::{Csr, NodeId};
use std::collections::VecDeque;

/// BFS hop distances (-1 = unreached).
#[must_use]
pub fn bfs_levels(g: &Csr, source: NodeId) -> Vec<i32> {
    let mut dist = vec![-1i32; g.num_nodes()];
    dist[source as usize] = 0;
    let mut q = VecDeque::from([source]);
    while let Some(u) = q.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v as usize] == -1 {
                dist[v as usize] = dist[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Brandes dependency scores and path counts for one source.
// sage-lint: allow(dead-pub) — the sequential oracle that integration_pipeline::bc_all_engines_within_tolerance and integration_crosscheck::bc_scores_invariant_under_self_reordering compare against
#[must_use]
pub fn bc_scores(g: &Csr, source: NodeId) -> (Vec<f64>, Vec<f64>) {
    let n = g.num_nodes();
    let mut dist = vec![-1i64; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::new();
    dist[source as usize] = 0;
    sigma[source as usize] = 1.0;
    let mut q = VecDeque::from([source]);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if dist[v as usize] == -1 {
                dist[v as usize] = dist[u as usize] + 1;
                q.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    for &u in order.iter().rev() {
        for &v in g.neighbors(u) {
            if dist[v as usize] == dist[u as usize] + 1 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    (sigma, delta)
}

/// Push PageRank, `iters` rounds with damping 0.85.
#[must_use]
pub fn pagerank(g: &Csr, iters: usize) -> Vec<f64> {
    let n = g.num_nodes();
    let mut pr = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.fill(0.0);
        for u in 0..n as NodeId {
            let deg = g.degree(u).max(1) as f64;
            let share = pr[u as usize] * 0.85 / deg;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        for v in 0..n {
            pr[v] = 0.15 / n as f64 + next[v];
        }
    }
    pr
}

/// Connected-component labels: min node id per component.
// sage-lint: allow(dead-pub) — the sequential oracle that prop_direction::cc_adaptive_equals_push_and_reference, prop_core and prop_serve compare CC against
#[must_use]
pub fn cc_labels(g: &Csr) -> Vec<u32> {
    let n = g.num_nodes();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n as NodeId {
            for &v in g.neighbors(u) {
                let lu = label[u as usize];
                if lu < label[v as usize] {
                    label[v as usize] = lu;
                    changed = true;
                }
            }
        }
    }
    label
}

/// Dijkstra over the synthetic weights ([`u32::MAX`] = unreached).
#[must_use]
pub fn sssp_dists(g: &Csr, source: NodeId) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![u32::MAX; g.num_nodes()];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            let nd = d + synthetic_weight(u, v);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn bfs_on_path() {
        assert_eq!(bfs_levels(&path4(), 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_levels(&path4(), 3), vec![3, 2, 1, 0]);
    }

    #[test]
    fn bc_on_path() {
        let (sigma, delta) = bc_scores(&path4(), 0);
        assert_eq!(sigma, vec![1.0; 4]);
        assert_eq!(delta, vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn pagerank_sums_to_one_on_regular_graph() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&g, 50);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cc_labels_components() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 0)]);
        assert_eq!(cc_labels(&g), vec![0, 0, 2, 3]);
    }

    #[test]
    fn sssp_source_zero() {
        let d = sssp_dists(&path4(), 0);
        assert_eq!(d[0], 0);
        assert!(d[1] >= 1 && d[3] >= d[2]);
    }
}
