//! Weighted neighbor sampling for random walks.
//!
//! Inverse-transform sampling (ITS), C-SAW's GPU walk sampler, needs no
//! precomputation: each draw scans the row, accumulates weights, and picks
//! the neighbor whose cumulative range contains the draw. O(degree) work
//! and memory traffic per draw, and nothing to rebuild when the graph is
//! reordered or updated.

use crate::csr::Csr;
use crate::NodeId;

/// Draw a neighbor of `u` by inverse-transform sampling over the row's
/// cumulative weights: O(degree) per draw, no precomputation. Returns
/// `(neighbor, in_row_index)` or `None` for a sink node. A row whose
/// weights are all zero falls back to uniform.
#[must_use]
pub fn its_sample(
    g: &Csr,
    u: NodeId,
    r: u64,
    weight: impl Fn(NodeId, NodeId) -> u32,
) -> Option<(NodeId, u32)> {
    let row = g.neighbors(u);
    if row.is_empty() {
        return None;
    }
    let total: u64 = row.iter().map(|&v| u64::from(weight(u, v))).sum();
    if total == 0 {
        let idx = (r % row.len() as u64) as u32;
        return Some((row[idx as usize], idx));
    }
    let mut pick = r % total;
    for (i, &v) in row.iter().enumerate() {
        let w = u64::from(weight(u, v));
        if pick < w {
            return Some((v, i as u32));
        }
        pick -= w;
    }
    // unreachable with total > 0; keep the last slot for safety
    Some((row[row.len() - 1], (row.len() - 1) as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> Csr {
        // node 0 points at 1, 2, 3; other nodes point back at 0
        Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    #[test]
    fn its_frequencies_match_weights() {
        // weights 1:2:5 on node 0's three out-edges
        let g = wheel();
        let w = |_: NodeId, v: NodeId| match v {
            1 => 1,
            2 => 2,
            _ => 5,
        };
        let mut counts = [0u64; 4];
        let draws = 64_000u64;
        for i in 0..draws {
            let (v, _) = its_sample(&g, 0, mix(i), w).unwrap();
            counts[v as usize] += 1;
        }
        let f1 = counts[1] as f64 / draws as f64;
        let f2 = counts[2] as f64 / draws as f64;
        let f3 = counts[3] as f64 / draws as f64;
        assert!((f1 - 1.0 / 8.0).abs() < 0.02, "f1 = {f1}");
        assert!((f2 - 2.0 / 8.0).abs() < 0.02, "f2 = {f2}");
        assert!((f3 - 5.0 / 8.0).abs() < 0.03, "f3 = {f3}");
    }

    #[test]
    fn sink_nodes_sample_none() {
        let g = Csr::from_edges(2, &[(0, 1)]);
        assert!(its_sample(&g, 1, 3, |_, _| 1).is_none());
    }

    #[test]
    fn zero_weight_row_falls_back_to_uniform() {
        let g = wheel();
        let mut seen = [false; 4];
        for i in 0..64u64 {
            let (v, _) = its_sample(&g, 0, mix(i), |u, _| u32::from(u != 0)).unwrap();
            seen[v as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3], "uniform fallback: {seen:?}");
    }

    #[test]
    fn in_row_index_agrees_with_neighbor() {
        let g = wheel();
        for i in 0..200u64 {
            let (v, idx) = its_sample(&g, 0, mix(i), |_, v| 1 + v).unwrap();
            assert_eq!(g.neighbors(0)[idx as usize], v);
        }
    }
}
