//! Compressed Sparse Row (CSR \[45\]): `u_offset` + `v` of Figure 1 — the
//! representation SAGE operates on directly, with no preprocessing.

use crate::coo::Coo;
use crate::{ingest, EdgeIdx, NodeId};
use std::ops::Range;

/// A node-centric graph in CSR form.
///
/// Invariants (checked by [`Csr::validate`]):
/// * `offsets.len() == num_nodes + 1`, `offsets\[0\] == 0`, non-decreasing;
/// * `targets.len() == offsets[num_nodes]`;
/// * every target is `< num_nodes`;
/// * each adjacency list is sorted ascending (Figure 1 shows the sorted
///   edge list; sortedness also makes neighbor sets canonical for tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<EdgeIdx>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Build from COO: rows sorted ascending, duplicate edges and
    /// self-loops dropped.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= coo.num_nodes`.
    // sage-lint: allow(dead-pub) — the reference that prop_graph::builder_output_independent_of_part_count compares the parallel builder against
    #[must_use]
    pub fn from_coo(coo: &Coo) -> Self {
        Self::build(coo.num_nodes, coo.num_edges(), |r| coo.edges(r), false)
    }

    /// Build the symmetric (undirected) closure of a COO: every edge is
    /// stored in both directions, then normalised as in [`Csr::from_coo`].
    ///
    /// # Panics
    /// Panics if an endpoint is `>= coo.num_nodes`.
    #[must_use]
    pub fn from_coo_symmetric(coo: &Coo) -> Self {
        Self::build(coo.num_nodes, coo.num_edges(), |r| coo.edges(r), true)
    }

    /// Build directly from an edge slice (normalised as in
    /// [`Csr::from_coo`]).
    ///
    /// # Panics
    /// Panics if an endpoint is `>= num_nodes`.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::build(num_nodes, edges.len(), |r| edges[r].iter().copied(), false)
    }

    /// The one CSR builder ([`ingest::build_csr`]), split into parts by
    /// the input's size; the result does not depend on the part count.
    fn build<F, I>(n: usize, len: usize, edges: F, symmetric: bool) -> Self
    where
        F: Fn(Range<usize>) -> I + Sync,
        I: Iterator<Item = (NodeId, NodeId)>,
    {
        let parts = ingest::parts_for(len << usize::from(symmetric));
        let (offsets, targets) = ingest::build_csr(n, len, edges, symmetric, parts);
        let csr = Self { offsets, targets };
        debug_assert!(csr.validate().is_ok(), "builder broke a CSR invariant");
        csr
    }

    /// Build from raw parts.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn from_parts(offsets: Vec<EdgeIdx>, targets: Vec<NodeId>) -> Result<Self, String> {
        let csr = Self { offsets, targets };
        csr.validate()?;
        Ok(csr)
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u` (`|OutDeg(u)|` in the paper's notation).
    #[inline]
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Start of `u`'s adjacency range in the target array.
    #[inline]
    #[must_use]
    pub fn offset(&self, u: NodeId) -> EdgeIdx {
        self.offsets[u as usize]
    }

    /// `u`'s neighbors, sorted ascending.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let b = self.offsets[u as usize] as usize;
        let e = self.offsets[u as usize + 1] as usize;
        &self.targets[b..e]
    }

    /// The offset array (`u_offset` of Figure 1).
    #[must_use]
    pub fn offsets(&self) -> &[EdgeIdx] {
        &self.offsets
    }

    /// The target array (`v` of Figure 1).
    #[must_use]
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Iterate all edges as `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Largest out-degree and the node that has it.
    #[must_use]
    pub fn max_degree(&self) -> (NodeId, usize) {
        let mut best = (0, 0);
        for u in 0..self.num_nodes() as NodeId {
            let d = self.degree(u);
            if d > best.1 {
                best = (u, d);
            }
        }
        best
    }

    /// The reverse graph (every edge flipped) — used by Gorder's common
    /// in-neighbor score and by pull-style PageRank.
    #[must_use]
    pub fn reversed(&self) -> Csr {
        let n = self.num_nodes();
        let mut offsets = vec![0 as EdgeIdx; n + 1];
        for &v in &self.targets {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; self.targets.len()];
        for u in 0..n as NodeId {
            for &v in self.neighbors(u) {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        // Each reverse adjacency is built in ascending u order, so sorted.
        Csr { offsets, targets }
    }

    /// True exactly when `self.reversed() == *self`: every edge `u → v`
    /// has its mirror `v → u`. One read-only pass that replays
    /// [`Csr::reversed`]'s scatter against the stored rows: visiting `u`
    /// in ascending order, row `v` must receive `u` next. Every cursor
    /// stays within its row and the `E` checks fill `E` slots, so each
    /// row is matched exactly.
    #[must_use]
    pub fn is_symmetric(&self) -> bool {
        let mut cursor = self.offsets[..self.num_nodes()].to_vec();
        for u in 0..self.num_nodes() as NodeId {
            for &v in self.neighbors(u) {
                let c = &mut cursor[v as usize];
                if *c == self.offsets[v as usize + 1] || self.targets[*c as usize] != u {
                    return false;
                }
                *c += 1;
            }
        }
        true
    }

    /// Check all invariants.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] must be 0".into());
        }
        let n = self.num_nodes();
        for i in 0..n {
            if self.offsets[i] > self.offsets[i + 1] {
                return Err(format!("offsets not monotone at node {i}"));
            }
        }
        if self.offsets[n] as usize != self.targets.len() {
            return Err(format!(
                "last offset {} != targets len {}",
                self.offsets[n],
                self.targets.len()
            ));
        }
        for (i, &t) in self.targets.iter().enumerate() {
            if t as usize >= n {
                return Err(format!("target {t} at edge {i} out of range"));
            }
        }
        for u in 0..n as NodeId {
            let nb = self.neighbors(u);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {u} not strictly ascending"));
                }
            }
        }
        Ok(())
    }

    /// Memory footprint of the representation in bytes (4-byte entries).
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.offsets.len() + self.targets.len()) * 4
    }

    /// Convert back to normalised COO.
    #[must_use]
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.num_nodes());
        for (u, v) in self.edges() {
            coo.push(u, v);
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.offset(1), 2);
    }

    #[test]
    fn figure1_example() {
        // Figure 1 of the paper: the sorted edge list with u_offset/v.
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 0)]);
        assert_eq!(g.offsets(), &[0, 2, 3, 5, 6, 7]);
        assert_eq!(g.targets(), &[1, 2, 3, 3, 4, 4, 0]);
    }

    #[test]
    fn duplicate_edges_and_loops_removed() {
        let g = Csr::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_rejected() {
        let _ = Csr::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        let g2 = Csr::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn reversed_flips_edges() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.neighbors(3), &[1, 2]);
        assert_eq!(r.neighbors(0), &[] as &[NodeId]);
        assert!(r.validate().is_ok());
        // reversing twice restores the graph
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn symmetry_detected() {
        assert!(!diamond().is_symmetric());
        let sym = Csr::from_coo_symmetric(&diamond().to_coo());
        assert!(sym.is_symmetric());
        // a missing mirror in the last row, after every other row matched
        assert!(!Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2)]).is_symmetric());
        assert!(Csr::from_edges(1, &[]).is_symmetric());
    }

    #[test]
    fn max_degree_found() {
        let g = diamond();
        assert_eq!(g.max_degree(), (0, 2));
    }

    #[test]
    fn validate_rejects_bad_parts() {
        assert!(Csr::from_parts(vec![], vec![]).is_err());
        assert!(Csr::from_parts(vec![1, 2], vec![0, 0]).is_err()); // offsets[0] != 0
        assert!(Csr::from_parts(vec![0, 2, 1], vec![0, 0]).is_err()); // not monotone
        assert!(Csr::from_parts(vec![0, 1], vec![5]).is_err()); // target range
        assert!(Csr::from_parts(vec![0, 2], vec![1, 0]).is_err()); // unsorted adjacency
        assert!(Csr::from_parts(vec![0, 3], vec![0, 0]).is_err()); // length mismatch
    }

    #[test]
    fn valid_parts_accepted() {
        let g = Csr::from_parts(vec![0, 1, 2], vec![1, 0]).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn to_coo_roundtrip() {
        let g = diamond();
        let coo = g.to_coo();
        assert_eq!(Csr::from_coo(&coo), g);
    }

    #[test]
    fn bytes_counts_both_arrays() {
        let g = diamond();
        assert_eq!(g.bytes(), (5 + 4) * 4);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Csr::from_edges(10, &[(0, 9)]);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(5), 0);
        assert!(g.validate().is_ok());
    }
}
