//! Coordinate format (COO \[36\]): the sorted edge list `(u[], v[])` of
//! Figure 1. Mostly an interchange format — generators and IO produce COO,
//! [`Csr`] is built from it.

use crate::csr::Csr;
use crate::NodeId;
use std::ops::Range;

/// An edge list in coordinate format, in any order and possibly with
/// duplicates and self-loops; [`Csr::from_coo`] sorts and drops them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coo {
    /// Number of nodes (ids are `0..num_nodes`).
    pub num_nodes: usize,
    /// Source endpoint per edge.
    pub u: Vec<NodeId>,
    /// Target endpoint per edge.
    pub v: Vec<NodeId>,
}

impl Coo {
    /// An empty graph over `num_nodes` nodes.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            u: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Build from an edge slice.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut coo = Self::new(num_nodes);
        coo.u.reserve(edges.len());
        coo.v.reserve(edges.len());
        for &(a, b) in edges {
            coo.push(a, b);
        }
        coo
    }

    /// Append one directed edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn push(&mut self, a: NodeId, b: NodeId) {
        assert!(
            (a as usize) < self.num_nodes && (b as usize) < self.num_nodes,
            "edge ({a},{b}) out of range for {} nodes",
            self.num_nodes
        );
        self.u.push(a);
        self.v.push(b);
    }

    /// Number of edges currently stored.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.u.len()
    }

    /// True when no edges are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.u.is_empty()
    }

    /// Add the reverse of every edge, then sort and drop duplicates and
    /// self-loops — makes the graph symmetric (undirected), as the paper's
    /// traversal datasets are used.
    // sage-lint: allow(dead-pub) — builds the symmetric fixture graphs of prop_graph::is_symmetric_matches_reversed_equality
    pub fn symmetrize(&mut self) {
        *self = Csr::from_coo_symmetric(self).to_coo();
    }

    /// Iterate over edges as `(u, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + Clone + '_ {
        self.edges(0..self.num_edges())
    }

    /// The edges at indices `r`, as `(u, v)` pairs.
    pub(crate) fn edges(
        &self,
        r: Range<usize>,
    ) -> impl Iterator<Item = (NodeId, NodeId)> + Clone + '_ {
        self.u[r.clone()]
            .iter()
            .copied()
            .zip(self.v[r].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut c = Coo::new(4);
        c.push(0, 1);
        c.push(2, 3);
        assert_eq!(c.num_edges(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let mut c = Coo::new(2);
        c.push(0, 5);
    }

    #[test]
    fn symmetrize_adds_reverse_edges() {
        let mut c = Coo::from_edges(3, &[(0, 1), (1, 2)]);
        c.symmetrize();
        let edges: Vec<_> = c.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }

    #[test]
    fn symmetrize_idempotent_on_symmetric_input() {
        let mut c = Coo::from_edges(3, &[(0, 1), (1, 0)]);
        c.symmetrize();
        assert_eq!(c.num_edges(), 2);
    }

    #[test]
    fn empty_graph() {
        let c = Coo::new(0);
        assert!(c.is_empty());
        assert_eq!(c.num_edges(), 0);
    }
}
