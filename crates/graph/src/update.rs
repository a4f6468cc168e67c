//! Dynamic graph updates on CSR.
//!
//! §7.2: "once the CSR receives new graph updates, we can reorder the graph
//! format quickly by invoking Sampling-based Reordering" — unlike the
//! preprocessing baselines which must rebuild from scratch. This module
//! provides the batched insert/delete merge that produces the updated CSR.

use crate::csr::Csr;
use crate::NodeId;

/// A batch of pending edge insertions and deletions.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    inserts: Vec<(NodeId, NodeId)>,
    deletes: Vec<(NodeId, NodeId)>,
}

impl UpdateBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an edge insertion.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.inserts.push((u, v));
        self
    }

    /// Queue a symmetric (undirected) insertion.
    pub fn insert_undirected(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.inserts.push((u, v));
        self.inserts.push((v, u));
        self
    }

    /// Queue an edge deletion.
    // sage-lint: allow(dead-pub) — builds the deletion batches that prop_graph::update_batch_apply_validates merges
    pub fn delete(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.deletes.push((u, v));
        self
    }

    /// Number of queued operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Merge the batch into `g`, producing the updated CSR. Nodes beyond the
    /// current id range grow the graph. Deletions of absent edges are
    /// ignored; duplicate insertions collapse.
    #[must_use]
    pub fn apply(&self, g: &Csr) -> Csr {
        let mut max_node = g.num_nodes() as i64 - 1;
        for &(u, v) in &self.inserts {
            max_node = max_node.max(i64::from(u)).max(i64::from(v));
        }
        let n = (max_node + 1).max(1) as usize;

        let mut del = self.deletes.clone();
        del.sort_unstable();
        del.dedup();
        let is_deleted = |e: (NodeId, NodeId)| -> bool { del.binary_search(&e).is_ok() };

        let mut edges: Vec<(NodeId, NodeId)> = g.edges().filter(|&e| !is_deleted(e)).collect();
        for &(u, v) in &self.inserts {
            if u != v && !is_deleted((u, v)) {
                edges.push((u, v));
            }
        }
        Csr::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn insert_adds_edges() {
        let mut b = UpdateBatch::new();
        b.insert(3, 0).insert(0, 2);
        let g = b.apply(&base());
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn delete_removes_edges() {
        let mut b = UpdateBatch::new();
        b.delete(1, 2);
        let g = b.apply(&base());
        assert_eq!(g.num_edges(), 2);
        assert!(g.neighbors(1).is_empty());
    }

    #[test]
    fn delete_wins_over_insert_in_same_batch() {
        let mut b = UpdateBatch::new();
        b.insert(0, 3).delete(0, 3);
        let g = b.apply(&base());
        assert!(g.neighbors(0).binary_search(&3).is_err());
    }

    #[test]
    fn inserting_new_node_grows_graph() {
        let mut b = UpdateBatch::new();
        b.insert(5, 0);
        let g = b.apply(&base());
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.neighbors(5), &[0]);
    }

    #[test]
    fn undirected_insert_adds_both_directions() {
        let mut b = UpdateBatch::new();
        b.insert_undirected(0, 3);
        let g = b.apply(&base());
        assert!(g.neighbors(0).binary_search(&3).is_ok());
        assert!(g.neighbors(3).binary_search(&0).is_ok());
    }

    #[test]
    fn duplicate_inserts_collapse() {
        let mut b = UpdateBatch::new();
        b.insert(0, 2).insert(0, 2).insert(0, 1);
        let g = b.apply(&base());
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn deleting_absent_edge_is_noop() {
        let mut b = UpdateBatch::new();
        b.delete(3, 1);
        let g = b.apply(&base());
        assert_eq!(g, base());
    }

    #[test]
    fn empty_batch_is_identity() {
        let b = UpdateBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.apply(&base()), base());
    }

    #[test]
    fn self_loop_insert_ignored() {
        let mut b = UpdateBatch::new();
        b.insert(1, 1);
        let g = b.apply(&base());
        assert_eq!(g, base());
    }

    #[test]
    fn len_counts_both_kinds() {
        let mut b = UpdateBatch::new();
        b.insert(0, 1).delete(1, 2);
        assert_eq!(b.len(), 2);
    }
}
