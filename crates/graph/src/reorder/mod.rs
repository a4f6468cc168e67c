//! Node reordering: bijections `σ : V → V` that relabel nodes to improve
//! the memory locality of traversal (§3.2, §7.2).
//!
//! Baselines implemented from their papers:
//! * [`rcm`] — Reverse Cuthill–McKee \[10\]: bandwidth reduction;
//! * [`llp`] — Layered Label Propagation \[5\]: multiresolution clustering;
//! * [`gorder`] — Gorder \[49\]: sliding-window Gscore maximisation;
//!
//! plus utility orders (identity, random, degree-descending) used in tests
//! and ablations. SAGE's own *Sampling-based Reordering* lives in the `sage`
//! crate because it samples live tile accesses.

pub mod gorder;
pub mod llp;
pub mod rcm;

pub use gorder::gorder_order;
pub use llp::{llp_order, LlpParams};
pub use rcm::rcm_order;

use crate::csr::Csr;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A bijection over node ids: `new_id = perm[old_id]`.
///
/// ```
/// use sage_graph::{Csr, Permutation};
///
/// let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
/// let p = Permutation::from_order(&[2, 0, 1]); // old 2 first, then 0, then 1
/// let h = p.apply_csr(&g);
/// assert!(h.neighbors(p.map(0)).contains(&p.map(1)));
/// assert_eq!(p.then(&p.inverse()), Permutation::identity(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_of_old: Vec<NodeId>,
}

impl Permutation {
    /// Wrap a mapping, validating bijectivity.
    ///
    /// # Panics
    /// Panics if `new_of_old` is not a permutation of `0..len`.
    #[must_use]
    pub fn new(new_of_old: Vec<NodeId>) -> Self {
        let n = new_of_old.len();
        let mut seen = vec![false; n];
        for &x in &new_of_old {
            assert!(
                (x as usize) < n && !seen[x as usize],
                "not a bijection over 0..{n}"
            );
            seen[x as usize] = true;
        }
        Self { new_of_old }
    }

    /// The identity permutation over `n` nodes.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            new_of_old: (0..n as NodeId).collect(),
        }
    }

    /// A seeded random permutation.
    // sage-lint: allow(dead-pub) — scrambles the fixture graphs of prop_graph::permutation_preserves_graph_structure and integration_crosscheck::bfs_levels_invariant_under_every_reordering
    #[must_use]
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            new_of_old: crate::gen::random_permutation(&mut rng, n),
        }
    }

    /// Build from a *placement order*: `order[k]` is the old id placed at
    /// new position `k`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation.
    #[must_use]
    pub fn from_order(order: &[NodeId]) -> Self {
        let n = order.len();
        let mut new_of_old = vec![NodeId::MAX; n];
        for (new_id, &old) in order.iter().enumerate() {
            assert!(
                (old as usize) < n && new_of_old[old as usize] == NodeId::MAX,
                "order is not a permutation"
            );
            new_of_old[old as usize] = new_id as NodeId;
        }
        Self { new_of_old }
    }

    /// New id of `old`.
    #[inline]
    #[must_use]
    pub fn map(&self, old: NodeId) -> NodeId {
        self.new_of_old[old as usize]
    }

    /// The raw mapping.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.new_of_old
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True for the empty permutation.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The inverse bijection (`old_id = inv[new_id]`).
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0 as NodeId; self.len()];
        for (old, &new) in self.new_of_old.iter().enumerate() {
            inv[new as usize] = old as NodeId;
        }
        Self { new_of_old: inv }
    }

    /// Compose: apply `self` first, then `then` (`result = then ∘ self`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[must_use]
    pub fn then(&self, then: &Permutation) -> Self {
        assert_eq!(self.len(), then.len(), "length mismatch");
        Self {
            new_of_old: self.new_of_old.iter().map(|&mid| then.map(mid)).collect(),
        }
    }

    /// Rebuild the graph under this relabelling: node `perm[u]` gets
    /// neighbors `{perm[v]}`, adjacency re-sorted.
    ///
    /// # Panics
    /// Panics on node-count mismatch.
    #[must_use]
    pub fn apply_csr(&self, g: &Csr) -> Csr {
        assert_eq!(self.len(), g.num_nodes(), "node count mismatch");
        let n = g.num_nodes();
        let inv = self.inverse();
        let mut offsets = vec![0u32; n + 1];
        for new_u in 0..n {
            let old_u = inv.map(new_u as NodeId);
            offsets[new_u + 1] = offsets[new_u] + g.degree(old_u) as u32;
        }
        let mut targets = Vec::with_capacity(g.num_edges());
        let mut scratch: Vec<NodeId> = Vec::new();
        for new_u in 0..n {
            let old_u = inv.map(new_u as NodeId);
            scratch.clear();
            scratch.extend(g.neighbors(old_u).iter().map(|&v| self.map(v)));
            scratch.sort_unstable();
            targets.extend_from_slice(&scratch);
        }
        Csr::from_parts(offsets, targets).expect("permuted CSR must be valid")
    }

    /// Relabel per-node values: `out[perm[u]] = values[u]`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[must_use]
    pub fn apply_values<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(self.len(), values.len(), "length mismatch");
        let mut out: Vec<T> = values.to_vec();
        for (old, v) in values.iter().enumerate() {
            out[self.new_of_old[old] as usize] = v.clone();
        }
        out
    }
}

/// A named reordering method, for experiment harnesses.
pub trait ReorderMethod {
    /// Method name as printed in figures/tables.
    fn name(&self) -> &'static str;
    /// Compute the permutation for a graph.
    fn compute(&self, g: &Csr) -> Permutation;
}

/// Identity (the "Original" bar of Figure 6).
pub struct Original;

impl ReorderMethod for Original {
    fn name(&self) -> &'static str {
        "Original"
    }
    fn compute(&self, g: &Csr) -> Permutation {
        Permutation::identity(g.num_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.map(i), i);
        }
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn non_bijection_rejected() {
        let _ = Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::random(64, 9);
        let composed = p.then(&p.inverse());
        assert_eq!(composed, Permutation::identity(64));
    }

    #[test]
    fn from_order_roundtrip() {
        // place old node 2 first, then 0, then 1
        let p = Permutation::from_order(&[2, 0, 1]);
        assert_eq!(p.map(2), 0);
        assert_eq!(p.map(0), 1);
        assert_eq!(p.map(1), 2);
    }

    #[test]
    fn apply_csr_preserves_structure() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let p = Permutation::random(4, 3);
        let h = p.apply_csr(&g);
        assert!(h.validate().is_ok());
        assert_eq!(h.num_edges(), g.num_edges());
        // every original edge exists under the new labels
        for (u, v) in g.edges() {
            assert!(h.neighbors(p.map(u)).binary_search(&p.map(v)).is_ok());
        }
    }

    #[test]
    fn apply_csr_with_identity_is_noop() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(Permutation::identity(4).apply_csr(&g), g);
    }

    #[test]
    fn apply_values_relabels() {
        let p = Permutation::from_order(&[2, 0, 1]); // old2->0, old0->1, old1->2
        let vals = vec!["a", "b", "c"];
        assert_eq!(p.apply_values(&vals), vec!["c", "a", "b"]);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        assert_eq!(Permutation::random(50, 7), Permutation::random(50, 7));
        assert_ne!(Permutation::random(50, 7), Permutation::random(50, 8));
    }

    #[test]
    fn original_method_is_identity() {
        let g = Csr::from_edges(3, &[(0, 1)]);
        let m = Original;
        assert_eq!(m.name(), "Original");
        assert_eq!(m.compute(&g), Permutation::identity(3));
    }
}
