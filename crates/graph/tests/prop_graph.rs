//! Property-based tests for the graph substrate: representation
//! invariants, IO round-trips, permutation algebra, update semantics.

use proptest::prelude::*;
use sage_graph::reorder::{gorder_order, llp_order, rcm_order, LlpParams, Permutation};
use sage_graph::update::UpdateBatch;
use sage_graph::{io, Coo, Csr, NodeId};
use std::io::Cursor;

/// Strategy: a small random edge list over up to `max_n` nodes.
fn edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let e = prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m);
        (Just(n), e)
    })
}

/// Strategy: an edge list dense in duplicates and self-loops, over `0..40`
/// nodes (`n = 0` about one case in nine, with no edges), leaving some rows
/// empty and some nodes isolated.
fn multigraph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (0usize..45).prop_flat_map(|raw| {
        let n = raw.saturating_sub(5);
        let hi = n.max(1) as NodeId;
        let e = prop::collection::vec((0..hi, 0..hi), 0..200).prop_map(move |es| {
            if n == 0 {
                Vec::new()
            } else {
                es
            }
        });
        (Just(n), e)
    })
}

/// Reference normalisation, independent of the CSR builder: collect the
/// (optionally mirrored) pairs, drop self-loops, `sort_unstable`, `dedup`.
fn oracle_pairs(es: &[(NodeId, NodeId)], symmetric: bool) -> Vec<(NodeId, NodeId)> {
    let mirrored = es.iter().filter(|_| symmetric).map(|&(a, b)| (b, a));
    let mut pairs: Vec<(NodeId, NodeId)> = es
        .iter()
        .copied()
        .chain(mirrored)
        .filter(|&(a, b)| a != b)
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The CSR of sorted, deduplicated pairs, assembled by hand.
fn oracle_csr(n: usize, pairs: &[(NodeId, NodeId)]) -> Csr {
    let mut offsets = vec![0u32; n + 1];
    for &(a, _) in pairs {
        offsets[a as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    Csr::from_parts(offsets, pairs.iter().map(|&(_, b)| b).collect()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_matches_sort_dedup_oracle((n, es) in multigraph()) {
        let plain = oracle_pairs(&es, false);
        let sym = oracle_pairs(&es, true);
        let coo = Coo::from_edges(n, &es);
        prop_assert_eq!(Csr::from_edges(n, &es), oracle_csr(n, &plain));
        prop_assert_eq!(Csr::from_coo(&coo), oracle_csr(n, &plain));
        prop_assert_eq!(Csr::from_coo_symmetric(&coo), oracle_csr(n, &sym));
        let mut normalized = coo.clone();
        normalized.normalize();
        prop_assert_eq!(normalized.iter().collect::<Vec<_>>(), plain);
        let mut symmetrized = coo;
        symmetrized.symmetrize();
        prop_assert_eq!(symmetrized.iter().collect::<Vec<_>>(), sym);
        prop_assert_eq!(symmetrized.num_nodes, n);
    }

    #[test]
    fn csr_from_edges_always_validates((n, es) in edges(64, 256)) {
        let g = Csr::from_edges(n, &es);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_nodes(), n);
    }

    #[test]
    fn csr_dedups_and_drops_loops((n, es) in edges(64, 256)) {
        let g = Csr::from_edges(n, &es);
        let mut unique: Vec<(NodeId, NodeId)> =
            es.iter().copied().filter(|&(a, b)| a != b).collect();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(g.num_edges(), unique.len());
    }

    #[test]
    fn coo_symmetrize_makes_symmetric((n, es) in edges(48, 128)) {
        let mut coo = Coo::from_edges(n, &es);
        coo.symmetrize();
        let g = Csr::from_coo(&coo);
        for (u, v) in g.edges() {
            prop_assert!(g.neighbors(v).binary_search(&u).is_ok());
        }
    }

    #[test]
    fn reversed_is_involutive((n, es) in edges(48, 128)) {
        let g = Csr::from_edges(n, &es);
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    #[test]
    fn reversed_preserves_edge_count((n, es) in edges(48, 128)) {
        let g = Csr::from_edges(n, &es);
        prop_assert_eq!(g.reversed().num_edges(), g.num_edges());
    }

    #[test]
    fn binary_io_roundtrip((n, es) in edges(48, 128)) {
        let g = Csr::from_edges(n, &es);
        let mut buf = Vec::new();
        io::write_csr_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(io::read_csr_binary(Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn edge_list_io_roundtrip((n, es) in edges(48, 128)) {
        let g = Csr::from_edges(n, &es);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let h = io::read_edge_list(Cursor::new(buf)).unwrap();
        // node count can shrink if trailing nodes are isolated
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(h.neighbors(u).binary_search(&v).is_ok());
        }
    }

    #[test]
    fn permutation_inverse_is_identity(n in 1usize..128, seed in 0u64..1000) {
        let p = Permutation::random(n, seed);
        prop_assert_eq!(p.then(&p.inverse()), Permutation::identity(n));
        prop_assert_eq!(p.inverse().then(&p), Permutation::identity(n));
    }

    #[test]
    fn permutation_preserves_graph_structure((n, es) in edges(48, 128), seed in 0u64..100) {
        let g = Csr::from_edges(n, &es);
        let p = Permutation::random(n, seed);
        let h = p.apply_csr(&g);
        prop_assert!(h.validate().is_ok());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        // degree multiset preserved per node under the mapping
        for u in 0..n as NodeId {
            prop_assert_eq!(h.degree(p.map(u)), g.degree(u));
        }
        // every edge exists under the new labels
        for (u, v) in g.edges() {
            prop_assert!(h.neighbors(p.map(u)).binary_search(&p.map(v)).is_ok());
        }
    }

    #[test]
    fn apply_values_is_consistent_with_map(n in 1usize..64, seed in 0u64..100) {
        let p = Permutation::random(n, seed);
        let values: Vec<usize> = (0..n).collect();
        let out = p.apply_values(&values);
        for (old, &v) in values.iter().enumerate() {
            prop_assert_eq!(out[p.map(old as NodeId) as usize], v);
        }
    }

    #[test]
    fn all_reorderings_are_bijections((n, es) in edges(40, 100)) {
        let g = Csr::from_edges(n, &es);
        for p in [
            rcm_order(&g),
            llp_order(&g, &LlpParams::default()),
            gorder_order(&g, 3),
        ] {
            prop_assert_eq!(p.len(), n);
            let _ = p.inverse(); // panics if not bijective
        }
    }

    #[test]
    fn update_batch_apply_validates((n, es) in edges(40, 100),
                                    ins in prop::collection::vec((0u32..40, 0u32..40), 0..20),
                                    del in prop::collection::vec((0u32..40, 0u32..40), 0..20)) {
        let g = Csr::from_edges(n, &es);
        let mut b = UpdateBatch::new();
        for (u, v) in ins {
            b.insert(u, v);
        }
        for (u, v) in del {
            b.delete(u, v);
        }
        let h = b.apply(&g);
        prop_assert!(h.validate().is_ok());
    }

    #[test]
    fn update_insert_then_delete_roundtrips((n, es) in edges(40, 100), u in 0u32..40, v in 0u32..40) {
        prop_assume!(u != v && (u as usize) < n && (v as usize) < n);
        let g = Csr::from_edges(n, &es);
        let mut add = UpdateBatch::new();
        add.insert(u, v);
        let mut remove = UpdateBatch::new();
        remove.delete(u, v);
        let there = add.apply(&g);
        prop_assert!(there.neighbors(u).binary_search(&v).is_ok());
        let back = remove.apply(&there);
        // equal iff (u,v) wasn't in g; otherwise back lost the original edge
        if g.neighbors(u).binary_search(&v).is_err() {
            prop_assert_eq!(back, g);
        }
    }
}
