//! Property-based tests for the graph substrate: representation
//! invariants, IO round-trips, permutation algebra, update semantics.

use proptest::prelude::*;
use sage_graph::gen::rmat_graph;
use sage_graph::reorder::{gorder_order, llp_order, rcm_order, LlpParams, Permutation};
use sage_graph::update::UpdateBatch;
use sage_graph::{io, Coo, Csr, EdgeIdx, NodeId};
use std::io::Cursor;
use std::panic;

// The ingestion module, compiled into this test so that its crate-private
// part count can be set directly; the public builders choose it from the
// input's size alone.
#[path = "../src/ingest.rs"]
mod ingest;

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

/// Strategy: at most 4 KiB of input for the graph readers. An optional
/// well-formed prefix (binary magic and a small header) gets cases past the
/// binary reader's header check. The body is up to a case-chosen number of
/// record-like lines (an optional letter or comment mark, then one to three
/// numbers of 1 to 10 digits); each case then overwrites none, a few, half
/// or all of its bytes with arbitrary ones.
fn reader_input() -> impl Strategy<Value = Vec<u8>> {
    const LINES: [usize; 4] = [1, 8, 64, 512];
    let header = (0u8..2, 0u64..64, 0u64..256);
    let body = prop::collection::vec(0u64..u64::MAX, 0..512);
    (header, 0usize..4, 0usize..4, body).prop_map(|((kind, n, m), lines, noise, body)| {
        let mut bytes = match kind {
            0 => Vec::new(),
            _ => [io::CSR_MAGIC.as_slice(), &n.to_le_bytes(), &m.to_le_bytes()].concat(),
        };
        let head = bytes.len();
        for &h in body.iter().take(LINES[lines]) {
            let letter = ["", "", "", "", "a ", "e ", "c ", "% "][(h % 8) as usize];
            bytes.extend(letter.bytes());
            for f in 0..1 + (h >> 3) % 3 {
                let x = h.rotate_left(13 * f as u32 + 5);
                let digits = match x % 16 {
                    0 => 7,
                    1 => 10,
                    d => 1 + d % 3,
                };
                bytes.extend(format!("{} ", (x >> 8) % 10u64.pow(digits as u32)).bytes());
            }
            bytes.push(b'\n');
        }
        for (i, b) in bytes.iter_mut().enumerate().skip(head) {
            let x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ m;
            let overwrite = match noise {
                0 => false,
                1 => x.is_multiple_of(256),
                2 => x.is_multiple_of(2),
                _ => true,
            };
            if overwrite {
                *b = (x >> 32) as u8;
            }
        }
        bytes.truncate(4096);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn readers_never_panic_on_arbitrary_bytes(input in reader_input()) {
        if let Ok(g) = io::read_edge_list(Cursor::new(&input)) {
            prop_assert!(g.validate().is_ok());
            prop_assert!(g.num_nodes() <= io::node_budget(input.len()));
        }
        if let Ok(g) = io::read_csr_binary(Cursor::new(&input)) {
            prop_assert!(g.validate().is_ok());
            prop_assert!(g.bytes() <= input.len());
        }
    }
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
    fn is_symmetric_matches_reversed_equality((n, es) in multigraph(), drop in 0usize..400) {
        let g = Csr::from_edges(n, &es);
        prop_assert_eq!(g.is_symmetric(), g.reversed() == g);
        let mut coo = Coo::from_edges(n, &es);
        coo.symmetrize();
        let sym = Csr::from_coo(&coo);
        prop_assert!(sym.is_symmetric());
        prop_assert_eq!(sym.reversed(), sym.clone());
        // relabelling keeps a symmetric graph symmetric
        if n > 0 {
            let relabelled = Permutation::random(n, drop as u64).apply_csr(&sym);
            prop_assert!(relabelled.is_symmetric());
        }
        // dropping any one edge breaks its mirror
        if sym.num_edges() > 0 {
            let kept: Vec<(NodeId, NodeId)> = sym
                .edges()
                .enumerate()
                .filter(|&(i, _)| i != drop % sym.num_edges())
                .map(|(_, e)| e)
                .collect();
            let broken = Csr::from_edges(n, &kept);
            prop_assert!(!broken.is_symmetric());
            prop_assert_eq!(broken.is_symmetric(), broken.reversed() == broken);
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

#[test]
fn is_symmetric_on_empty_and_single_node_graphs() {
    for n in [0, 1] {
        let g = Csr::from_edges(n, &[]);
        assert!(g.is_symmetric());
        assert_eq!(g.reversed(), g);
    }
    // a self-loop is dropped by the builder, leaving a symmetric 1-node graph
    let g = Csr::from_edges(1, &[(0, 0)]);
    assert_eq!(g.is_symmetric(), g.reversed() == g);
}

/// `ingest::build_csr` over `coo` at `parts` parts, as a CSR.
fn build_in_parts(coo: &Coo, symmetric: bool, parts: usize) -> Csr {
    let edges = |r: std::ops::Range<usize>| {
        let v = &coo.v[r.clone()];
        coo.u[r].iter().copied().zip(v.iter().copied())
    };
    let (offsets, targets) =
        ingest::build_csr(coo.num_nodes, coo.num_edges(), edges, symmetric, parts);
    Csr::from_parts(offsets, targets).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_independent_of_part_count((n, es) in multigraph(), sym in 0u8..2) {
        let coo = Coo::from_edges(n, &es);
        let symmetric = sym == 1;
        let one = build_in_parts(&coo, symmetric, 1);
        let public = if symmetric { Csr::from_coo_symmetric(&coo) } else { Csr::from_coo(&coo) };
        prop_assert_eq!(&one, &public);
        for parts in [2, 3, 8] {
            prop_assert_eq!(&build_in_parts(&coo, symmetric, parts), &one, "{} parts", parts);
        }
    }

    #[test]
    fn rmat_sample_independent_of_chunk_count(scale in 1u32..10, factor in 1usize..9, seed in 0u64..1000) {
        let m = factor << scale;
        let (u, v) = ingest::rmat_edges(scale, m, seed, 1);
        let coo = Coo { num_nodes: 1 << scale, u, v };
        prop_assert_eq!(build_in_parts(&coo, true, 1), rmat_graph(scale, factor, seed));
        for chunks in [2, 3, 8] {
            let (u, v) = ingest::rmat_edges(scale, m, seed, chunks);
            prop_assert!(u == coo.u && v == coo.v, "{} chunks", chunks);
        }
    }
}

#[test]
fn small_inputs_take_one_part() {
    assert_eq!(ingest::parts_for(0), 1);
    assert_eq!(ingest::parts_for(ingest::PARALLEL_MIN_ENTRIES - 1), 1);
    assert!((1..=8).contains(&ingest::parts_for(ingest::PARALLEL_MIN_ENTRIES)));
}

#[test]
fn out_of_range_panic_reads_the_same_at_every_part_count() {
    // the first bad edge in input order decides the message, wherever the
    // parts split the input
    let mut es: Vec<(NodeId, NodeId)> = (0..64).map(|i| (i % 7, (i * 3) % 7)).collect();
    es[40] = (2, 9);
    es[60] = (11, 1);
    let coo = Coo {
        num_nodes: 7,
        u: es.iter().map(|e| e.0).collect(),
        v: es.iter().map(|e| e.1).collect(),
    };
    for symmetric in [false, true] {
        for parts in [1, 2, 3, 8] {
            let err = panic::catch_unwind(|| build_in_parts(&coo, symmetric, parts))
                .expect_err("an out-of-range edge must panic");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                msg,
                Some("edge (2,9) out of range for 7 nodes"),
                "{parts} parts"
            );
        }
    }
}

#[test]
#[should_panic(expected = "edge (3,5000000) out of range for 4096 nodes")]
fn out_of_range_edge_panics_above_the_part_threshold() {
    let len = ingest::PARALLEL_MIN_ENTRIES + 17;
    let mut es: Vec<(NodeId, NodeId)> = (0..len as NodeId).map(|i| (i % 4096, i / 4096)).collect();
    es[len - 2] = (3, 5_000_000);
    let _ = Csr::from_edges(4096, &es);
}
