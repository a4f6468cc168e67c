//! Golden fingerprints of every synthetic generator.
//!
//! Each entry pins a 64-bit FNV-1a hash of a generated graph's `offsets`
//! followed by its `targets`, plus its edge count. The benchmark graphs (and
//! so every simulated counter measured on them) depend on these arrays being
//! reproduced bit for bit, so any change to a generator, to the CSR builder
//! or to the `rand` stand-in that alters a single edge fails here.

use sage_graph::gen::SocialParams;
use sage_graph::gen::{brain_graph, rmat_graph, social_graph, uniform_graph, web_graph};
use sage_graph::Csr;

fn fingerprint(g: &Csr) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in g.offsets().iter().chain(g.targets()) {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (g.num_edges(), h)
}

fn social(seed: u64) -> Csr {
    social_graph(&SocialParams {
        nodes: 1 << 12,
        avg_deg: 16.0,
        alpha: 2.0,
        max_deg_frac: 0.01,
        seed,
        ..SocialParams::default()
    })
}

const SEEDS: [u64; 2] = [1, 7919];

fn check(name: &str, build: impl Fn(u64) -> Csr, want: [(usize, u64); 2]) {
    for (seed, want) in SEEDS.into_iter().zip(want) {
        let g = build(seed);
        assert!(g.validate().is_ok(), "{name} seed {seed}: invalid CSR");
        let got = fingerprint(&g);
        assert_eq!(got, want, "{name} seed {seed}: (edges, hash) drifted");
    }
}

#[test]
fn rmat_fingerprints() {
    check(
        "rmat",
        |s| rmat_graph(12, 16, s),
        [
            (96_814, 14_412_044_255_383_191_374),
            (96_484, 497_732_921_623_270_108),
        ],
    );
}

#[test]
fn social_fingerprints() {
    check(
        "social",
        social,
        [
            (100_474, 7_174_680_555_003_500_046),
            (110_662, 9_404_789_081_970_792_235),
        ],
    );
}

#[test]
fn web_fingerprints() {
    check(
        "web",
        |s| web_graph(1 << 12, 8.0, s),
        [
            (42_368, 11_787_595_772_469_096_076),
            (43_968, 2_171_250_146_258_927_875),
        ],
    );
}

#[test]
fn brain_fingerprints() {
    check(
        "brain",
        |s| brain_graph(1 << 12, 24.0, s),
        [
            (100_220, 10_349_088_105_091_887_659),
            (100_182, 13_293_301_885_663_282_811),
        ],
    );
}

#[test]
fn uniform_fingerprints() {
    check(
        "uniform",
        |s| uniform_graph(1 << 12, 1 << 15, s),
        [
            (65_394, 17_028_130_228_625_910_939),
            (65_378, 3_344_081_197_469_842_597),
        ],
    );
}
