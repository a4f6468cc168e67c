//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this local crate
//! provides the (small) slice of the `rand 0.8` API the workspace uses:
//! [`Rng::gen_range`] over integer and float ranges, [`Rng::gen_bool`],
//! [`Rng::gen`], and a seedable deterministic generator compatible with
//! `StdRng::seed_from_u64`. The generator is xoshiro256++ seeded through
//! SplitMix64 — high-quality, fast, and fully reproducible, which is all the
//! simulator and the synthetic-graph generators need. One addition that
//! `rand` lacks, `StdRng::jump`, advances the generator by `k` draws in
//! `O(log k)` steps, so the R-MAT sampler can split its stream over threads.

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Derive a full generator state from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be produced uniformly by [`Rng::gen`].
pub trait Random: Sized {
    /// Draw one uniformly random value.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Random for u32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Random for u64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for usize {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

// Spans are taken in wrapping `u64` arithmetic: every implemented type is
// at most 64 bits wide (signed values sign-extend, which cancels in the
// difference), so an exclusive span always fits and an inclusive one wraps
// to 0 only for a full 64-bit domain, where `x % 2^64 == x`. The values are
// those of `x % span` taken in `u128`, without a 128-bit division per draw.
macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                let v = rng.next_u64() % span;
                self.start.wrapping_add(v as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                let x = rng.next_u64();
                let v = if span == 0 { x } else { x % span };
                lo.wrapping_add(v as $t)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit = <$t as Random>::random(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform value of type `T`.
    fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Uniform value in `range` (`lo..hi` or `lo..=hi`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0,1]"
        );
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (stand-in for rand's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// The "small" generator is the same implementation here.
    pub type SmallRng = StdRng;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for slot in &mut s {
                *slot = splitmix64(&mut state);
            }
            // xoshiro256++ must not start from the all-zero state
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, _, _, s3] = self.s;
            self.step();
            s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0)
        }
    }

    /// A polynomial over GF(2) of degree below 256, bit `i` the
    /// coefficient of `x^i`.
    type Poly = [u64; 4];

    impl StdRng {
        /// The state transition: linear over GF(2), so a 256×256 bit
        /// matrix `T` that [`StdRng::jump`] raises to a power.
        fn step(&mut self) {
            let s = &mut self.s;
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
        }

        /// Advance the generator as `k` calls to `next_u64` would, in
        /// `O(log k)` polynomial steps instead of `k` draws.
        ///
        /// `T` satisfies its characteristic polynomial `P` (degree 256), so
        /// `T^k = r(T)` for `r = x^k mod P`, and `T^k s = Σ r_i T^i s`: the
        /// standard 256-step jump loop, summing the states at `r`'s set
        /// bits.
        pub fn jump(&mut self, k: u64) {
            if k == 0 {
                return;
            }
            let r = x_pow_mod(k, characteristic());
            let mut acc = [0u64; 4];
            for i in 0..256 {
                if r[i / 64] >> (i % 64) & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.step();
            }
            self.s = acc;
        }
    }

    /// The low 256 coefficients of `T`'s characteristic polynomial (the
    /// `x^256` term is implicit), derived once by Berlekamp–Massey from
    /// one state bit's sequence.
    fn characteristic() -> &'static Poly {
        static P: std::sync::OnceLock<Poly> = std::sync::OnceLock::new();
        P.get_or_init(|| {
            let c = transition_polynomial();
            assert_eq!(c.len(), 257, "xoshiro256's transition has degree 256");
            // P(x) = x^256 C(1/x): the coefficient of x^i is c_{256-i}
            let mut p = [0u64; 4];
            for i in 0..256 {
                p[i / 64] |= u64::from(c[256 - i]) << (i % 64);
            }
            p
        })
    }

    /// The connection polynomial `C` (`C[0] = 1`, degree `C.len() - 1`) of
    /// the low bit of `s[0]` over 512 steps: the shortest linear recurrence
    /// it satisfies, found by Berlekamp–Massey over GF(2). For a full-period
    /// generator it is the reciprocal of `T`'s characteristic polynomial.
    pub(super) fn transition_polynomial() -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(0);
        let seq: Vec<bool> = (0..512)
            .map(|_| {
                let bit = rng.s[0] & 1 == 1;
                rng.step();
                bit
            })
            .collect();
        // Massey's algorithm: `c` is the current recurrence, `b` the one
        // before the last length change, `shift` the steps since that change
        let n = seq.len();
        let (mut c, mut b) = (vec![false; n + 1], vec![false; n + 1]);
        (c[0], b[0]) = (true, true);
        let (mut len, mut shift) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=len).fold(seq[i], |d, j| d ^ (c[j] & seq[i - j]));
            if !d {
                shift += 1;
                continue;
            }
            let prev = (2 * len <= i).then(|| c.clone());
            for j in 0..=n - shift {
                c[j + shift] ^= b[j];
            }
            if let Some(prev) = prev {
                (len, b, shift) = (i + 1 - len, prev, 1);
            } else {
                shift += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    /// `x^k mod P` by square-and-multiply, high bit of `k` first.
    fn x_pow_mod(k: u64, p: &Poly) -> Poly {
        let mut r: Poly = [1, 0, 0, 0];
        for bit in (0..64 - k.leading_zeros()).rev() {
            r = mul_mod(&r, &r, p);
            if k >> bit & 1 == 1 {
                r = times_x(r, p);
            }
        }
        r
    }

    /// `a · b mod P`, Horner over `b`'s bits from the top.
    fn mul_mod(a: &Poly, b: &Poly, p: &Poly) -> Poly {
        let mut r = [0u64; 4];
        for i in (0..256).rev() {
            r = times_x(r, p);
            if b[i / 64] >> (i % 64) & 1 == 1 {
                for (r, a) in r.iter_mut().zip(a) {
                    *r ^= a;
                }
            }
        }
        r
    }

    /// `a · x mod P`: a one-bit shift, folding an `x^256` carry back in.
    fn times_x(a: Poly, p: &Poly) -> Poly {
        let carry = a[3] >> 63;
        let mut r = [
            a[0] << 1,
            a[1] << 1 | a[0] >> 63,
            a[2] << 1 | a[1] >> 63,
            a[3] << 1 | a[2] >> 63,
        ];
        if carry == 1 {
            for (r, p) in r.iter_mut().zip(p) {
                *r ^= p;
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10u32..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(5usize..=9);
            assert!((5..=9).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    /// Replays one fixed draw, so a sample can be compared to a formula.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The `u64` span arithmetic of `gen_range` against the `u128` formula
    /// it replaced, over random, narrow, near-`2^64` and full-domain spans.
    macro_rules! check_against_u128 {
        ($($t:ty),*) => {$({
            let mut src = StdRng::seed_from_u64(99);
            let mut ranges: Vec<($t, $t)> = vec![
                (<$t>::MIN, <$t>::MAX),
                (<$t>::MIN, <$t>::MIN),
                (<$t>::MIN + 1, <$t>::MAX),
                (<$t>::MIN, <$t>::MAX - 1),
                (0, <$t>::MAX),
            ];
            for _ in 0..300 {
                let (a, b) = (src.gen::<u64>() as $t, src.gen::<u64>() as $t);
                ranges.push((a.min(b), a.max(b)));
                let narrow = a.saturating_add((src.gen::<u64>() % 1000) as $t);
                ranges.push((a, narrow.max(a)));
            }
            for (lo, hi) in ranges {
                for x in [0, 1, u64::MAX, u64::MAX - 1, src.gen(), src.gen()] {
                    let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                    let want = if span == 0 {
                        x as $t
                    } else {
                        lo.wrapping_add(((x as u128) % span) as $t)
                    };
                    assert_eq!(Fixed(x).gen_range(lo..=hi), want, "{lo}..={hi} x={x}");
                    if lo < hi {
                        let span = (hi as u128).wrapping_sub(lo as u128);
                        let want = lo.wrapping_add(((x as u128) % span) as $t);
                        assert_eq!(Fixed(x).gen_range(lo..hi), want, "{lo}..{hi} x={x}");
                    }
                }
            }
        })*};
    }

    #[test]
    fn gen_range_matches_u128_formula() {
        check_against_u128!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
    }

    #[test]
    fn unit_floats_cover_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            lo |= f < 0.25;
            hi |= f > 0.75;
        }
        assert!(lo && hi, "unit draws should spread over [0,1)");
    }

    #[test]
    fn transition_polynomial_has_degree_256() {
        let c = super::rngs::transition_polynomial();
        assert_eq!(c.len() - 1, 256);
        assert!(c[0] && c[256], "the recurrence has full length");
    }

    #[test]
    fn jump_matches_repeated_draws() {
        let ks = [0, 1, 255, 256, 257, (1 << 20) + 3, 17 << 20];
        for seed in [0, 1, 7919] {
            let mut walked = StdRng::seed_from_u64(seed);
            let mut at = 0;
            for k in ks {
                for _ in at..k {
                    walked.next_u64();
                }
                at = k;
                let mut jumped = StdRng::seed_from_u64(seed);
                jumped.jump(k);
                let mut from_walk = walked.clone();
                for _ in 0..4 {
                    assert_eq!(
                        jumped.next_u64(),
                        from_walk.next_u64(),
                        "seed {seed}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_600..3_400).contains(&hits), "got {hits} of 10000");
    }
}
