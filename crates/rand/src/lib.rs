//! A self-contained shim of the `rand` 0.8 API surface this workspace
//! uses, for fully offline builds (the build environment has no crates.io
//! access, so the real crate cannot be vendored).
//!
//! Only what the simulator needs is provided:
//!
//! * [`rngs::StdRng`] seeded via [`SeedableRng::seed_from_u64`]
//! * [`Rng::gen`] / [`Rng::gen_range`] over the integer and float types
//!   the generators draw
//! * [`seq::SliceRandom::shuffle`]
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — a different
//! stream than the real `rand::rngs::StdRng` (ChaCha12), but the
//! simulator only requires seeded determinism, not a specific stream.
//! All draws are deterministic functions of the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Seeding trait, mirroring `rand::SeedableRng`'s `seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Construct a generator deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The sampling trait, mirroring the subset of `rand::Rng` in use.
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of type `T` from its standard distribution
    /// (`f64` in `[0, 1)`, integers uniform over their full range).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: Into<std::ops::Range<T>>,
    {
        let r = range.into();
        T::sample_range(self, r)
    }
}

/// Types samplable from the standard distribution (the `rng.gen()` form).
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<G: Rng + ?Sized>(rng: &mut G) -> Self;
}

impl Standard for f64 {
    fn sample<G: Rng + ?Sized>(rng: &mut G) -> Self {
        // 53 mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<G: Rng + ?Sized>(rng: &mut G) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<G: Rng + ?Sized>(rng: &mut G) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<G: Rng + ?Sized>(rng: &mut G) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types samplable uniformly from a `Range` (the `rng.gen_range(a..b)`
/// form).
pub trait UniformSample: Sized {
    /// Draw one value from `range`.
    fn sample_range<G: Rng + ?Sized>(rng: &mut G, range: std::ops::Range<Self>) -> Self;
}

/// Debiased uniform integer in `[0, n)` via Lemire's method's simple
/// rejection variant (modulo with rejection of the biased zone).
///
/// # Panics
///
/// Panics if `n` is zero (an empty range cannot be sampled).
fn uniform_below<G: Rng + ?Sized>(rng: &mut G, n: u64) -> u64 {
    assert!(n > 0, "empty range");
    if n.is_power_of_two() {
        return rng.next_u64() & (n - 1);
    }
    // Rejection sampling: accept draws below the largest multiple of n.
    // That multiple exceeds `u64::MAX - n`, so any draw up to there is
    // accepted without working out the zone.
    loop {
        let v = rng.next_u64();
        if v <= u64::MAX - n || v < u64::MAX - (u64::MAX % n) {
            return v % n;
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<G: Rng + ?Sized>(rng: &mut G, range: std::ops::Range<Self>) -> Self {
                // invariant: sampling an empty range is a caller bug.
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u64;
                range.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSample for f64 {
    fn sample_range<G: Rng + ?Sized>(rng: &mut G, range: std::ops::Range<Self>) -> Self {
        // invariant: sampling an empty range is a caller bug.
        assert!(range.start < range.end, "empty range");
        let u: f64 = Standard::sample(rng);
        range.start + u * (range.end - range.start)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++, seeded through SplitMix64 — the workspace's standard
    /// deterministic generator (shim for `rand::rngs::StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as the xoshiro authors recommend.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// Shim of `rand::seq::SliceRandom` (shuffle only).
    pub trait SliceRandom {
        /// Shuffle in place (Fisher–Yates).
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<G: Rng + ?Sized>(&mut self, rng: &mut G) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

pub use rngs::StdRng as DefaultRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn seeded_streams_are_deterministic_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniform_below_matches_the_full_rejection_test() {
        // The rejection test with its zone worked out on every draw.
        fn reference(rng: &mut StdRng, n: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % n) - 1;
            loop {
                let v = rng.next_u64();
                if v <= zone {
                    return v % n;
                }
            }
        }
        // Small spans, and spans so large that draws above `MAX - n`
        // are common and some fall in the rejected zone.
        let spans = [3, 7, 1000, 33_792, u64::MAX / 3 * 2, u64::MAX - 1, u64::MAX];
        for n in spans {
            let mut a = StdRng::seed_from_u64(n);
            let mut b = a.clone();
            for _ in 0..2_000 {
                assert_eq!(uniform_below(&mut a, n), reference(&mut b, n), "n = {n}");
            }
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v: u64 = r.gen_range(3..17u64);
            assert!((3..17).contains(&v));
            let f: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: usize = r.gen_range(0..5usize);
            assert!(u < 5);
        }
    }

    #[test]
    fn standard_f64_is_unit_interval_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_permutes() {
        use crate::seq::SliceRandom;
        let mut v: Vec<u32> = (0..64).collect();
        let orig = v.clone();
        let mut r = StdRng::seed_from_u64(3);
        v.shuffle(&mut r);
        assert_ne!(v, orig, "64 elements virtually never shuffle to identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }
}
