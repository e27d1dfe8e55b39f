//! Workspace-local stand-in for the `rand` crate.
//!
//! The build environment has no reachable crate registry, so this shim
//! provides exactly the subset of the rand 0.9 API the workspace uses:
//! [`StdRng`]/[`SmallRng`] seeded via [`SeedableRng::seed_from_u64`], the
//! [`Rng`] extension methods `random`, `random_range`, `random_bool`, and
//! slice [`SliceRandom::shuffle`]. The generator is xoshiro256** seeded
//! through SplitMix64 — high-quality, deterministic, and dependency-free.
//! It is **not** a cryptographic RNG; the workspace only uses it for
//! randomized tests, benchmarks and circuit generators.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic seeding.
pub trait SeedableRng: Sized {
    /// Constructs the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types producible uniformly at random by [`Rng::random`].
pub trait StandardUniform: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardUniform for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardUniform for u16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u16 {
        (rng.next_u64() >> 48) as u16
    }
}

impl StandardUniform for u8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u8 {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardUniform for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardUniform for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl StandardUniform for i32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i32 {
        rng.next_u32() as i32
    }
}

impl StandardUniform for i16 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i16 {
        (rng.next_u64() >> 48) as i16
    }
}

impl StandardUniform for i8 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i8 {
        (rng.next_u64() >> 56) as i8
    }
}

impl StandardUniform for isize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> isize {
        rng.next_u64() as isize
    }
}

impl StandardUniform for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges samplable by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty random_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                // Lemire's multiply-shift rejection method: unbiased.
                loop {
                    let x = rng.next_u64();
                    let m = (x as u128) * (span as u128);
                    let lo = m as u64;
                    if lo < span && lo < span.wrapping_neg() % span {
                        continue;
                    }
                    return self.start.wrapping_add((m >> 64) as $t);
                }
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty random_range");
                if start == <$t>::MIN && end == <$t>::MAX {
                    return <$t as StandardUniform>::sample(rng) as $t;
                }
                (start..end.wrapping_add(1)).sample(rng)
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty random_range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for std::ops::Range<f32> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "empty random_range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    fn random<T: StandardUniform>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniformly random value in `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// In-place Fisher–Yates shuffling for slices.
pub trait SliceRandom {
    /// Shuffles the slice uniformly.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = (0..(i as u64 + 1)).sample(rng) as usize;
            self.swap(i, j);
        }
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** — the workspace's deterministic standard generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // SplitMix64 expansion of the seed into the full state.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E3779B97F4A7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
                x ^ (x >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }

    /// Alias of [`StdRng`]; the workspace does not need a distinct small
    /// generator.
    pub type SmallRng = StdRng;
}

pub use rngs::{SmallRng, StdRng};

/// The common imports.
pub mod prelude {
    pub use super::rngs::{SmallRng, StdRng};
    pub use super::{Rng, RngCore, SeedableRng, SliceRandom};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.random_range(3..17u64);
            assert!((3..17).contains(&x));
            let y = rng.random_range(0..5usize);
            assert!(y < 5);
            let f = rng.random_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
        // Every bucket of a small range is hit.
        let mut hits = [0usize; 5];
        for _ in 0..5_000 {
            hits[rng.random_range(0..5usize)] += 1;
        }
        assert!(hits.iter().all(|&h| h > 800), "{hits:?}");
    }

    #[test]
    fn bool_probability_sane() {
        let mut rng = StdRng::seed_from_u64(2);
        let trues = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((1_800..3_200).contains(&trues), "{trues}");
        assert!(!rng.random_bool(0.0));
        assert!(rng.random_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
