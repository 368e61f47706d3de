//! A tiny, dependency-free pseudo-random number generator.
//!
//! The workspace builds in a hermetic container with no crates.io access,
//! so the benchmark generators and randomized experiment drivers cannot
//! pull in the `rand` crate. This xorshift64* generator (Vigna,
//! "An experimental exploration of Marsaglia's xorshift generators,
//! scrambled") is more than adequate for seeding benchmark circuits and
//! sampling random truth tables: it passes BigCrush except for the lowest
//! bits, which we never use in isolation.
//!
//! Determinism is part of the contract: the same seed always yields the
//! same stream, across platforms, so benchmark suites (`random_fsm`) and
//! experiment tables stay reproducible.

/// Xorshift64* generator. Not cryptographically secure.
///
/// # Example
///
/// ```
/// use bddmin_core::rng::XorShift64;
/// let mut a = XorShift64::seed_from_u64(42);
/// let mut b = XorShift64::seed_from_u64(42);
/// assert_eq!(a.gen_u64(), b.gen_u64());
/// let r = a.gen_range(0..10);
/// assert!(r < 10);
/// ```
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid:
    /// the seed is pre-mixed with a splitmix64 step so correlated small
    /// seeds (1, 2, 3, …) still produce decorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 finalizer; also maps 0 away from the forbidden
        // all-zero xorshift state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift64 {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn gen_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 16-bit value.
    #[inline]
    pub fn gen_u16(&mut self) -> u16 {
        (self.gen_u64() >> 48) as u16
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // 53 bits of mantissa are plenty for benchmark probabilities.
        let u = (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift range reduction (Lemire); the slight modulo bias
        // of the plain approach would be irrelevant here, but this is just
        // as cheap.
        let r = ((self.gen_u64() as u128 * span as u128) >> 64) as u64;
        range.start + r as usize
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn gen_range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "gen_range_inclusive: empty range");
        self.gen_range(lo..hi + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::seed_from_u64(7);
        let mut b = XorShift64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
        let mut c = XorShift64::seed_from_u64(8);
        assert_ne!(a.gen_u64(), c.gen_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::seed_from_u64(0);
        // Must not get stuck at zero.
        assert!((0..4).map(|_| r.gen_u64()).any(|x| x != 0));
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = XorShift64::seed_from_u64(123);
        for _ in 0..1000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range_inclusive(2, 3);
            assert!(w == 2 || w == 3);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = XorShift64::seed_from_u64(5);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        // A fair coin should land on both sides in 100 draws.
        let heads = (0..100).filter(|_| r.gen_bool(0.5)).count();
        assert!(heads > 10 && heads < 90);
    }
}
