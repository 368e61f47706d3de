//! Small kernel utilities: a dense bitmap over node slots and a fast
//! non-cryptographic hasher for internal memo tables.

use std::hash::{BuildHasherDefault, Hasher};

/// A dense bitset indexed by node slot, used for GC marking and DAG
/// traversals (`size`, `level_profile`, …). One cache line covers 512
/// slots, versus one heap entry per slot for a `HashSet<NodeId>`.
#[derive(Debug, Default)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zero bitmap able to hold `len` bits.
    pub(crate) fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Sets bit `i`; returns true if it was previously clear (first visit).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Multiply-xorshift finalizer (splitmix64 style): cheap, and good enough
/// that linear probing stays well distributed on packed node keys.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A `Hasher` that runs a splitmix64-style finalizer over the written
/// words — a SipHash replacement for interior memo tables whose keys are
/// already well-distributed integers. Not DoS-resistant; never use for
/// attacker-controlled keys.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys; the hot paths use write_u64/u32.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = mix64(self.state.rotate_left(26) ^ i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Build-hasher for [`FastHasher`]-backed `HashMap`s / `HashSet`s.
pub type FastBuild = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_insert() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0) && !b.get(129));
        assert!(b.insert(129));
        assert!(!b.insert(129));
        assert!(b.get(129));
        b.set(63);
        b.set(64);
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn bitmap_zero_len() {
        let b = Bitmap::new(0);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn mix64_spreads_small_inputs() {
        // Consecutive inputs must not collide in the low bits (the table
        // index bits).
        let mut seen = std::collections::HashSet::new();
        for i in 0..1024u64 {
            seen.insert(mix64(i) & 0xFFFF);
        }
        assert!(
            seen.len() > 950,
            "low-bit collisions: {}",
            1024 - seen.len()
        );
    }
}
