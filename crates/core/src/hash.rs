//! A cheap multiplicative hasher for page-number keys.
//!
//! The simulator's hash maps are keyed by page numbers it generated
//! itself, so SipHash's flooding resistance buys nothing and costs a
//! few dozen nanoseconds per probe. [`BuildPageHasher`] multiplies each
//! word by a 64-bit odd constant (Fibonacci hashing) and folds the high
//! half down, so both the low bits a table indexes with and the high
//! bits it tags with see every input bit.

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, rounded to odd: the Fibonacci-hashing multiplier.
pub(crate) const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for integer keys; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FIBONACCI);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// `BuildHasher` for maps and sets keyed by pages:
/// `HashMap<VirtPage, V, BuildPageHasher>`.
pub type BuildPageHasher = BuildHasherDefault<PageHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    use crate::types::VirtPage;

    #[test]
    fn strided_pages_spread_over_the_low_bits() {
        // A power-of-two stride leaves the low input bits constant; the
        // fold must still spread them over a small table's buckets.
        let build = BuildPageHasher::default();
        let buckets: HashSet<u64> = (0..64u64)
            .map(|i| build.hash_one(VirtPage::new(i << 12)) & 63)
            .collect();
        assert!(
            buckets.len() > 32,
            "only {} of 64 buckets hit",
            buckets.len()
        );
    }

    #[test]
    fn byte_writes_hash_like_the_equal_word() {
        let mut a = PageHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = PageHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
