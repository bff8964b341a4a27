//! A fast, non-keyed hasher for the per-row lookups on the execution hot
//! path: join build tables and the one-hot/label category tables.
//!
//! The standard `HashMap` hasher (SipHash-1-3 with a random key) exists to
//! resist hash flooding by keys an attacker chooses. These tables never hold
//! such keys: a join table is built from a table registered in the catalog,
//! and a category table from the category list of a registered model. A
//! request can look keys up but never insert them, so a colliding request key
//! costs at most one failed probe and cannot lengthen a chain. That lets the
//! tables use a multiplicative hash in the style of rustc's `FxHasher`: one
//! rotate, xor and multiply per word and one folded multiply to finish, no
//! per-map key.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// The multiplicative constant (an odd 64-bit value with well-spread bits,
/// as rustc's `FxHasher` uses).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative word-at-a-time hasher; see the module docs for when it is
/// appropriate.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        // The 1-7 byte tail as one word from at most two overlapping loads
        // (no variable-length copy), tagged with its length.
        let rest = chunks.remainder();
        let n = rest.len();
        let word = match n {
            0 => return,
            1..=3 => rest[0] as u64 | (rest[n / 2] as u64) << 8 | (rest[n - 1] as u64) << 16,
            _ => {
                let lo = u32::from_le_bytes(rest[..4].try_into().expect("4-byte head"));
                let hi = u32::from_le_bytes(rest[n - 4..].try_into().expect("4-byte tail"));
                lo as u64 | (hi as u64) << 32
            }
        };
        self.add(word ^ (n as u64) << 59);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    /// The state's low bits depend only on the input's low bits, and
    /// `HashMap` picks buckets from the low bits: fold the high half of one
    /// more full-width product (which depends on every state bit) onto the
    /// low half, so keys that differ only in high bits (float bit patterns,
    /// multiples of a power of two) still spread.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = (self.hash as u128) * (SEED as u128);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by [`FastHasher`]. For keys the program itself inserts
/// (catalog tables, model category lists) only; see the module docs.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// [`FastHasher`] hash of one value.
#[inline]
pub fn fast_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    FastBuildHasher::default().hash_one(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal_and_strings_see_every_byte() {
        assert_eq!(
            fast_hash("customer_17"),
            fast_hash(&"customer_17".to_string())
        );
        assert_ne!(fast_hash("customer_17"), fast_hash("customer_18"));
        // differing only past the last full word, and only in length
        assert_ne!(fast_hash("abcdefgh1"), fast_hash("abcdefgh2"));
        assert_ne!(fast_hash("abcdefgh"), fast_hash("abcdefgh\0"));
        // short tails read by overlapping loads still see their length
        assert_ne!(fast_hash("ab"), fast_hash("abb"));
        assert_ne!(fast_hash("abcd"), fast_hash("abcdd"));
        assert_eq!(fast_hash(&42i64), fast_hash(&42i64));
    }

    /// Keys that differ only in high bits (float bit patterns, multiples of
    /// a large power of two) must still reach distinct low bits, which is
    /// where `HashMap` picks its bucket.
    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        let low_bits = |keys: Vec<u64>| {
            let mut lows: Vec<u64> = keys.iter().map(|k| fast_hash(k) & 0xfff).collect();
            lows.sort_unstable();
            lows.dedup();
            lows.len()
        };
        let floats: Vec<u64> = (0..256).map(|i| (i as f64).to_bits()).collect();
        assert!(low_bits(floats) > 200);
        let shifted: Vec<u64> = (0..256u64).map(|i| i << 40).collect();
        assert!(low_bits(shifted) > 200);
    }

    #[test]
    fn fast_map_round_trips() {
        let mut m: FastMap<String, usize> = FastMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.get("c"), None);
    }
}
