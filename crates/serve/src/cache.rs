//! Bounded caches for the serving layer, with frequency-aware admission.
//!
//! The serving tier's **plan cache** (query fingerprint → prepared statement
//! and its SQL text) runs on this structure. Its entries are invalidated by
//! the catalog/registry epoch counters: an entry prepared against epoch *e*
//! stops serving the moment the live epoch moves past *e*, so a stale plan
//! can never produce a result after a table or model is re-registered.
//!
//! ## Admission policy
//!
//! Plain LRU is scan-vulnerable: a burst of one-off queries (an analyst
//! sweeping ad-hoc SQL past a hot serving workload) evicts the expensive hot
//! plans even though each intruder is used once. The cache therefore runs
//! **TinyLFU-style admission** (Einziger et al.): a count-min
//! sketch of 4-bit counters estimates every key's access frequency at O(1)
//! space per cache slot, and an insert at capacity must *beat the LRU
//! victim's frequency estimate* to displace it — a one-hit wonder loses to
//! any entry that was ever re-used, while a genuinely hot newcomer wins.
//! Counters are halved every `16 × capacity` sketch increments so the
//! frequency estimate ages (yesterday's hot query cannot squat forever).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A count-min sketch of 4-bit saturating counters: 4 hash rows over one
/// `u8` table (low/high nibbles used as separate counters via row offsets
/// would complicate aging, so each row entry is a `u8` capped at 15). The
/// frequency estimate of a key is the minimum over its 4 rows, which bounds
/// overestimation from hash collisions; halving all counters every
/// `sample_period` increments ages the history.
#[derive(Debug)]
struct FrequencySketch {
    /// Row-major table: 4 rows × `width` counters, each capped at 15.
    table: Vec<u8>,
    /// Counters per row; a power of two so indexing is a mask.
    width: usize,
    /// Increments since the last halving.
    additions: u64,
    /// Increment count that triggers a halving pass.
    sample_period: u64,
}

/// Per-row hash seeds (odd multipliers over one 64-bit key hash).
const SKETCH_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xD6E8_FEB8_6659_FD93,
];

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        let width = (capacity * 8).next_power_of_two().max(64);
        FrequencySketch {
            table: vec![0; width * 4],
            width,
            additions: 0,
            sample_period: (capacity as u64) * 16,
        }
    }

    fn slot(&self, row: usize, hash: u64) -> usize {
        let mixed = hash.wrapping_mul(SKETCH_SEEDS[row]);
        row * self.width + ((mixed >> 32) as usize & (self.width - 1))
    }

    fn increment(&mut self, hash: u64) {
        for row in 0..4 {
            let i = self.slot(row, hash);
            if self.table[i] < 15 {
                self.table[i] += 1;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_period {
            self.additions = 0;
            for c in &mut self.table {
                *c /= 2;
            }
        }
    }

    fn estimate(&self, hash: u64) -> u8 {
        (0..4)
            .map(|row| self.table[self.slot(row, hash)])
            .min()
            .unwrap_or(0)
    }
}

/// A small bounded cache: LRU eviction with TinyLFU admission.
/// Recency is tracked with a monotonic touch counter; eviction scans for the
/// minimum, which is O(capacity) — capacities here are tens to hundreds of
/// prepared plans, far below the point where a linked-list LRU would pay for
/// itself.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
    sketch: FrequencySketch,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            sketch: FrequencySketch::new(capacity),
        }
    }

    fn key_hash(key: &K) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Look up and touch an entry (every lookup, hit or miss, feeds the
    /// frequency sketch — access frequency is what admission compares).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.sketch.increment(Self::key_hash(key));
        self.entries.get_mut(key).map(|(v, touched)| {
            *touched = clock;
            &*v
        })
    }

    /// Insert (or replace) an entry. Replacements always land; a brand-new
    /// key arriving at capacity must beat the LRU victim's frequency
    /// estimate (TinyLFU admission), otherwise the victim stays and the
    /// insert is dropped (the caller just re-misses later — correctness
    /// never depends on an insert landing).
    pub fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let hash = Self::key_hash(&key);
        self.sketch.increment(hash);
        if self.entries.contains_key(&key) {
            self.entries.insert(key, (value, self.clock));
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                // TinyLFU admission: the newcomer must be at least as
                // frequent as the coldest resident to displace it
                if self.sketch.estimate(hash) < self.sketch.estimate(Self::key_hash(&victim)) {
                    return;
                }
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (value, self.clock));
    }

    /// Remove an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(v, _)| v)
    }

    /// Every live value, most-recently-used first, without touching
    /// recency. Used to persist the hot plans at snapshot time so a warm
    /// restart can re-prepare them in recency order.
    pub fn values_by_recency(&self) -> Vec<&V> {
        let mut values: Vec<&(V, u64)> = self.entries.values().collect();
        values.sort_by_key(|&(_, touched)| std::cmp::Reverse(*touched));
        values.into_iter().map(|(v, _)| v).collect()
    }

    /// Drop every entry (bulk invalidation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // touch a; b is now LRU
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn replace_and_remove_and_clear() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("a", 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&2));
        assert_eq!(c.remove(&"a"), Some(2));
        assert!(c.is_empty());
        c.insert("x", 9);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn values_by_recency_is_mru_first() {
        let mut c = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        assert_eq!(c.get(&"a"), Some(&1)); // a becomes most recent
        assert_eq!(c.values_by_recency(), vec![&1, &3, &2]);
        // reading the order does not touch recency
        assert_eq!(c.values_by_recency(), vec![&1, &3, &2]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("b", 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn tinylfu_rejects_one_hit_wonders_scanning_past_hot_entries() {
        let mut c = LruCache::new(2);
        c.insert("hot1", 1);
        c.insert("hot2", 2);
        // establish frequency: both residents are re-used repeatedly
        for _ in 0..8 {
            assert!(c.get(&"hot1").is_some());
            assert!(c.get(&"hot2").is_some());
        }
        // a scan of one-off keys must not displace the hot entries
        for (i, k) in ["scan1", "scan2", "scan3", "scan4"].iter().enumerate() {
            c.insert(*k, 100 + i);
            assert!(
                c.get(k).is_none(),
                "one-hit wonder {k} must lose admission to a hot resident"
            );
        }
        assert_eq!(c.get(&"hot1"), Some(&1));
        assert_eq!(c.get(&"hot2"), Some(&2));
    }

    #[test]
    fn tinylfu_admits_a_newcomer_hotter_than_the_victim() {
        let mut c = LruCache::new(2);
        c.insert("cold", 1);
        c.insert("warm", 2);
        for _ in 0..4 {
            assert!(c.get(&"warm").is_some());
        }
        // the newcomer accumulates frequency through (missing) lookups —
        // exactly the plan-cache pattern before a prepare lands
        for _ in 0..6 {
            assert!(c.get(&"newcomer").is_none());
        }
        c.insert("newcomer", 3);
        assert_eq!(
            c.get(&"newcomer"),
            Some(&3),
            "hot newcomer must be admitted"
        );
        assert!(c.get(&"cold").is_none(), "the cold victim is displaced");
        assert_eq!(c.get(&"warm"), Some(&2));
    }

    #[test]
    fn sketch_counters_age_by_halving() {
        let mut s = FrequencySketch::new(1);
        // period = 16 increments for capacity 1
        let h = 0xDEAD_BEEF_u64;
        for _ in 0..15 {
            s.increment(h);
        }
        let before = s.estimate(h);
        assert!(before >= 7, "counter should accumulate, got {before}");
        s.increment(h); // 16th increment triggers the halving pass
        let after = s.estimate(h);
        assert!(
            after <= before / 2 + 1,
            "halving must age the estimate: {before} -> {after}"
        );
    }
}
