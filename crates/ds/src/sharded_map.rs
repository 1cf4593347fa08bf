//! Sharded concurrent hash map behind the service's caches.
//!
//! Section 3.2 of the paper builds the contracted graph with a concurrent
//! hash table (the folklore growing table of Maier, Sanders and
//! Dementiev). Contraction here accumulates into a sequential
//! clear-and-reuse table instead (see `mincut-graph`'s `contract`
//! module); this map, a fixed set of lock-striped shards, backs the
//! batch service's fingerprint-keyed cut, kernel and cactus caches,
//! which many worker threads read and fill at once.

use std::hash::{BuildHasher, Hash};

use parking_lot::Mutex;

use crate::hash::{FxBuildHasher, FxHashMap};

/// A concurrent hash map split into `2^shard_bits` independently locked
/// shards. Writers touching different shards never contend.
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<FxHashMap<K, V>>]>,
    hasher: FxBuildHasher,
    mask: u64,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Creates a map with `2^shard_bits` shards (clamped to `[1, 16]` bits).
    pub fn new(shard_bits: u32) -> Self {
        let bits = shard_bits.clamp(0, 16);
        let n = 1usize << bits;
        let shards = (0..n)
            .map(|_| Mutex::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedMap {
            shards,
            hasher: FxBuildHasher::default(),
            mask: (n - 1) as u64,
        }
    }

    #[inline]
    fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) & self.mask) as usize
    }

    /// Number of entries across all shards (takes all locks; O(#shards)).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Inserts `value` or combines it into an existing entry with `merge`.
    pub fn merge_insert(&self, key: K, value: V, merge: impl FnOnce(&mut V, V)) {
        let shard = self.shard_of(&key);
        let mut guard = self.shards[shard].lock();
        match guard.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), value),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }

    /// Returns a clone of the value stored for `key`.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let shard = self.shard_of(key);
        self.shards[shard].lock().get(key).cloned()
    }

    /// Removes and returns the entry stored for `key` (the service's
    /// cut cache reclaims epoch-orphaned dynamic-graph results this way).
    pub fn remove(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        self.shards[shard].lock().remove(key)
    }

    /// Removes every entry, keeping shard capacity for reuse.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.lock().clear();
        }
    }
}

/// Packs an unordered vertex pair into a single `u64` key (smaller id in the
/// high half so keys sort like `(min, max)` pairs).
#[inline]
pub fn pack_edge(u: u32, v: u32) -> u64 {
    let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
    ((lo as u64) << 32) | hi as u64
}

/// Inverse of [`pack_edge`].
#[inline]
pub fn unpack_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(m: &ShardedMap<u64, u64>, key: u64, w: u64) {
        m.merge_insert(key, w, |acc, w| *acc += w);
    }

    #[test]
    fn merge_insert_accumulates() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(2);
        add(&m, 7, 3);
        add(&m, 7, 4);
        add(&m, 8, 1);
        assert_eq!(m.get_cloned(&7), Some(7));
        assert_eq!(m.get_cloned(&8), Some(1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (u, v) in [(0u32, 0u32), (1, 2), (2, 1), (u32::MAX, 5)] {
            let key = pack_edge(u, v);
            let (lo, hi) = unpack_edge(key);
            assert_eq!((lo, hi), (u.min(v), u.max(v)));
        }
    }

    #[test]
    fn concurrent_accumulation_is_exact() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(4);
        let keys = 97u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        add(m, i % keys, 1);
                    }
                });
            }
        });
        assert_eq!(m.len(), keys as usize);
        for k in 0..keys {
            let expected = (0..10_000u64).filter(|i| i % keys == k).count() as u64 * 4;
            assert_eq!(m.get_cloned(&k), Some(expected));
        }
    }

    #[test]
    fn remove_and_clear_empty_the_map() {
        let m: ShardedMap<u64, u64> = ShardedMap::new(1);
        add(&m, 1, 1);
        add(&m, 2, 2);
        assert_eq!(m.remove(&1), Some(1));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }
}
