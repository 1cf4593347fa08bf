//! A fast, non-cryptographic hasher (the "Fx" multiply-rotate hash used by
//! rustc and Firefox), implemented locally so the workspace does not need an
//! extra dependency for its hot hash-table loops.
//!
//! HashDoS resistance is irrelevant here: keys are graph-internal vertex and
//! edge identifiers, never attacker-controlled strings. [`pack_edge`] packs
//! an unordered vertex pair into the one-word key those tables use.

use std::hash::{BuildHasherDefault, Hasher};

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Multiply-rotate hasher; very fast for small integer keys.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// FNV-1a offset basis: the canonical start value for [`fnv1a_bytes`].
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state. Stable across runs,
/// platforms and processes — unlike [`FxHasher`] whose sole contract is
/// in-process table distribution — so this is the hash for persistent
/// identities (graph fingerprints, cache keys). Start from
/// [`FNV1A_OFFSET`] and chain calls to hash multi-part keys.
#[inline]
pub fn fnv1a_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ b as u64).wrapping_mul(FNV1A_PRIME);
    }
    state
}

/// [`fnv1a_bytes`] over one little-endian `u64` word.
#[inline]
pub fn fnv1a_u64(state: u64, word: u64) -> u64 {
    fnv1a_bytes(state, &word.to_le_bytes())
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `std::collections::HashMap` pre-configured with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `std::collections::HashSet` pre-configured with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

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
    use proptest::prelude::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one((3u32, 4u32)), hash_one((3u32, 4u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a statistical test, just a sanity check that the mixer is live.
        let h: Vec<u64> = (0u64..64).map(hash_one).collect();
        let mut sorted = h.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "64 distinct small keys must not collide");
    }

    #[test]
    fn byte_stream_matches_padding_behaviour() {
        // write() must consume trailing partial words.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different lengths zero-padded differently is fine; we only require
        // that identical byte strings hash identically.
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_eq!(a.finish(), c.finish());
        let _ = b.finish();
    }

    #[test]
    fn fx_hashmap_usable() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (u, v) in [(0u32, 0u32), (1, 2), (2, 1), (u32::MAX, 5)] {
            let key = pack_edge(u, v);
            let (lo, hi) = unpack_edge(key);
            assert_eq!((lo, hi), (u.min(v), u.max(v)));
        }
    }

    proptest! {
        #[test]
        fn pack_edge_is_injective_on_unordered_pairs(
            a in 0u32..10_000, b in 0u32..10_000, c in 0u32..10_000, d in 0u32..10_000
        ) {
            prop_assume!(a != b && c != d);
            let k1 = pack_edge(a, b);
            let k2 = pack_edge(c, d);
            let same_pair = (a.min(b), a.max(b)) == (c.min(d), c.max(d));
            prop_assert_eq!(k1 == k2, same_pair);
            let (lo, hi) = unpack_edge(k1);
            prop_assert_eq!((lo, hi), (a.min(b), a.max(b)));
        }
    }
}
