//! Model test: the sharded concurrent map must behave exactly like a
//! plain `HashMap` under any sequential interleaving of the operations
//! the service's caches use, and `merge_insert` must combine exactly
//! under concurrent writers.

use mincut_ds::{pack_edge, unpack_edge, ShardedMap};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Add { key: u64, w: u64 },
    Get { key: u64 },
    Remove { key: u64 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..64, 1u64..100).prop_map(|(key, w)| Op::Add { key, w }),
            1 => (0u64..64).prop_map(|key| Op::Get { key }),
            1 => (0u64..64).prop_map(|key| Op::Remove { key }),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_hashmap_model(ops in ops(), shard_bits in 0u32..6) {
        let map: ShardedMap<u64, u64> = ShardedMap::new(shard_bits);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                Op::Add { key, w } => {
                    map.merge_insert(key, w, |acc, w| *acc += w);
                    *model.entry(key).or_insert(0) += w;
                }
                Op::Get { key } => {
                    prop_assert_eq!(map.get_cloned(&key), model.get(&key).copied());
                }
                Op::Remove { key } => {
                    prop_assert_eq!(map.remove(&key), model.remove(&key));
                }
            }
        }
        prop_assert_eq!(map.len(), model.len());
        for key in 0u64..64 {
            prop_assert_eq!(map.get_cloned(&key), model.get(&key).copied());
        }
        map.clear();
        prop_assert!(map.is_empty());
    }

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

#[test]
fn concurrent_writers_accumulate_exactly() {
    let map: ShardedMap<u64, u64> = ShardedMap::new(6);
    let per_thread = 50_000u64;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = &map;
            s.spawn(move || {
                for i in 0..per_thread {
                    // Overlapping key ranges across threads.
                    map.merge_insert((i + t * 17) % 1000, 1, |acc, w| *acc += w);
                }
            });
        }
    });
    assert_eq!(map.len(), 1000);
    let total: u64 = (0..1000).map(|k| map.get_cloned(&k).unwrap()).sum();
    assert_eq!(total, 4 * per_thread);
}
