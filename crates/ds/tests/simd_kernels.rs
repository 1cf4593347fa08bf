//! Property tests for the SIMD micro-kernels: every tier must be
//! bit-identical to the scalar reference on random inputs of every
//! length class — empty, single element, below one vector width, and
//! non-multiple-of-lane-width tails. The algorithms above these kernels
//! hard-assert λ and PQ-op-stream identity; these tests pin the layer
//! that claim rests on.

use mincut_ds::simd::{
    gather_u32_scalar, gather_u32_with_tier, sum_u64_scalar, sum_u64_with_tier, SimdTier,
};

/// Deterministic xorshift64* stream (the ds crate carries no rand dep).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Every length class the kernels dispatch over: empty, single, sub-lane,
/// exact vector widths, and ragged tails around each width and the
/// kernel block sizes.
const LENGTHS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255, 256, 257, 1000,
];

#[test]
fn sum_u64_all_tiers_match_scalar() {
    let mut rng = Rng(0x5EED_0001);
    for &len in LENGTHS {
        for rep in 0..4 {
            // Huge values exercise wrapping behaviour on later reps.
            let xs: Vec<u64> = (0..len)
                .map(|_| {
                    let v = rng.next();
                    if rep % 2 == 0 {
                        v >> 32
                    } else {
                        v
                    }
                })
                .collect();
            let expect = sum_u64_scalar(&xs);
            for tier in SimdTier::ALL {
                assert_eq!(
                    sum_u64_with_tier(tier, &xs),
                    expect,
                    "{tier:?} len {len} rep {rep}"
                );
            }
        }
    }
}

#[test]
fn gather_u32_all_tiers_match_scalar() {
    let mut rng = Rng(0x5EED_0002);
    for &len in LENGTHS {
        for table_len in [1usize, 2, 5, 64, 1 << 12] {
            let table: Vec<u32> = (0..table_len).map(|_| rng.next() as u32).collect();
            let idx: Vec<u32> = (0..len)
                .map(|_| (rng.next() as usize % table_len) as u32)
                .collect();
            let mut expect = vec![0u32; len];
            gather_u32_scalar(&table, &idx, &mut expect);
            for tier in SimdTier::ALL {
                let mut out = vec![0u32; len];
                gather_u32_with_tier(tier, &table, &idx, &mut out);
                assert_eq!(out, expect, "{tier:?} len {len} table {table_len}");
            }
        }
    }
}

#[test]
fn gather_u32_bounds_check_covers_vector_batches() {
    // One out-of-range index anywhere in an AVX2-sized batch must panic
    // at every tier (the vector path max-checks the whole batch before
    // gathering; the scalar path indexes directly).
    for bad_pos in [0usize, 7, 8, 15, 16, 31] {
        for tier in SimdTier::ALL {
            let table = vec![1u32; 16];
            let mut idx = vec![3u32; 32];
            idx[bad_pos] = 16; // == table.len(), out of range
            let mut out = vec![0u32; 32];
            let r = std::panic::catch_unwind(move || {
                gather_u32_with_tier(tier, &table, &idx, &mut out);
            });
            assert!(r.is_err(), "{tier:?} must reject index at {bad_pos}");
        }
    }
}
