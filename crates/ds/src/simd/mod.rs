//! SIMD micro-kernels for the scan and tally hot loops.
//!
//! # Why a kernel layer
//!
//! The cache-conscious rewrite (see the `hotpath` bench) left the per-arc
//! inner loops scalar and latency-bound: weighted-degree accumulation
//! over the CSR weight stream, and label-propagation tallies gathering
//! labels through an index indirection. Those loops vectorize — but the
//! surrounding algorithms pin *bit-identical* results (λ identity and
//! PQ-op-stream identity are hard-asserted by the `hotpath` bench), so
//! every kernel here is written as a pure data-layout transformation of
//! its scalar twin: integer sums reassociate losslessly and gathers are
//! load hoists. The scalar reference implementation of every kernel
//! ships alongside the vector paths and the property tests in
//! `tests/simd_kernels.rs` pin bit-identity across tiers for every
//! length class (empty, single element, sub-lane, and
//! non-multiple-of-lane-width tails).
//!
//! # Runtime detection strategy
//!
//! Kernels are compiled for three tiers and selected **at runtime** — the
//! build stays portable (`cargo build` with no `-C target-cpu`), one
//! binary serves every x86_64, and non-x86 targets fall back to scalar
//! at zero cost:
//!
//! | tier     | requirement                         | used for                    |
//! |----------|-------------------------------------|-----------------------------|
//! | `Scalar` | none (portable reference)           | always available            |
//! | `Sse2`   | x86_64 (SSE2 is baseline)           | 2×u64 sums, 4×u32 gathers (batched bounds check, lane-peeled loads) |
//! | `Avx2`   | `is_x86_feature_detected!("avx2")`  | 4×u64 sums, 8×u32 gathers   |
//!
//! Detection runs once and is cached in a [`OnceLock`]; the per-call
//! dispatch is one relaxed atomic load (the [`force_tier`] override) plus
//! a cached enum compare — nanoseconds against kernels that run over
//! whole arc streams. `#[target_feature(enable = ...)]`-annotated
//! functions are only ever called behind the matching detection check,
//! which is what makes the `unsafe` blocks sound.
//!
//! # The `SMC_SIMD` knob
//!
//! `SMC_SIMD=off|scalar|native` (default `native`) pins the tier from the
//! environment so CI can A/B both paths with the same binary: `off` and
//! `scalar` both select the scalar reference kernels (they are synonyms —
//! the kernels are bit-identical by contract, so there is nothing weaker
//! than `scalar` to fall back to), `native` selects the best detected
//! tier. Unrecognized values warn to stderr once and fall back to
//! `native`. The environment is read once (process-wide); tests that need
//! to A/B tiers in-process use [`force_tier`] instead, which takes
//! precedence over the environment and is clamped to the detected
//! capability (forcing `Avx2` on a non-AVX2 machine silently degrades to
//! the best available tier rather than faulting).
//!
//! Which tier actually ran is reported per-solve in
//! `SolverStats::simd_tier` (see `mincut-core`).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Kernel implementation tiers, ordered weakest to strongest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar reference — the semantics every other tier must
    /// reproduce bit for bit.
    Scalar,
    /// x86_64 SSE2 (baseline on every x86_64, so detection never fails).
    Sse2,
    /// x86_64 AVX2 (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name (`scalar` / `sse2` / `avx2`) for reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }

    /// All tiers this build knows about (property tests iterate this).
    pub const ALL: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2];
}

/// The best tier the running CPU supports (ignoring `SMC_SIMD`).
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
        SimdTier::Sse2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdTier::Scalar
    }
}

/// Tier selected by the `SMC_SIMD` environment knob (cached on first
/// use; unrecognized values warn to stderr once — via the shared
/// [`crate::env_knob`] contract — and mean `native`).
fn env_tier() -> SimdTier {
    static ENV: OnceLock<SimdTier> = OnceLock::new();
    *ENV.get_or_init(|| {
        crate::env_knob(
            "SMC_SIMD",
            "off|scalar|native",
            "native",
            detected_tier(),
            |v| match v {
                "off" | "scalar" => Some(SimdTier::Scalar),
                "native" => Some(detected_tier()),
                _ => None,
            },
        )
    })
}

/// In-process tier override: 0 = none (use `SMC_SIMD`/detection), else
/// `tier as u8 + 1`. Takes precedence over the environment because the
/// environment is cached process-wide — `set_var`-based A/B would
/// silently test one tier twice.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the kernel tier for this process (pass `None` to restore the
/// `SMC_SIMD`/detection default). The request is clamped to
/// [`detected_tier`], so forcing a tier the CPU lacks degrades instead
/// of faulting. Intended for tests and benches that A/B tiers
/// in-process; not thread-scoped, so don't race it from parallel tests
/// that assert on [`active_tier`].
pub fn force_tier(tier: Option<SimdTier>) {
    let v = match tier {
        None => 0,
        Some(t) => t.min(detected_tier()) as u8 + 1,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// The tier every dispatching kernel in this module currently runs at:
/// the [`force_tier`] override if set, else the `SMC_SIMD` selection.
#[inline]
pub fn active_tier() -> SimdTier {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Sse2,
        3 => SimdTier::Avx2,
        _ => env_tier(),
    }
}

// ---------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------

/// Software-prefetches the cache line holding `slice[i]` into all cache
/// levels (`prefetcht0`). Out-of-range indices are ignored — prefetch is
/// a hint, never a fault. No-op on non-x86_64.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < slice.len() {
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(i) as *const i8,
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, i);
    }
}

// ---------------------------------------------------------------------
// sum_u64 — weighted-degree accumulation over the CSR weight stream
// ---------------------------------------------------------------------

/// Wrapping sum of a `u64` slice. Integer addition is associative and
/// commutative, so every tier returns the bit-identical result of the
/// scalar reference regardless of lane order.
#[inline]
pub fn sum_u64(xs: &[u64]) -> u64 {
    sum_u64_with_tier(active_tier(), xs)
}

/// [`sum_u64`] at an explicit tier (property tests drive all tiers).
#[inline]
pub fn sum_u64_with_tier(tier: SimdTier, xs: &[u64]) -> u64 {
    // Below two full vector widths the scalar loop wins: no lane setup,
    // no horizontal reduction.
    #[cfg(target_arch = "x86_64")]
    if xs.len() >= 8 {
        match tier {
            SimdTier::Avx2 => return unsafe { x86::sum_u64_avx2(xs) },
            SimdTier::Sse2 => return unsafe { x86::sum_u64_sse2(xs) },
            SimdTier::Scalar => {}
        }
    }
    let _ = tier;
    sum_u64_scalar(xs)
}

/// The scalar reference.
#[inline]
pub fn sum_u64_scalar(xs: &[u64]) -> u64 {
    xs.iter().fold(0u64, |a, &x| a.wrapping_add(x))
}

// ---------------------------------------------------------------------
// gather_u32 — label gather through an index indirection (LP tallies)
// ---------------------------------------------------------------------

/// `out[i] = table[idx[i] as usize]` for every `i`. Panics if any index
/// is out of range (the vector path validates the whole batch up front
/// with a lane-wise max, so unlike the scalar loop no partial output is
/// written before the panic — callers treat `out` as garbage on panic).
///
/// `out.len()` must equal `idx.len()`.
#[inline]
pub fn gather_u32(table: &[u32], idx: &[u32], out: &mut [u32]) {
    gather_u32_with_tier(active_tier(), table, idx, out)
}

/// [`gather_u32`] at an explicit tier.
#[inline]
pub fn gather_u32_with_tier(tier: SimdTier, table: &[u32], idx: &[u32], out: &mut [u32]) {
    assert_eq!(idx.len(), out.len(), "gather_u32: idx/out length mismatch");
    #[cfg(target_arch = "x86_64")]
    if tier >= SimdTier::Sse2 && idx.len() >= 16 {
        // Bounds: one vectorized max over the batch, then the gathers
        // run unchecked. This is what makes the SSE2 tier worthwhile
        // even without a gather instruction: the batch is validated
        // once instead of bounds-checking every table access.
        let max = unsafe {
            match tier {
                SimdTier::Avx2 => x86::max_u32_avx2(idx),
                _ => x86::max_u32_sse2(idx),
            }
        };
        assert!(
            (max as usize) < table.len(),
            "gather_u32: index {max} out of range for table of {}",
            table.len()
        );
        unsafe {
            match tier {
                SimdTier::Avx2 => x86::gather_u32_avx2(table, idx, out),
                _ => x86::gather_u32_sse2(table, idx, out),
            }
        }
        return;
    }
    let _ = tier;
    gather_u32_scalar(table, idx, out);
}

/// The scalar reference.
#[inline]
pub fn gather_u32_scalar(table: &[u32], idx: &[u32], out: &mut [u32]) {
    for (o, &i) in out.iter_mut().zip(idx) {
        *o = table[i as usize];
    }
}

// ---------------------------------------------------------------------
// x86_64 tiers
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// SSE2 is baseline on x86_64; always safe to call there.
    #[target_feature(enable = "sse2")]
    pub unsafe fn sum_u64_sse2(xs: &[u64]) -> u64 {
        let mut acc = _mm_setzero_si128();
        let chunks = xs.len() / 2;
        let p = xs.as_ptr() as *const __m128i;
        for i in 0..chunks {
            acc = _mm_add_epi64(acc, _mm_loadu_si128(p.add(i)));
        }
        let mut lanes = [0u64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, acc);
        let mut total = lanes[0].wrapping_add(lanes[1]);
        for &x in &xs[chunks * 2..] {
            total = total.wrapping_add(x);
        }
        total
    }

    /// # Safety
    /// Caller must have verified AVX2 via `is_x86_feature_detected!`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_u64_avx2(xs: &[u64]) -> u64 {
        let mut acc = _mm256_setzero_si256();
        let chunks = xs.len() / 4;
        let p = xs.as_ptr() as *const __m256i;
        for i in 0..chunks {
            acc = _mm256_add_epi64(acc, _mm256_loadu_si256(p.add(i)));
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut total = lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3]);
        for &x in &xs[chunks * 4..] {
            total = total.wrapping_add(x);
        }
        total
    }

    /// Lane-wise maximum of a `u32` slice (`0` when empty).
    ///
    /// # Safety
    /// Caller must have verified AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_u32_avx2(xs: &[u32]) -> u32 {
        let mut acc = _mm256_setzero_si256();
        let chunks = xs.len() / 8;
        let p = xs.as_ptr() as *const __m256i;
        for i in 0..chunks {
            acc = _mm256_max_epu32(acc, _mm256_loadu_si256(p.add(i)));
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        let mut max = lanes.iter().copied().max().unwrap_or(0);
        for &x in &xs[chunks * 8..] {
            max = max.max(x);
        }
        max
    }

    /// Lane-wise maximum of a `u32` slice (`0` when empty) on bare
    /// SSE2: `_mm_max_epu32` is SSE4.1, so the accumulator lives in the
    /// sign-biased domain where `x ^ 0x8000_0000` preserves unsigned
    /// order under the signed `_mm_cmpgt_epi32`, blended with and/andnot.
    ///
    /// # Safety
    /// SSE2 is baseline on x86_64; always safe to call there.
    #[target_feature(enable = "sse2")]
    pub unsafe fn max_u32_sse2(xs: &[u32]) -> u32 {
        let bias = _mm_set1_epi32(i32::MIN);
        // Biased representation of unsigned 0 — same seed as the AVX2
        // twin's zero accumulator.
        let mut accb = bias;
        let chunks = xs.len() / 4;
        let p = xs.as_ptr() as *const __m128i;
        for i in 0..chunks {
            let vb = _mm_xor_si128(_mm_loadu_si128(p.add(i)), bias);
            let gt = _mm_cmpgt_epi32(vb, accb);
            accb = _mm_or_si128(_mm_and_si128(gt, vb), _mm_andnot_si128(gt, accb));
        }
        let mut lanes = [0u32; 4];
        _mm_storeu_si128(
            lanes.as_mut_ptr() as *mut __m128i,
            _mm_xor_si128(accb, bias),
        );
        let mut max = lanes.iter().copied().max().unwrap_or(0);
        for &x in &xs[chunks * 4..] {
            max = max.max(x);
        }
        max
    }

    /// 4-wide gather for bare SSE2 (which has no gather instruction and
    /// no `_mm_extract_epi32` — that is SSE4.1): vector index loads,
    /// lanes peeled with shift+`_mm_cvtsi128_si32`, unchecked scalar
    /// table loads, vector stores. The win over the safe scalar loop is
    /// the absence of per-element bounds checks — the dispatching
    /// wrapper validated the whole batch with one max.
    ///
    /// # Safety
    /// SSE2 baseline **and** every index must be in range for `table`
    /// (the dispatching wrapper max-checks the batch).
    #[target_feature(enable = "sse2")]
    pub unsafe fn gather_u32_sse2(table: &[u32], idx: &[u32], out: &mut [u32]) {
        debug_assert_eq!(idx.len(), out.len());
        let chunks = idx.len() / 4;
        for c in 0..chunks {
            let iv = _mm_loadu_si128(idx.as_ptr().add(c * 4) as *const __m128i);
            let i0 = _mm_cvtsi128_si32(iv) as u32 as usize;
            let i1 = _mm_cvtsi128_si32(_mm_srli_si128::<4>(iv)) as u32 as usize;
            let i2 = _mm_cvtsi128_si32(_mm_srli_si128::<8>(iv)) as u32 as usize;
            let i3 = _mm_cvtsi128_si32(_mm_srli_si128::<12>(iv)) as u32 as usize;
            let g = _mm_set_epi32(
                *table.get_unchecked(i3) as i32,
                *table.get_unchecked(i2) as i32,
                *table.get_unchecked(i1) as i32,
                *table.get_unchecked(i0) as i32,
            );
            _mm_storeu_si128(out.as_mut_ptr().add(c * 4) as *mut __m128i, g);
        }
        for i in chunks * 4..idx.len() {
            *out.get_unchecked_mut(i) = *table.get_unchecked(*idx.get_unchecked(i) as usize);
        }
    }

    /// 8-wide gather: `out[i] = table[idx[i]]`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 **and** that every index is in
    /// range for `table` (the dispatching wrapper max-checks the batch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_u32_avx2(table: &[u32], idx: &[u32], out: &mut [u32]) {
        debug_assert_eq!(idx.len(), out.len());
        let chunks = idx.len() / 8;
        let base = table.as_ptr() as *const i32;
        for c in 0..chunks {
            let iv = _mm256_loadu_si256(idx.as_ptr().add(c * 8) as *const __m256i);
            let g = _mm256_i32gather_epi32::<4>(base, iv);
            _mm256_storeu_si256(out.as_mut_ptr().add(c * 8) as *mut __m256i, g);
        }
        for i in chunks * 8..idx.len() {
            *out.get_unchecked_mut(i) = *table.get_unchecked(*idx.get_unchecked(i) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(SimdTier::Sse2.name(), "sse2");
        assert_eq!(SimdTier::Avx2.name(), "avx2");
    }

    #[test]
    fn force_tier_clamps_to_detected() {
        force_tier(Some(SimdTier::Avx2));
        assert!(active_tier() <= detected_tier());
        force_tier(Some(SimdTier::Scalar));
        assert_eq!(active_tier(), SimdTier::Scalar);
        force_tier(None);
    }

    #[test]
    fn kernels_agree_on_fixed_vectors() {
        let xs: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let expect = sum_u64_scalar(&xs);
        for tier in SimdTier::ALL {
            assert_eq!(sum_u64_with_tier(tier, &xs), expect, "{tier:?}");
        }

        let table: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let idx: Vec<u32> = (0..777u32).map(|i| (i * 97) % 512).collect();
        let mut expect = vec![0u32; idx.len()];
        gather_u32_scalar(&table, &idx, &mut expect);
        for tier in SimdTier::ALL {
            let mut out = vec![0u32; idx.len()];
            gather_u32_with_tier(tier, &table, &idx, &mut out);
            assert_eq!(out, expect, "{tier:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_out_of_range_indices() {
        let table = vec![0u32; 8];
        let idx = vec![9u32; 32];
        let mut out = vec![0u32; 32];
        gather_u32(&table, &idx, &mut out);
    }

    #[test]
    fn prefetch_is_safe_everywhere() {
        let xs = [1u64, 2, 3];
        prefetch_read(&xs, 0);
        prefetch_read(&xs, 2);
        prefetch_read(&xs, 1000); // out of range: ignored
        prefetch_read::<u64>(&[], 0);
    }
}
