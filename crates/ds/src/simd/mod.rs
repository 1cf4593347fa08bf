//! The software-prefetch hint of the scan loops, and the CPU's vector
//! level as a machine stamp.
//!
//! [`prefetch_read`] pulls a cache line toward the core ahead of a
//! latency-bound load: the CAPFOREST scans hint the `r`/stamp entries of
//! upcoming neighbours, and label propagation hints the next vertex's
//! arc stream through `CsrGraph::prefetch_arcs`. It never changes a
//! result.
//!
//! [`active_tier`] names the widest x86_64 vector extension the running
//! CPU supports. No code path dispatches on it: the inner loops are
//! plain Rust, compiled for the build target. It is a property of the
//! machine, like the hardware thread count, stamped into bench reports
//! so that timings from different CPUs are not compared unawares.

/// Vector levels, ordered weakest to strongest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// No x86_64 vector extension (non-x86_64 targets).
    Scalar,
    /// x86_64 SSE2 (baseline on every x86_64).
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
}

/// The widest vector level the running CPU supports.
pub fn active_tier() -> SimdTier {
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

/// Software-prefetches the cache line holding `slice[i]` into all cache
/// levels (`prefetcht0`). Out-of-range indices are ignored — prefetch is
/// a hint, never a fault. No-op on non-x86_64.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if i < slice.len() {
        // SAFETY: `i < slice.len()`, so the pointer stays inside the
        // slice; `prefetcht0` is baseline x86_64 and never faults.
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
    fn prefetch_is_safe_everywhere() {
        let xs = [1u64, 2, 3];
        prefetch_read(&xs, 0);
        prefetch_read(&xs, 2);
        prefetch_read(&xs, 1000); // out of range: ignored
        prefetch_read::<u64>(&[], 0);
    }
}
