//! Prints the detected SIMD tier and per-kernel throughput on a
//! clustered instance — a quick way to see what the `mincut-ds::simd`
//! micro-kernel layer buys on this machine, and what `SMC_SIMD=scalar`
//! would cost.
//!
//! For every tier available on this CPU (scalar is always there; SSE2
//! and AVX2 join when detected at runtime) the example times the two
//! vectorized kernels on data shaped exactly like the solver hot loops
//! — weighted-degree sums over CSR weight slices and label gathers over
//! the arc stream — then runs one end-to-end solve and shows the tier
//! the session actually reported in `SolverStats::simd_tier`.
//!
//! Run with: `cargo run --release --example simd_tier`
//! (set SIMD_TIER_N to scale the instance; default ~2000 vertices)

use std::time::Instant;

use sm_mincut::ds::simd::{active_tier, detected_tier, force_tier, gather_u32, sum_u64, SimdTier};
use sm_mincut::graph::generators::known;
use sm_mincut::{CsrGraph, Session, SolveOptions};

/// Median-of-reps wall time for one closure, in seconds.
fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let unit: usize = std::env::var("SIMD_TIER_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .map_or(4, |n: usize| (n / 500).max(1));
    let (g, lambda) = known::two_communities(120 * unit, 130 * unit, 2, 3, 1);
    println!("instance: two_communities  n={}  m={}", g.n(), g.m());
    println!("detected SIMD tier: {}", detected_tier().name());
    println!("active   SIMD tier: {} (SMC_SIMD)\n", active_tier().name());

    // Hot-loop shaped inputs: every vertex's weight slice (sum) and the
    // whole arc stream as gather indices into a label table.
    let n = g.n();
    let labels: Vec<u32> = (0..n as u32).rev().collect();
    let arcs: Vec<u32> = (0..n as u32)
        .flat_map(|v| g.arc_slices(v).0.iter().copied())
        .collect();
    let mut gathered = vec![0u32; arcs.len()];

    let tiers: Vec<SimdTier> = SimdTier::ALL
        .iter()
        .copied()
        .filter(|&t| t <= detected_tier())
        .collect();
    println!(
        "{:<8} {:>16} {:>16}",
        "tier", "sum_u64 Melem/s", "gather Melem/s"
    );
    let reps = 9;
    for &tier in &tiers {
        force_tier(Some(tier));
        let mut sink = 0u64;
        let t_sum = time_it(reps, || {
            for v in 0..n as u32 {
                sink = sink.wrapping_add(sum_u64(g.arc_slices(v).1));
            }
        });
        let t_gather = time_it(reps, || gather_u32(&labels, &arcs, &mut gathered));
        let rate = |elems: usize, s: f64| elems as f64 / s.max(1e-12) / 1e6;
        println!(
            "{:<8} {:>16.1} {:>16.1}",
            tier.name(),
            rate(arcs.len(), t_sum),
            rate(arcs.len(), t_gather),
        );
        std::hint::black_box((&sink, &gathered));
    }
    force_tier(None);

    // End to end: the session records which tier served the solve.
    let out = Session::new(&g)
        .options(SolveOptions::new().seed(42))
        .run("noi-viecut")
        .expect("solve");
    assert_eq!(out.cut.value, lambda, "planted cut");
    println!(
        "\nnoi-viecut: λ = {} in {:.2} ms (SolverStats::simd_tier = {})",
        out.cut.value,
        out.stats.total_seconds * 1e3,
        out.stats.simd_tier
    );

    // The tiers must agree bit-for-bit — same sums and gathers.
    let reference: CsrGraph = g.clone();
    force_tier(Some(SimdTier::Scalar));
    let scalar = Session::new(&reference)
        .options(SolveOptions::new().seed(42))
        .run("noi-viecut")
        .expect("scalar solve");
    force_tier(None);
    assert_eq!(scalar.cut.value, out.cut.value);
    assert_eq!(scalar.cut.side, out.cut.side);
    println!("scalar tier re-solve: identical λ and witness ✓");
}
