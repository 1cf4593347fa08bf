//! Pins the reduction pipeline's output on paper-shaped graphs.
//!
//! `ReductionPipeline::standard()` runs on three in-repo generated graphs:
//! a random hyperbolic graph with the paper's parameters, the 8-core of
//! the social-network proxy (the shape of perfbench's `social_parcut`
//! input, at 2^12 vertices) and a ring of cliques. Every value the
//! pipeline reports is pinned exactly: the kernel's n, m and fingerprint,
//! the λ̂ trajectory and the cut value of the final λ̂'s witness, and per
//! pass the rounds, removed vertices and removed edges. A change to a
//! pass that claims to change no output (a faster merge, a fused sweep,
//! a new contraction accumulator) must leave every pin standing; a
//! change that does change kernels has to update these values and say
//! why.

use mincut_bench::instances::social_proxy;
use mincut_core::{ReduceOutcome, ReductionPipeline, SolveContext, SolverStats};
use mincut_graph::generators::known;
use mincut_graph::generators::rhg::{random_hyperbolic_graph, RhgParams};
use mincut_graph::kcore::k_core_lcc;
use mincut_graph::{CsrGraph, EdgeWeight};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What one pass did over all its rounds: name, rounds, vertices
/// removed, edges removed.
type PassPin = (&'static str, u64, u64, u64);

struct Pin {
    kernel_n: usize,
    kernel_m: usize,
    kernel_fingerprint: u64,
    /// Every λ̂ improvement in order; the last entry is the outcome's λ̂.
    lambda_trajectory: &'static [EdgeWeight],
    passes: [PassPin; 4],
}

fn kernelize(g: &CsrGraph) -> (ReduceOutcome, Vec<EdgeWeight>) {
    let mut stats = SolverStats::default();
    let mut ctx = SolveContext::new(&mut stats);
    let out = ReductionPipeline::standard()
        .run(g, None, &mut ctx)
        .expect("no time budget");
    (out, stats.lambda_trajectory)
}

fn check(name: &str, g: &CsrGraph, pin: Pin) {
    let (out, trajectory) = kernelize(g);
    assert_eq!(trajectory.last(), Some(&out.lambda_hat), "{name}");
    let passes: Vec<PassPin> = out
        .passes
        .iter()
        .map(|p| (p.name, p.rounds, p.vertices_removed, p.edges_removed))
        .collect();
    let side = out.side.as_ref().expect("the pipeline tracks witnesses");
    let got = format!(
        "kernel ({}, {}, {:#018x}), λ̂ {:?}, witness {}, passes {:?}",
        out.kernel.n(),
        out.kernel.m(),
        out.kernel.fingerprint(),
        trajectory,
        g.cut_value(side),
        passes
    );
    let want = format!(
        "kernel ({}, {}, {:#018x}), λ̂ {:?}, witness {}, passes {:?}",
        pin.kernel_n,
        pin.kernel_m,
        pin.kernel_fingerprint,
        pin.lambda_trajectory,
        pin.lambda_trajectory.last().expect("λ̂ has a first value"),
        pin.passes
    );
    assert_eq!(got, want, "{name}: pipeline output moved");
}

#[test]
fn rhg_kernel_is_pinned() {
    // Padberg–Rinaldi collapses the whole graph in one round, as on
    // perfbench's `rhg_solve` input.
    let mut rng = SmallRng::seed_from_u64(1);
    let g = random_hyperbolic_graph(&RhgParams::paper(1 << 12, 32.0), &mut rng);
    check(
        "rhg",
        &g,
        Pin {
            kernel_n: 1,
            kernel_m: 0,
            kernel_fingerprint: 0x89cd31291d2aefa4,
            lambda_trajectory: &[11],
            passes: [
                ("components", 1, 0, 0),
                ("degree-bound", 1, 0, 0),
                ("heavy-edge", 1, 0, 0),
                ("padberg-rinaldi", 1, 4095, 65428),
            ],
        },
    );
}

#[test]
fn social_core_kernel_is_pinned() {
    // Three fixpoint rounds; the satellite cliques bring λ̂ from the
    // core's minimum degree 8 down to 3.
    let (g, _) = k_core_lcc(&social_proxy(1 << 12, 7), 8);
    check(
        "social 8-core",
        &g,
        Pin {
            kernel_n: 1,
            kernel_m: 0,
            kernel_fingerprint: 0x89cd31291d2aefa4,
            lambda_trajectory: &[8, 5, 3],
            passes: [
                ("components", 1, 0, 0),
                ("degree-bound", 3, 0, 0),
                ("heavy-edge", 3, 1028, 7365),
                ("padberg-rinaldi", 2, 3034, 25135),
            ],
        },
    );
}

#[test]
fn ring_of_cliques_kernel_is_pinned() {
    // Minimum weighted degree 33, λ = 4. Round 1's `degree-bound` pass,
    // the first to run on the connected graph, lowers λ̂ to 4 with a
    // whole clique as its prefix; test 3 then collapses the cliques and
    // the fixpoint takes a second round to finish the ring.
    let (g, lambda) = known::ring_of_cliques(8, 12, 3, 2);
    assert_eq!(lambda, 4);
    check(
        "ring of cliques",
        &g,
        Pin {
            kernel_n: 2,
            kernel_m: 1,
            kernel_fingerprint: 0x4c4a445954a535e2,
            lambda_trajectory: &[33, 4],
            passes: [
                ("components", 1, 0, 0),
                ("degree-bound", 2, 0, 0),
                ("heavy-edge", 2, 4, 4),
                ("padberg-rinaldi", 2, 90, 531),
            ],
        },
    );
}
