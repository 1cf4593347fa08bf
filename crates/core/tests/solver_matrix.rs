//! Core-crate integration: the full solver matrix, driven by the
//! registry. Every registered solver family × every queue it accepts
//! runs over the structured instance families the library ships —
//! `known::` generators, SBM communities, small worlds, weighted
//! variants — asserting each family's advertised guarantee (exactness
//! or bound) and witness validity. No hand-listed algorithm vectors:
//! [`SolverRegistry::entries`] names are the single source of truth.

use mincut_core::{Guarantee, Session, SolveOptions, Solver, SolverRegistry};
use mincut_graph::generators::{known, planted_partition, randomize_weights, watts_strogatz};
use mincut_graph::{CsrGraph, EdgeWeight};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every (family × queue) instance of the registry.
fn all_instances() -> Vec<(String, Box<dyn Solver>)> {
    SolverRegistry::global()
        .instances()
        .into_iter()
        .map(|s| (s.instance_name(&SolveOptions::new()), s))
        .collect()
}

/// Runs the whole matrix on one connected graph with known (or
/// reference-computed) minimum cut `lambda`, checking every solver's
/// guarantee and witness.
fn solver_matrix(g: &CsrGraph, lambda: EdgeWeight, label: &str) {
    let opts = SolveOptions::new().seed(0x5eed).threads(4);
    for (name, solver) in all_instances() {
        let out = solver
            .solve(g, &opts)
            .unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
        match solver.capabilities().guarantee {
            Guarantee::Exact => {
                assert_eq!(out.cut.value, lambda, "{label}: {name} must be exact");
            }
            Guarantee::UpperBound => {
                assert!(out.cut.value >= lambda, "{label}: {name} went below λ");
            }
        }
        assert!(
            out.cut.verify(g),
            "{label}: {name} must report an actual cut with a valid witness"
        );
        assert_eq!(
            *out.stats.lambda_trajectory.last().unwrap(),
            out.cut.value,
            "{label}: {name} trajectory must end at the returned value"
        );
    }

    // Witness-off runs return the same values with no side.
    let blind = SolveOptions::new().seed(0x5eed).threads(2).witness(false);
    for entry in SolverRegistry::global().entries() {
        let solver = entry.instantiate(None);
        let out = solver
            .solve(g, &blind)
            .unwrap_or_else(|e| panic!("{label}/{}: {e}", entry.canonical));
        assert!(
            out.cut.side.is_none(),
            "{label}: {} leaked a witness",
            entry.canonical
        );
        if entry.caps().guarantee.is_exact() {
            assert_eq!(
                out.cut.value, lambda,
                "{label}: {} value-only run",
                entry.canonical
            );
        }
    }
}

#[test]
fn matrix_on_known_families() {
    let (g, l) = known::two_communities(9, 8, 2, 3, 1);
    solver_matrix(&g, l, "two-communities");
    let (g, l) = known::ring_of_cliques(5, 5, 2, 1);
    solver_matrix(&g, l, "ring-of-cliques");
    let (g, l) = known::grid_graph(5, 6, 2);
    solver_matrix(&g, l, "grid");
    let (g, l) = known::cycle_graph(24, 3);
    solver_matrix(&g, l, "cycle");
}

#[test]
fn matrix_on_planted_partition() {
    let mut rng = SmallRng::seed_from_u64(100);
    for trial in 0..2 {
        let g = planted_partition(5, 16, 0.5, 0.02, &mut rng);
        if !mincut_graph::components::is_connected(&g) {
            continue;
        }
        // Reference value from the default exact solver.
        let reference = Session::new(&g).run("noi").unwrap().cut.value;
        solver_matrix(&g, reference, &format!("sbm-{trial}"));
        // A weighted variant of the same topology.
        let w = randomize_weights(&g, 7, &mut rng);
        if mincut_graph::components::is_connected(&w) {
            let reference = Session::new(&w).run("noi").unwrap().cut.value;
            solver_matrix(&w, reference, &format!("sbm-weighted-{trial}"));
        }
    }
}

#[test]
fn matrix_on_small_world() {
    let mut rng = SmallRng::seed_from_u64(200);
    let g = watts_strogatz(120, 3, 0.1, &mut rng);
    let reference = Session::new(&g).run("noi-viecut").unwrap().cut.value;
    solver_matrix(&g, reference, "watts-strogatz");
    let w = randomize_weights(&g, 4, &mut rng);
    let reference = Session::new(&w).run("noi-viecut").unwrap().cut.value;
    solver_matrix(&w, reference, "watts-strogatz-weighted");
}

#[test]
fn viecut_is_exact_on_strong_communities() {
    // On well-separated SBM instances VieCut should not just bound but
    // *equal* the minimum cut (the behaviour the paper relies on: "in
    // most cases it already finds the minimum cut").
    let mut rng = SmallRng::seed_from_u64(300);
    let mut exact_hits = 0;
    let trials = 6;
    for t in 0..trials {
        let g = planted_partition(4, 32, 0.6, 0.01, &mut rng);
        if !mincut_graph::components::is_connected(&g) {
            exact_hits += 1; // both report 0
            continue;
        }
        let session = Session::new(&g).options(SolveOptions::new().seed(t));
        let vc = session.run("viecut").unwrap().cut.value;
        let exact = session.run("noi").unwrap().cut.value;
        assert!(vc >= exact);
        if vc == exact {
            exact_hits += 1;
        }
    }
    assert!(
        exact_hits >= trials - 1,
        "VieCut found the exact cut only {exact_hits}/{trials} times on its best-case family"
    );
}

#[test]
fn session_run_all_covers_every_family() {
    let (g, l) = known::two_communities(10, 10, 2, 2, 1);
    let results = Session::new(&g).run_all();
    assert_eq!(
        results.len(),
        SolverRegistry::global().names().len(),
        "run_all must cover the registry"
    );
    for (name, result) in results {
        let out = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.cut.value >= l, "{name}");
        assert!(out.cut.verify(&g), "{name} witness");
        assert!(out.stats.total_seconds >= 0.0);
    }
}
