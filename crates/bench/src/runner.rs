//! Algorithm runners for the experiment binaries: value-only (no witness
//! tracking) timed executions, matching how the paper measures.
//!
//! Solvers are resolved through [`SolverRegistry`] — the bench harness
//! holds no name → algorithm mapping of its own. A [`BenchSpec`] is just
//! a registry spelling (possibly queue-pinned, e.g. `NOIλ̂-BStack`) plus
//! a thread count.
//!
//! Measurement note: the session API always tallies priority-queue
//! operations (a non-atomic thread-local add per push/raise/pop, ~1 ns).
//! The overhead is uniform across every variant, so the *relative*
//! rankings the paper's figures compare are unaffected; absolute ns/edge
//! numbers include it.

use std::time::Instant;

use mincut_core::{PqKind, SolveOptions, SolverRegistry};
use mincut_graph::{CsrGraph, EdgeWeight};

/// One benchmarked configuration: a solver name as registered (§4.1
/// spelling or alias, queue-pinned forms included) and a thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSpec {
    /// Registry spelling, e.g. `NOIλ̂-BStack-VieCut` or `parcut-bqueue`.
    pub solver: String,
    /// Worker threads (only read by the parallel solvers).
    pub threads: usize,
}

impl BenchSpec {
    /// A sequential spec by registry name.
    pub fn named(solver: impl Into<String>) -> Self {
        BenchSpec {
            solver: solver.into(),
            threads: 1,
        }
    }

    /// NOIλ̂ with the given queue.
    pub fn noi_bounded(pq: PqKind) -> Self {
        BenchSpec::named(format!("NOIλ̂-{pq}"))
    }

    /// NOIλ̂-·-VieCut with the given queue.
    pub fn noi_bounded_viecut(pq: PqKind) -> Self {
        BenchSpec::named(format!("NOIλ̂-{pq}-VieCut"))
    }

    /// ParCutλ̂ with the given queue and thread count.
    pub fn parcut(pq: PqKind, threads: usize) -> Self {
        BenchSpec {
            solver: format!("ParCutλ̂-{pq}"),
            threads,
        }
    }

    fn options(&self, seed: u64) -> SolveOptions {
        SolveOptions::new()
            .seed(seed)
            .threads(self.threads)
            .witness(false)
    }
}

impl std::fmt::Display for BenchSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.threads > 1 {
            write!(f, "{}-p{}", self.solver, self.threads)
        } else {
            write!(f, "{}", self.solver)
        }
    }
}

/// The eight sequential variants of Figure 2, in the paper's legend order.
pub fn fig2_algorithms() -> Vec<BenchSpec> {
    [
        "HO-CGKLS",
        "NOI-CGKLS",
        "NOIλ̂-BStack",
        "NOIλ̂-BQueue",
        "NOI-HNSS",
        "NOIλ̂-Heap",
        "NOI-HNSS-VieCut",
        "NOIλ̂-Heap-VieCut",
    ]
    .into_iter()
    .map(BenchSpec::named)
    .collect()
}

/// Runs one configuration once; returns (cut value, seconds).
pub fn run_once(g: &CsrGraph, spec: &BenchSpec, seed: u64) -> (EdgeWeight, f64) {
    let solver = SolverRegistry::global()
        .resolve(&spec.solver)
        .unwrap_or_else(|e| panic!("bench spec: {e}"));
    let t0 = Instant::now();
    let outcome = solver
        .solve(g, &spec.options(seed))
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
    (outcome.cut.value, t0.elapsed().as_secs_f64())
}

/// Runs `reps` repetitions; returns (value, average seconds). Panics if a
/// deterministic-value solver disagrees across repetitions (a correctness
/// tripwire inside the benchmark harness itself).
pub fn run_avg(g: &CsrGraph, spec: &BenchSpec, reps: usize, seed: u64) -> (EdgeWeight, f64) {
    let deterministic = !SolverRegistry::global()
        .resolve(&spec.solver)
        .unwrap_or_else(|e| panic!("bench spec: {e}"))
        .capabilities()
        .randomized_value;
    let mut total = 0.0;
    let mut value = None;
    for i in 0..reps.max(1) {
        let (v, secs) = run_once(g, spec, seed.wrapping_add(i as u64));
        total += secs;
        match value {
            None => value = Some(v),
            Some(prev) => {
                if deterministic {
                    assert_eq!(prev, v, "{spec} returned different values across runs");
                }
            }
        }
    }
    (value.unwrap(), total / reps.max(1) as f64)
}

/// Replays per side of a wall-clock gate that compares two replays of
/// 10–100 ms (`dynamic_throughput`, `cactus_bench`).
pub const GATE_REPLAYS: usize = 3;

/// Times `replay` as the best of [`GATE_REPLAYS`] runs, the statistic
/// `hotpath` reports: one descheduling spike or cold cache cannot decide
/// a gate. Every run must return what the first returned (its λ sequence,
/// its cut counts), so a gate never times a replay it has not checked.
/// Returns the first run's result and the best time in seconds.
pub fn best_replay<T: PartialEq + std::fmt::Debug>(
    what: &str,
    mut replay: impl FnMut() -> T,
) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut first: Option<T> = None;
    for _ in 0..GATE_REPLAYS {
        let t0 = Instant::now();
        let out = replay();
        best = best.min(t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some(out),
            Some(f) => assert_eq!(f, &out, "{what}: replays disagree"),
        }
    }
    (first.expect("at least one replay"), best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    #[test]
    fn fig2_specs_all_resolve_and_agree() {
        let (g, l) = known::two_communities(8, 8, 2, 2, 1);
        for spec in fig2_algorithms() {
            let (v, _) = run_avg(&g, &spec, 2, 11);
            assert_eq!(v, l, "{spec}");
        }
    }

    #[test]
    fn parcut_spec_matches_sequential() {
        let (g, l) = known::ring_of_cliques(5, 5, 2, 1);
        for pq in PqKind::ALL {
            let (v, _) = run_once(&g, &BenchSpec::parcut(pq, 2), 5);
            assert_eq!(v, l);
        }
    }
}
