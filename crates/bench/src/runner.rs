//! Algorithm runners for the experiment binaries: value-only (no witness
//! tracking) timed executions without the kernelization pipeline,
//! matching how the paper measures.
//!
//! Solvers are resolved through [`SolverRegistry`] — the bench harness
//! holds no name → algorithm mapping of its own. A [`BenchSpec`] is just
//! a registry spelling (possibly queue-pinned, e.g. `NOIλ̂-BStack`) plus
//! a thread count.
//!
//! Measurement note: the session API always tallies priority-queue
//! operations. Every solver scans with a [`mincut_ds::CountingPq`], which
//! bumps plain struct fields per push/raise/pop and hands them over
//! through `take_ops`. The overhead is uniform across every variant, so
//! the *relative* rankings the paper's figures compare are unaffected;
//! absolute ns/edge numbers include it.

use std::time::Instant;

use mincut_core::{PqKind, SolveOptions, SolverRegistry};
use mincut_graph::{CsrGraph, EdgeWeight};

use crate::instances::Instance;
use crate::report::{BenchEntry, BenchReport};

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

    /// ParCutλ̂ with the given queue and thread count.
    pub fn parcut(pq: PqKind, threads: usize) -> Self {
        BenchSpec {
            solver: format!("ParCutλ̂-{pq}"),
            threads,
        }
    }

    /// The options a spec's solves run under: value only, and without
    /// the kernelization pipeline, which on the paper's families would
    /// collapse the graph before the measured algorithm ran.
    fn options(&self, seed: u64) -> SolveOptions {
        SolveOptions::new()
            .seed(seed)
            .threads(self.threads)
            .witness(false)
            .no_reductions()
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

/// Figure 5's sequential baselines. The paper's bottom row divides the
/// faster of the two by ParCut's time.
pub fn fig5_sequential() -> Vec<BenchSpec> {
    vec![
        BenchSpec::noi_bounded(PqKind::Heap),
        BenchSpec::noi_bounded(PqKind::BStack),
    ]
}

/// Figure 5's parallel series: ParCutλ̂ with each queue at each of
/// `threads`, queue-major in [`PqKind::ALL`] order.
pub fn fig5_parallel(threads: &[usize]) -> Vec<BenchSpec> {
    PqKind::ALL
        .into_iter()
        .flat_map(|pq| threads.iter().map(move |&p| BenchSpec::parcut(pq, p)))
        .collect()
}

/// The solver Table 1 computes each core's λ with.
pub const TABLE1_SOLVER: &str = "NOIλ̂-Heap";

/// The solver whose cut value the §3.1.2 ablation uses as its VieCut
/// bound.
pub const ABLATION_BOUND_SOLVER: &str = "viecut";

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

/// Runs `reps` repetitions; returns (value, average seconds). Panics if an
/// exact solver disagrees across repetitions (a correctness tripwire
/// inside the benchmark harness itself).
pub fn run_avg(g: &CsrGraph, spec: &BenchSpec, reps: usize, seed: u64) -> (EdgeWeight, f64) {
    let exact = SolverRegistry::global()
        .resolve(&spec.solver)
        .unwrap_or_else(|e| panic!("bench spec: {e}"))
        .capabilities()
        .guarantee
        .is_exact();
    let mut total = 0.0;
    let mut value = None;
    for i in 0..reps.max(1) {
        let (v, secs) = run_once(g, spec, seed.wrapping_add(i as u64));
        total += secs;
        match value {
            None => value = Some(v),
            Some(prev) => {
                if exact {
                    assert_eq!(prev, v, "{spec} returned different values across runs");
                }
            }
        }
    }
    (value.unwrap(), total / reps.max(1) as f64)
}

/// Times each of `specs` on `inst` through [`run_avg`] and pushes one
/// `report` row per spec, carrying that spec's own λ. Every spec must be
/// an exact solver: panics unless all of them return the same λ. Returns
/// that λ and each spec's average seconds, in `specs` order.
pub fn sweep(
    report: &mut BenchReport,
    inst: &Instance,
    specs: &[BenchSpec],
    reps: usize,
    seed: u64,
) -> (EdgeWeight, Vec<f64>) {
    let g = &inst.graph;
    let mut lambda = None;
    let mut secs = Vec::with_capacity(specs.len());
    for spec in specs {
        let (value, s) = run_avg(g, spec, reps, seed);
        let first = *lambda.get_or_insert(value);
        assert_eq!(
            first, value,
            "exact solvers disagree on {}: {spec}",
            inst.name
        );
        let mut entry = BenchEntry::named(&inst.name, &spec.solver, spec.threads, g.n(), g.m());
        entry.lambda = value;
        entry.wall_s = s;
        entry.reps = reps;
        report.push(entry);
        secs.push(s);
    }
    (lambda.expect("a sweep runs at least one spec"), secs)
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

/// Runs `f` `reps` times back to back and returns the last result and the
/// best single run's time in seconds. Best-of-reps, not mean-of-reps: on
/// a throttled shared box one descheduling spike inside the batch would
/// otherwise poison the mean (`hotpath`, `ingest`).
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let t0 = Instant::now();
    let mut out = f();
    let mut prev = t0.elapsed().as_secs_f64();
    best = best.min(prev);
    for _ in 1..reps {
        out = f();
        let now = t0.elapsed().as_secs_f64();
        best = best.min(now - prev);
        prev = now;
    }
    (out, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::Scale;
    use mincut_graph::generators::known;

    /// Every spelling `repro` runs resolves in the registry, the exact
    /// ones agree on λ, and the sweep writes one row per spec with that
    /// spec's λ.
    #[test]
    fn repro_specs_all_resolve_and_agree() {
        let (graph, l) = known::two_communities(8, 8, 2, 2, 1);
        let inst = Instance {
            name: "two_communities".into(),
            graph,
        };
        let specs: Vec<BenchSpec> = fig2_algorithms()
            .into_iter()
            .chain(fig5_sequential())
            .chain(fig5_parallel(&[1, 2]))
            .chain([BenchSpec::named(TABLE1_SOLVER)])
            .collect();
        let mut report = BenchReport::new("unit", Scale::Tiny);
        let (v, secs) = sweep(&mut report, &inst, &specs, 2, 11);
        assert_eq!(v, l);
        assert_eq!(secs.len(), specs.len());
        let rows: Vec<_> = report
            .entries()
            .iter()
            .map(|e| (e.solver.as_str(), e.threads, e.lambda, e.reps))
            .collect();
        let want: Vec<_> = specs
            .iter()
            .map(|s| (s.solver.as_str(), s.threads, l, 2))
            .collect();
        assert_eq!(rows, want);
        // The ablation's bound solver is VieCut, an upper bound.
        let (ub, _) = run_avg(&inst.graph, &BenchSpec::named(ABLATION_BOUND_SOLVER), 2, 11);
        assert!(ub >= l, "{ABLATION_BOUND_SOLVER}: {ub} < λ = {l}");
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
