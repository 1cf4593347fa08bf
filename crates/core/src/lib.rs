//! # mincut-core — shared-memory exact minimum cuts
//!
//! A faithful, from-scratch Rust implementation of *"Shared-memory Exact
//! Minimum Cuts"* (Henzinger, Noe, Schulz; IPDPS 2019), including every
//! algorithm the paper builds on, optimises or compares against:
//!
//! | Paper name | Registered as (CLI alias) |
//! |---|---|
//! | NOI-HNSS, NOIλ̂-{BStack, BQueue, Heap} (±VieCut) | `NOI-HNSS`, `NOIλ̂`, `NOIλ̂-VieCut` (`hnss`, `noi`, `noi-viecut`) |
//! | ParCut (Algorithm 2) | `ParCutλ̂` (`parcut`) |
//! | VieCut (label propagation + Padberg–Rinaldi multilevel) | `VieCut` (`viecut`) |
//! | Stoer–Wagner | `StoerWagner` (`stoer-wagner`) |
//!
//! Their building blocks stay public for custom drivers: CAPFOREST with
//! the λ̂-bounded queues and Lemma 3.1 ([`capforest`]), the parallel
//! CAPFOREST of Algorithm 1 ([`parallel::capforest`]), label
//! propagation ([`viecut::label_propagation`](mod@viecut::label_propagation))
//! and the reduction passes ([`reduce`]).
//!
//! The flow-based comparators (Hao–Orlin/HO-CGKLS, Gomory–Hu) live in
//! the companion crate `mincut-flow` and are registered here alongside
//! the native solvers.
//!
//! ## The solver session API
//!
//! Every algorithm sits behind the object-safe [`Solver`] trait and is
//! registered by name in the [`SolverRegistry`] — the single source of
//! algorithm names for the CLI, the bench harness and the test matrix.
//! A [`Session`] resolves solvers by their paper names (§4.1) or CLI
//! spellings and returns a [`SolveOutcome`]: the cut plus a
//! [`SolverStats`] telemetry report (λ̂ trajectory, contraction counts,
//! priority-queue operation totals, phase timings).
//!
//! ```
//! use mincut_core::{Session, SolveOptions};
//! use mincut_graph::CsrGraph;
//!
//! // A square with one heavy diagonal.
//! let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]);
//!
//! // The paper's fastest sequential configuration, by CLI spelling...
//! let outcome = Session::new(&g).run("noi-viecut").unwrap();
//! assert_eq!(outcome.cut.value, 2);
//! assert!(outcome.cut.verify(&g));
//! // ...with a full telemetry report.
//! assert_eq!(*outcome.stats.lambda_trajectory.last().unwrap(), 2);
//!
//! // Queue-pinned paper spellings resolve too, and options sweep
//! // uniformly across every solver.
//! let opts = SolveOptions::new().seed(7).witness(false);
//! let bstack = Session::new(&g).options(opts).run("NOIλ̂-BStack").unwrap();
//! assert_eq!(bstack.cut.value, 2);
//! assert!(bstack.cut.side.is_none());
//! ```
//!
//! ## Kernelization
//!
//! Every solve first runs the exact reduction pipeline of the
//! [`reduce`] module (connected-component split, k-core-order degree
//! bound, heavy-edge and Padberg–Rinaldi contraction), so the algorithm
//! body only sees the kernel; λ̂ found along the way combines exactly via
//! `λ(G) = min(λ̂, λ(kernel))`. The [`SolveOptions::reductions`] knob
//! disables the pipeline (`--no-reduce` on the CLI), and [`SolverStats`]
//! reports the kernel size plus per-pass removals:
//!
//! ```
//! use mincut_core::{Reductions, Session, SolveOptions};
//! use mincut_graph::generators::known;
//!
//! let (g, l) = known::two_communities(12, 12, 2, 2, 1);
//! let on = Session::new(&g).run("noi").unwrap();
//! assert_eq!(on.cut.value, l);
//! assert!(on.stats.kernel_n < g.n(), "clustered graphs kernelize");
//!
//! let off = Session::new(&g)
//!     .options(SolveOptions::new().reductions(Reductions::None))
//!     .run("noi")
//!     .unwrap();
//! assert_eq!(off.cut.value, l, "reductions never change exact results");
//! ```
//!
//! Malformed inputs are values, not panics:
//!
//! ```
//! use mincut_core::{MinCutError, Session};
//! use mincut_graph::CsrGraph;
//!
//! let singleton = CsrGraph::from_edges(1, &[]);
//! let err = Session::new(&singleton).run("noi").unwrap_err();
//! assert_eq!(err, MinCutError::TooFewVertices { n: 1 });
//! ```
//!
//! ## The batch serving layer
//!
//! [`MinCutService`] serves many `(graph, solver, options)` jobs at once:
//! batches run concurrently on self-scheduling workers, results are
//! memoised in a [`CsrGraph::fingerprint`]-keyed cut cache so repeat
//! submissions never re-solve, and jobs sharing a graph or a declared
//! family reuse the best cut found so far as their initial λ̂ bound (see
//! the [`service`] module docs):
//!
//! ```
//! use std::sync::Arc;
//! use mincut_core::{BatchJob, MinCutService, ServiceConfig};
//! use mincut_graph::CsrGraph;
//!
//! let g = Arc::new(CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 5)]));
//! let service = MinCutService::new(ServiceConfig::new().concurrency(1));
//! let report = service.run_batch(&[
//!     BatchJob::new(g.clone(), "noi-viecut"),
//!     BatchJob::new(g.clone(), "noi-viecut"), // served from the cut cache
//! ]);
//! assert!(report.all_ok());
//! assert_eq!(report.stats.cache_hits, 1);
//! ```
//!
//! ## Dynamic updates
//!
//! Real traffic mutates its graphs. [`DynamicMinCut`] maintains
//! `(λ, witness)` exactly across edge insertions and deletions over a
//! [`DeltaGraph`](mincut_graph::DeltaGraph) overlay, re-solving — seeded
//! through [`SolveOptions::initial_bound`] — only when an insert crosses
//! the witness; a delete is absorbed or decided by one max flow between
//! its endpoints (see the [`dynamic`] module docs for the case
//! analysis). The service hosts it
//! behind a handle that answers every read from its own maintainer, and
//! the CLI exposes it as `mincut --stream <trace>`:
//!
//! ```
//! use mincut_core::{DynamicMinCut, SolveOptions};
//! use mincut_graph::generators::known;
//!
//! let (g, l) = known::two_communities(8, 8, 1, 2, 1); // one unit bridge
//! let mut dyn_cut = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new()).unwrap();
//! assert_eq!(dyn_cut.lambda(), l);
//!
//! // A second bridge doubles the community cut; the re-solve is seeded
//! // with the old witness at λ + w.
//! assert_eq!(dyn_cut.insert_edge(1, 9, 1).unwrap().lambda, 2);
//! // Deleting a crossing bridge is exact *without* a solver run.
//! assert_eq!(dyn_cut.delete_edge(0, 8).unwrap().lambda, 1);
//! ```

#![deny(unsafe_code)]

pub mod cactus;
pub mod capforest;
mod contracted;
pub mod dynamic;
mod error;
mod noi;
mod options;
pub mod parallel;
pub mod reduce;
mod registry;
pub mod service;
mod solver;
mod stats;
mod stoer_wagner;
pub mod viecut;

pub use cactus::{Cactus, CactusBuilder};
pub use dynamic::{
    materialize, parse_trace, parse_trace_op, DynamicMinCut, DynamicStats, TraceOp, UpdateReport,
};
pub use error::MinCutError;
pub use mincut_ds::PqKind;
pub use mincut_graph::Membership;
pub use options::SolveOptions;
pub use reduce::{ReduceOutcome, ReductionPipeline, Reductions};
pub use registry::{SolverEntry, SolverRegistry};
pub use service::{
    BatchJob, BatchReport, BatchStats, CacheStats, DynamicHandle, ErrorPolicy, JobReport,
    JobStatus, MinCutService, ServiceConfig,
};
pub use solver::{Capabilities, Guarantee, Session, SolveOutcome, Solver};
pub use stats::{
    json_string, CactusStats, PhaseTiming, ReductionPassStats, SolveContext, SolverStats,
};

use mincut_graph::{CsrGraph, EdgeWeight};

/// A minimum cut: its value and (optionally) a witness side over the
/// original vertex set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinCutResult {
    /// The cut value. For the exact algorithms this is λ(G); for VieCut
    /// it is the value of an actual cut ≥ λ(G).
    pub value: EdgeWeight,
    /// `side[v] == true` for the vertices on one side of the cut, if
    /// witness tracking was enabled (it is, through the default options).
    pub side: Option<Vec<bool>>,
}

impl MinCutResult {
    /// Checks the witness against the graph: proper cut, value matches.
    pub fn verify(&self, g: &CsrGraph) -> bool {
        match &self.side {
            None => false,
            Some(side) => g.is_proper_cut(side) && g.cut_value(side) == self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    /// Every (family × queue) instance of the registry, the replacement
    /// for the hand-listed `exact_algorithms()` vector.
    fn registry_instances() -> Vec<(String, Box<dyn Solver>, SolveOptions)> {
        SolverRegistry::global()
            .instances()
            .into_iter()
            .map(|solver| {
                let opts = SolveOptions::new().seed(0xC0FFEE).threads(2);
                let name = solver.instance_name(&opts);
                (name, solver, opts)
            })
            .collect()
    }

    #[test]
    fn all_exact_solvers_agree_on_known_family() {
        let (g, l) = known::two_communities(9, 7, 2, 3, 1);
        for (name, solver, opts) in registry_instances() {
            if !solver.capabilities().guarantee.is_exact() {
                continue;
            }
            let out = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.cut.value, l, "{name}");
            assert!(out.cut.verify(&g), "{name} witness");
        }
    }

    #[test]
    fn inexact_solvers_respect_their_guarantees() {
        let (g, l) = known::ring_of_cliques(6, 6, 2, 1);
        for (name, solver, opts) in registry_instances() {
            if solver.capabilities().guarantee.is_exact() {
                continue;
            }
            let out = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.cut.value >= l, "{name} went below λ");
            assert!(out.cut.verify(&g), "{name} must report an actual cut");
        }
    }

    #[test]
    fn stats_reports_are_populated() {
        let (g, l) = known::two_communities(12, 12, 2, 2, 1);

        // Default run: the kernelization pipeline collapses this clustered
        // instance, and the stats must say so.
        let out = Session::new(&g).run("NOIλ̂-BQueue-VieCut").unwrap();
        assert_eq!(out.cut.value, l);
        let s = &out.stats;
        assert_eq!(s.algorithm, "NOIλ̂-BQueue-VieCut");
        assert_eq!((s.n, s.m), (g.n(), g.m()));
        assert_eq!(*s.lambda_trajectory.last().unwrap(), l);
        assert!(s.phases.iter().any(|p| p.name == "reduce"));
        assert!(s.kernel_n < g.n(), "clustered instance must kernelize");
        assert!(!s.reductions.is_empty(), "per-pass telemetry recorded");
        assert!(
            s.reductions.iter().any(|p| p.vertices_removed > 0),
            "some pass must report removals"
        );
        assert!(s.total_seconds >= 0.0);

        // Reductions off: the classical path with PQ/phase telemetry.
        let opts = SolveOptions::new().no_reductions();
        let out = Session::new(&g)
            .options(opts.clone())
            .run("NOIλ̂-BQueue-VieCut")
            .unwrap();
        assert_eq!(out.cut.value, l);
        let s = &out.stats;
        assert_eq!(*s.lambda_trajectory.last().unwrap(), l);
        assert!(s.pq_ops.total() > 0, "counting queues must tally ops");
        assert!(s.phases.iter().any(|p| p.name == "viecut"));
        assert!(s.phases.iter().any(|p| p.name == "noi"));
        assert!(s.reductions.is_empty());

        let par = Session::new(&g).options(opts).run("parcut").unwrap();
        assert_eq!(par.cut.value, l);
        assert!(
            par.stats.pq_ops.total() > 0,
            "worker PQ ops must be harvested"
        );
        // ParCut times its bound and its round loop as separate phases.
        for phase in ["viecut", "parcut"] {
            assert!(
                par.stats.phases.iter().any(|p| p.name == phase),
                "ParCut must record a {phase:?} phase"
            );
        }
    }

    #[test]
    fn too_few_vertices_is_an_error_not_a_panic() {
        for n in [0, 1] {
            let g = CsrGraph::from_edges(n, &[]);
            for entry in SolverRegistry::global().entries() {
                let err = entry
                    .instantiate(None)
                    .solve(&g, &SolveOptions::new())
                    .unwrap_err();
                assert_eq!(
                    err,
                    MinCutError::TooFewVertices { n },
                    "{}",
                    entry.canonical
                );
            }
        }
    }

    #[test]
    fn disconnected_graphs_are_zero_with_witness_for_every_solver() {
        let g = CsrGraph::from_edges(6, &[(0, 1, 2), (1, 2, 2), (3, 4, 2), (4, 5, 2)]);
        for entry in SolverRegistry::global().entries() {
            let out = entry
                .instantiate(None)
                .solve(&g, &SolveOptions::new())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.canonical));
            assert_eq!(out.cut.value, 0, "{}", entry.canonical);
            assert!(out.cut.verify(&g), "{} witness", entry.canonical);
        }
    }

    #[test]
    fn time_budget_zero_fails_fast_on_iterative_solvers() {
        let (g, _) = known::grid_graph(12, 12, 1);
        let opts = SolveOptions::new().time_budget(std::time::Duration::ZERO);
        let err = Session::new(&g).options(opts).run("noi").unwrap_err();
        assert!(matches!(err, MinCutError::TimeBudgetExceeded { .. }));
    }

    #[test]
    fn verify_rejects_bad_witnesses() {
        let (g, _) = known::cycle_graph(5, 1);
        let bad = MinCutResult {
            value: 2,
            side: Some(vec![true; 5]), // improper
        };
        assert!(!bad.verify(&g));
        let none = MinCutResult {
            value: 2,
            side: None,
        };
        assert!(!none.verify(&g));
    }
}
