//! # sm-mincut — shared-memory exact minimum cuts
//!
//! Facade crate: re-exports the whole workspace under one roof. This is
//! the crate downstream users depend on; the examples in `examples/` and
//! the integration tests in `tests/` are written against it.
//!
//! * [`graph`] — CSR graphs, builders, generators, k-cores, components, IO
//!   (`mincut-graph`);
//! * [`algorithms`] — every minimum-cut algorithm of the paper behind the
//!   [`Solver`] registry and [`Session`] API (`mincut-core`);
//! * [`flow`] — push-relabel max-flow, whose flows back Gomory–Hu and
//!   enumerate the minimum cuts that build the cactus, and Hao–Orlin
//!   (`mincut-flow`);
//! * [`ds`] — the priority queues and concurrent structures
//!   (`mincut-ds`), exposed for users building their own drivers.
//!
//! ## Quick start
//!
//! Solvers are resolved by name through the [`SolverRegistry`] — the
//! paper's §4.1 names (`NOIλ̂-VieCut`, `ParCutλ̂`) or their CLI spellings
//! (`noi-viecut`, `parcut`) — and every run returns the cut together
//! with a [`SolverStats`] telemetry report:
//!
//! ```
//! use sm_mincut::{CsrGraph, Session, SolveOptions};
//!
//! let g = CsrGraph::from_edges(5, &[
//!     (0, 1, 3), (1, 2, 3), (0, 2, 3), // a triangle...
//!     (2, 3, 1),                        // ...weakly attached to...
//!     (3, 4, 3),                        // ...a heavy pair.
//! ]);
//! let outcome = Session::new(&g)
//!     .options(SolveOptions::new().seed(42))
//!     .run("noi-viecut")
//!     .unwrap();
//! assert_eq!(outcome.cut.value, 1);
//! assert!(outcome.cut.verify(&g));
//! assert_eq!(*outcome.stats.lambda_trajectory.last().unwrap(), 1);
//! ```
//!
//! ## Batch serving
//!
//! For many queries at once — sweeps and repeated instances — use
//! [`MinCutService`]: batches run concurrently, results memoise in a
//! [`CsrGraph::fingerprint`]-keyed cut cache, and jobs on the same graph
//! seed each other's λ̂ bound with a witnessed cut, re-costed on the
//! receiving job's graph (the `mincut --batch <manifest>` CLI mode and
//! the `batch_service` example drive it end to end):
//!
//! ```
//! use std::sync::Arc;
//! use sm_mincut::{BatchJob, CsrGraph, MinCutService, ServiceConfig};
//!
//! let g = Arc::new(CsrGraph::from_edges(3, &[(0, 1, 2), (1, 2, 1), (2, 0, 1)]));
//! let service = MinCutService::new(ServiceConfig::new().concurrency(1));
//! let report = service.run_batch(&[
//!     BatchJob::new(g.clone(), "noi-viecut"),
//!     BatchJob::new(g.clone(), "noi-viecut"), // cache hit
//! ]);
//! assert!(report.all_ok());
//! assert_eq!(report.stats.cache_hits, 1);
//! ```
//!
//! ## Dynamic updates
//!
//! When the graph itself mutates, [`DynamicMinCut`] maintains
//! `(λ, witness)` exactly across edge insertions and deletions over a
//! [`DeltaGraph`] overlay, re-solving (bound-seeded) only when an update
//! crosses the witness in a way that can change the answer; the
//! `mincut --stream <trace>` CLI mode and the `dynamic_stream` example
//! drive it end to end, and [`MinCutService::register_dynamic`] hosts
//! it behind a handle that answers every read from its own maintainer:
//!
//! ```
//! use sm_mincut::{CsrGraph, DynamicMinCut, SolveOptions};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
//! let mut dyn_cut = DynamicMinCut::new(g, "noi-viecut", SolveOptions::new()).unwrap();
//! assert_eq!(dyn_cut.lambda(), 2);
//! assert_eq!(dyn_cut.delete_edge(1, 2).unwrap().lambda, 1);
//! assert_eq!(dyn_cut.insert_edge(1, 2, 3).unwrap().lambda, 2);
//! ```
//!
//! ## Raw algorithms
//!
//! Every solver runs behind the kernelization pipeline by default. To
//! run an algorithm exactly as the paper states it — say NOI-HNSS
//! without any reduction pass — switch the passes off:
//!
//! ```
//! use sm_mincut::{CsrGraph, Session, SolveOptions};
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1, 2), (1, 2, 1), (2, 0, 1)]);
//! let outcome = Session::new(&g)
//!     .options(SolveOptions::new().reductions(false))
//!     .run("NOI-HNSS")
//!     .unwrap();
//! assert_eq!(outcome.cut.value, 2);
//! assert!(outcome.stats.reductions.is_empty());
//! ```

pub use mincut_core as algorithms;
pub use mincut_ds as ds;
pub use mincut_flow as flow;
pub use mincut_graph as graph;
pub use mincut_obs as obs;

// The names a typical user needs, flattened.
pub use mincut_core::{
    materialize, parse_trace, parse_trace_op, BatchJob, BatchReport, BatchStats, CacheStats,
    Cactus, CactusBuilder, CactusStats, Capabilities, DynamicHandle, DynamicMinCut, DynamicStats,
    ErrorPolicy, Guarantee, JobReport, JobStatus, Membership, MinCutError, MinCutResult,
    MinCutService, PqKind, ReduceOutcome, ReductionPassStats, ReductionPipeline, ServiceConfig,
    Session, SolveOptions, SolveOutcome, Solver, SolverRegistry, SolverStats, TraceOp,
    UpdateReport,
};
pub use mincut_graph::{CsrGraph, DeltaGraph, EdgeWeight, GraphBuilder, NodeId};

// Zero-copy `.smcpack` graph packs (write once, mmap forever); the CLI
// `mincut pack` subcommand and the `pack_quickstart` example sit on
// exactly this surface.
pub use mincut_graph::pack::{
    is_pack_path, load_pack, read_pack, write_pack, write_pack_file, PackError, PACK_EXTENSION,
};
