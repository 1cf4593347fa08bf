//! The object-safe [`Solver`] trait and the instrumented [`Session`] API.
//!
//! Every algorithm in this crate (and the flow-based comparators of
//! `mincut-flow`) sits behind this interface, so drivers — the CLI, the
//! bench harness, the solver-matrix tests — sweep configurations without
//! naming concrete types. A solve returns a [`SolveOutcome`]: the cut
//! plus the [`SolverStats`] telemetry report.

use std::time::Instant;

use mincut_graph::components::{connected_components, smallest_component_side};
use mincut_graph::CsrGraph;

use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::reduce::{ReduceOutcome, ReductionPipeline};
use crate::stats::{SolveContext, SolverStats};
use crate::MinCutResult;

/// Quality guarantee a solver's returned value carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guarantee {
    /// Always returns λ(G).
    Exact,
    /// Returns the value of an actual cut ≥ λ(G) (VieCut — in practice
    /// usually λ itself).
    UpperBound,
}

impl Guarantee {
    pub fn is_exact(self) -> bool {
        matches!(self, Guarantee::Exact)
    }
}

/// What a solver supports, advertised through the registry so drivers
/// can pick solvers by property instead of by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capabilities {
    pub guarantee: Guarantee,
    /// Reads [`SolveOptions::pq`] (or accepts a queue-pinned name).
    pub uses_pq: bool,
    /// Reads [`SolveOptions::initial_bound`] to seed λ̂ (the NOI family).
    /// Drivers that donate bounds — the batch service's bound sharing —
    /// skip solvers without this.
    pub uses_initial_bound: bool,
}

/// A finished run: the cut and its telemetry.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    pub cut: MinCutResult,
    pub stats: SolverStats,
}

/// An object-safe minimum-cut solver.
///
/// Implementations provide [`Solver::run`]; the provided [`Solver::solve`]
/// wraps it with the shared preflight (input validation, the disconnected
/// short-circuit), priority-queue counter harvesting and total timing, so
/// every solver behaves uniformly at the edges.
pub trait Solver: Send + Sync {
    /// Canonical family name as registered (paper §4.1 spelling).
    fn name(&self) -> &'static str;

    fn capabilities(&self) -> Capabilities;

    /// Fully-qualified instance name under the given options, e.g.
    /// `NOIλ̂-BQueue-VieCut` or `ParCutλ̂-BQueue(p=8)`.
    fn instance_name(&self, _opts: &SolveOptions) -> String {
        self.name().to_string()
    }

    /// The algorithm body. `g` is guaranteed connected with n ≥ 2 and
    /// `opts` validated when called through [`Solver::solve`].
    fn run(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        ctx: &mut SolveContext<'_>,
    ) -> Result<MinCutResult, MinCutError>;

    /// Solves `g` under `opts`, producing the cut and its stats report.
    ///
    /// Uniform behavior across every solver: fewer than two vertices is
    /// [`MinCutError::TooFewVertices`]; a disconnected graph returns
    /// value 0 with the **smallest component** as the canonical witness,
    /// without running the algorithm. When [`SolveOptions::reductions`]
    /// is on (the default), the shared preflight runs the
    /// [`ReductionPipeline`] first and the algorithm body only sees the
    /// kernel; the λ̂ found during kernelization and the kernel
    /// solve combine into the exact answer.
    fn solve(&self, g: &CsrGraph, opts: &SolveOptions) -> Result<SolveOutcome, MinCutError> {
        solve_impl(self, g, opts, None)
    }

    /// [`Solver::solve`] against a kernel someone else already computed
    /// (the batch service kernelizes once per graph fingerprint and fans
    /// the result out to every job on that graph). `kernel` must come
    /// from a [`ReductionPipeline`] run over this same `g`.
    fn solve_with_kernel(
        &self,
        g: &CsrGraph,
        opts: &SolveOptions,
        kernel: &ReduceOutcome,
    ) -> Result<SolveOutcome, MinCutError> {
        solve_impl(self, g, opts, Some(kernel))
    }
}

/// Shared body of [`Solver::solve`] / [`Solver::solve_with_kernel`].
fn solve_impl<S: Solver + ?Sized>(
    solver: &S,
    g: &CsrGraph,
    opts: &SolveOptions,
    precomputed: Option<&ReduceOutcome>,
) -> Result<SolveOutcome, MinCutError> {
    opts.validate()?;
    let t0 = Instant::now();
    let mut stats = SolverStats::new(solver.instance_name(opts), g.n(), g.m());
    // The root span of the solve; phase spans (reduce, rounds, scans)
    // nest underneath on the same track.
    let mut solve_span = mincut_obs::span("solve");
    solve_span.arg_display("algorithm", &stats.algorithm);
    solve_span.arg("n", g.n());
    solve_span.arg("m", g.m());

    if g.n() < 2 {
        return Err(MinCutError::TooFewVertices { n: g.n() });
    }
    // A sided bound is checked against the graph: every solver adopts it
    // as λ̂, so a side that is no cut, or costs more than its value, would
    // come back as a wrong λ. (`is_proper_cut` checks the length too.)
    if let Some((value, Some(side))) = &opts.initial_bound {
        if !g.is_proper_cut(side) || g.cut_value(side) != *value {
            return Err(MinCutError::InvalidOptions {
                message: format!(
                    "initial_bound side is not a proper cut of value {value} of this \
                     {}-vertex graph",
                    g.n()
                ),
            });
        }
    }
    // The pipeline's mandatory component-split preamble subsumes this
    // scan (same λ = 0, same smallest-component witness), so the O(n+m)
    // connectivity pass runs at most once per solve — and not at all for
    // jobs served a precomputed kernel.
    if !opts.reductions {
        let (comp, ncomp) = connected_components(g);
        if ncomp > 1 {
            stats.record_lambda(0);
            stats.total_seconds = t0.elapsed().as_secs_f64();
            let side = smallest_component_side(&comp, ncomp);
            return Ok(SolveOutcome {
                cut: MinCutResult {
                    value: 0,
                    side: opts.witness.then_some(side),
                },
                stats,
            });
        }
    }

    // PQ-operation totals flow from the drivers' own instrumented queues
    // into the context (no thread-local counters anywhere).
    let mut ctx = SolveContext::for_options(&mut stats, opts);
    let computed: ReduceOutcome;
    let kernel: Option<&ReduceOutcome> = if !opts.reductions {
        None
    } else if let Some(k) = precomputed {
        debug_assert_eq!((k.original_n, k.original_m), (g.n(), g.m()));
        Some(k)
    } else {
        computed = ctx.time_phase("reduce", |inner| {
            ReductionPipeline::standard().run(g, opts.initial_bound.clone(), inner)
        })?;
        Some(&computed)
    };

    let result = match kernel {
        None => solver.run(g, opts, &mut ctx),
        Some(red) => finish_with_kernel(solver, opts, red, &mut ctx),
    };
    let cut = match result {
        Ok(cut) => cut,
        Err(e) => {
            mincut_obs::flight().record(
                "solver",
                format!("{} failed on n={} m={}: {e}", stats.algorithm, g.n(), g.m()),
            );
            return Err(e);
        }
    };

    stats.record_lambda(cut.value);
    stats.total_seconds = t0.elapsed().as_secs_f64();
    solve_span.arg("lambda", cut.value);
    Ok(SolveOutcome { cut, stats })
}

/// Runs the algorithm body on the kernel and combines its result with
/// the kernelization bound: the pipeline invariant is
/// `λ(G) = min(λ̂, λ(kernel))`, so taking the minimum — with the kernel
/// witness mapped back through the membership — is exact.
fn finish_with_kernel<S: Solver + ?Sized>(
    solver: &S,
    opts: &SolveOptions,
    red: &ReduceOutcome,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    ctx.stats.kernel_n = red.kernel.n();
    ctx.stats.kernel_m = red.kernel.m();
    // Per-pass timings describe the pipeline run that produced `red` —
    // for a precomputed kernel that is the donor's run. The batch
    // service zeroes them on cache-served jobs so summed telemetry
    // counts the one run exactly once.
    ctx.stats.reductions = red.passes.clone();

    // Fold in a caller bound the pipeline did not see (precomputed
    // kernels are shared across jobs and computed without per-job
    // bounds).
    let mut lambda_hat = red.lambda_hat;
    let mut best_side: Option<Vec<bool>> = red.side.clone();
    if let Some((b, bside)) = &opts.initial_bound {
        if *b < lambda_hat {
            lambda_hat = *b;
            best_side = bside.clone();
        }
    }
    ctx.stats.record_lambda(lambda_hat);

    // λ̂ ≤ 1 is terminal on a connected graph with integer weights ≥ 1,
    // and a fully collapsed kernel has nothing left to solve. Checked on
    // the post-bound-fold λ̂, hence not `red.is_terminal()` directly.
    if !crate::reduce::kernel_is_terminal(red.kernel.n(), lambda_hat) {
        let mut kopts = opts.clone();
        kopts.reductions = false;
        // λ̂'s witness generally does not survive contraction (that is
        // the point of tracking it), so the kernel solver cannot adopt
        // the side — but a value-only run can still adopt the cap: NOI's
        // bounded scans then return min(λ̂, λ(kernel)), which is exactly
        // what the combination below needs.
        kopts.initial_bound = if opts.witness || !solver.capabilities().uses_initial_bound {
            None
        } else {
            Some((lambda_hat, None))
        };
        let kernel_cut = solver.run(&red.kernel, &kopts, ctx)?;
        if kernel_cut.value < lambda_hat {
            lambda_hat = kernel_cut.value;
            best_side = kernel_cut
                .side
                .map(|side| red.membership.side_of_bitmap(&side));
        }
    }
    ctx.stats.record_lambda(lambda_hat);

    Ok(MinCutResult {
        value: lambda_hat,
        side: if opts.witness { best_side } else { None },
    })
}

impl std::fmt::Debug for dyn Solver + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Solver({})", self.name())
    }
}

/// An instrumented solving session over one graph: resolve solvers by
/// name through the [registry](crate::SolverRegistry), share one
/// [`SolveOptions`] value, collect [`SolveOutcome`]s.
///
/// ```
/// use mincut_core::{Session, SolveOptions};
/// use mincut_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 0, 1)]);
/// let session = Session::new(&g).options(SolveOptions::new().seed(1));
/// let outcome = session.run("noi-viecut").unwrap();
/// assert_eq!(outcome.cut.value, 2);
/// assert!(!outcome.stats.lambda_trajectory.is_empty());
/// ```
pub struct Session<'g> {
    graph: &'g CsrGraph,
    opts: SolveOptions,
}

impl<'g> Session<'g> {
    pub fn new(graph: &'g CsrGraph) -> Self {
        Session {
            graph,
            opts: SolveOptions::default(),
        }
    }

    /// Replaces the session options (builder-style).
    pub fn options(mut self, opts: SolveOptions) -> Self {
        self.opts = opts;
        self
    }

    pub fn options_mut(&mut self) -> &mut SolveOptions {
        &mut self.opts
    }

    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Runs the solver registered under `name` (canonical, alias, or
    /// queue-pinned spelling).
    pub fn run(&self, name: &str) -> Result<SolveOutcome, MinCutError> {
        let solver = crate::SolverRegistry::global().resolve(name)?;
        solver.solve(self.graph, &self.opts)
    }

    /// Runs every registered solver family once, in registry order.
    pub fn run_all(&self) -> Vec<(&'static str, Result<SolveOutcome, MinCutError>)> {
        crate::SolverRegistry::global()
            .entries()
            .map(|e| (e.canonical, self.run(e.canonical)))
            .collect()
    }
}
