//! Kernelization: exact reduction passes shared by every solver.
//!
//! The paper's speed comes from *bound-driven contraction*: cheap local
//! tests shrink the graph to a small kernel before any expensive scan work
//! (§3; the VieCut line of work). This module makes that a first-class
//! subsystem instead of per-solver folklore: a [`ReductionPipeline`]
//! splits off the connected components, then runs its exact passes to a
//! fixpoint on the same contraction state every solver's round loop uses,
//! and the resulting [`ReduceOutcome`] carries the kernel, the
//! [`Membership`] map back to the original vertex set, the best bound λ̂
//! found on the way (always the value of a real cut, witness included)
//! and per-pass telemetry.
//!
//! **The exactness invariant.** Every pass preserves
//!
//! ```text
//! λ(G) = min(λ̂, λ(kernel))
//! ```
//!
//! * `components` — the mandatory first pass: a disconnected graph has
//!   λ = 0 with the smallest component as the canonical witness; each
//!   component collapses to one vertex and the pipeline terminates.
//! * `degree-bound` — takes the best *prefix cut* along the k-core
//!   peeling order ([`mincut_graph::kcore::peel_prefix_cuts`]), whose
//!   values the peel itself sums in its one O(n + m) pass over the arcs.
//!   Loosely attached structure peels first, so this generalises the
//!   trivial minimum-degree cut: the first prefix is a single
//!   minimum-degree vertex, later prefixes capture whole satellite
//!   communities. Bound only; never contracts, so it runs once, after
//!   `components` and ahead of the fixpoint. A later peel could only
//!   lower λ̂, never change λ, and on the pinned graphs
//!   (`crates/bench/tests/pipeline_kernels.rs`) and the paper-scale
//!   benchmark inputs its re-runs found nothing.
//! * `heavy-edge` — contracts every edge with `c(e) ≥ λ̂` (any cut
//!   separating its endpoints pays at least `c(e)`, so no cut below λ̂ is
//!   lost) or `2·c(e) ≥ min(c(u), c(v))` (safe for non-trivial cuts;
//!   trivial cuts are covered because the contraction state keeps λ̂ at
//!   most the minimum weighted degree of every interim kernel).
//! * `padberg-rinaldi` — the full Padberg–Rinaldi pass
//!   ([`padberg_rinaldi_pass`], shared with VieCut), adding the
//!   triangle test 3 on top of the edge-local tests. Test 3 reads the
//!   common neighbours off a neighbour bitset: the first edge of `u`
//!   that reaches it sets the bits of N(u) and keeps each x's place in
//!   u's row, O(deg u) once per vertex; each tested edge then probes
//!   N(v) against those bits, O(deg v), and stops as soon as the common
//!   neighbours' sum reaches `λ̂ − c(e)`: the bound decides, not the sum.
//!   The bitset is n/64 words, so it stays in cache; u's words are
//!   cleared before the next vertex. An edge whose endpoints the run has
//!   already united takes no test at all (see "Classify, then decide, in
//!   waves" below).
//!
//! **Re-testing only what a contraction touched, at any λ̂.** A
//! contraction *touches* every vertex it merges and every neighbour of a
//! merged vertex. When `heavy-edge` or `padberg-rinaldi` runs again, it
//! tests only the edges with an endpoint touched since its last run. An
//! untouched edge has the same weight, the same endpoint degrees and the
//! same common neighbours with the same weights as at that run, where it
//! failed all three tests. It failed test 2's degree condition, which
//! does not read λ̂: had the condition held, the edge's union, or the
//! matched or already-united endpoint that blocked it, would have merged
//! an endpoint. So test 2 fails again. Tests 1 and 3 compare with λ̂,
//! which only ever falls, so at a lower λ̂ they may now pass. The last
//! run therefore *records* each test-3 miss with a nonzero
//! common-neighbour sum as `(u, v, sum)`, in pass order; a miss read all
//! of N(v), so the sum is whole. Each contraction relabels the entries
//! of the edges it left untouched and drops the rest. The re-run decides
//! every untouched edge, in the order of a full pass, by test 1 against
//! the current λ̂ and by its recorded sum (0 if it has none: no common
//! neighbour, or past the degree budget) for test 3, which is what a full
//! pass would compute. Every union happens in the same order, and so the
//! kernel, the λ̂ trajectory and the witness are those of full passes.
//! The record stays small: on the seed-1 `social_parcut` benchmark input,
//! 2 014 659 of the 2 020 165 edges that reach test 3 in the first run
//! have no common neighbour, and the record holds 5 275 misses.
//!
//! **Classify, then decide, in waves.** A run of `heavy-edge` or
//! `padberg-rinaldi` reads a fixed graph at a fixed λ̂: it contracts only
//! after its last edge, and λ̂ changes only with a contraction. So no
//! test on an edge — test 1, test 2's degree condition, test 3's
//! common-neighbour sum, or the recorded sum of an untouched edge — reads
//! anything an earlier edge of the run decides. The run splits its
//! vertices into chunks of consecutive ids and takes them in waves of 1,
//! 2, 4, … chunks by chunk index (`heavy-edge`, which probes nothing, in
//! one wave). In a wave's classify phase the workers, as many as the
//! solve's threads past [`par::MIN_PARALLEL_ARCS`] arcs, run the tests on
//! its chunks, each worker on its own bitset, and keep a two-bit verdict
//! per edge. Then one worker decides the wave, chunk by chunk in pass
//! order, before the next wave starts: each union and whether it merged
//! two blocks, test 2's matching, test 3 on an edge the matching blocks,
//! each miss's place in the record, and the counters. One `par::map_each`
//! runs every wave; its workers meet at a barrier after each phase.
//!
//! A wave's classifiers read the run's union-find as the decided waves
//! left it, and a touched edge whose endpoints it already joins takes no
//! test: it counts in `edges_tested` and in `united`. The skip changes
//! only work. A test-1 or test-3 union of joined endpoints merges
//! nothing. Test 2's union fails on them, so it marks no vertex matched,
//! and its test-3 fallback can at most record a miss. Such a miss has
//! both endpoints in one merged block, so the run's own contraction
//! drops it from the record. A run that joins most vertices into few
//! blocks skips most edges of its later waves, whatever the vertex
//! order: on the seed-1 `rhg_solve` benchmark input, whose ids the
//! benchmark permutes at random, the run that collapses the graph skips
//! 4 129 130 of its 4 588 905 edges, and test 3 probes 4.73 M adjacency
//! entries instead of 44.18 M.
//!
//! The waves depend on chunk indices only, and a lone worker, which runs
//! inline, also classifies a whole wave before it decides any of it. So
//! every union, kernel, λ̂ trajectory, witness and record, and every
//! `reduce/pass` span argument but `workers` (`probes` and `united`
//! included), is the same at every width.
//!
//! Contractions run through
//! [`ContractionEngine::contract`](mincut_graph::ContractionEngine::contract),
//! the same accumulator every solver's round loop uses.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use mincut_ds::{par, UnionFind};
use mincut_graph::components::{connected_components, smallest_component_side};
use mincut_graph::kcore::peel_prefix_cuts;
use mincut_graph::{CsrGraph, EdgeWeight, Membership, NodeId};

use crate::contracted::Contracted;
use crate::error::MinCutError;
use crate::stats::{ReductionPassStats, SolveContext};

/// Whether a solve kernelizes before its main loop
/// ([`SolveOptions::reductions`](crate::SolveOptions::reductions)).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Reductions {
    /// The standard pipeline, every pass in canonical order (the default).
    #[default]
    All,
    /// No kernelization (the CLI's `--no-reduce`).
    None,
}

impl Reductions {
    /// Whether any kernelization runs at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, Reductions::None)
    }

    /// Stable spelling used as part of cache keys (the service's kernel
    /// cache and cut cache must distinguish reduction configurations).
    pub fn cache_key(&self) -> &'static str {
        match self {
            Reductions::All => "all",
            Reductions::None => "none",
        }
    }
}

/// One exact kernelization pass. Every pass preserves the pipeline
/// invariant `λ(G) = min(λ̂, λ(kernel))`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pass {
    Components,
    DegreeBound,
    HeavyEdge,
    PadbergRinaldi,
}

impl Pass {
    /// Stable pass name (stats key and `reduce/pass` span argument).
    fn name(self) -> &'static str {
        match self {
            Pass::Components => "components",
            Pass::DegreeBound => "degree-bound",
            Pass::HeavyEdge => "heavy-edge",
            Pass::PadbergRinaldi => "padberg-rinaldi",
        }
    }

    /// Whether the pass can contract. A bound-only pass cannot change
    /// λ(kernel), so it runs once, ahead of the fixpoint.
    fn contracts(self) -> bool {
        !matches!(self, Pass::DegreeBound)
    }

    /// Runs the pass once over the kernel; returns whether it contracted
    /// and, for the edge-testing passes, their work. `slot` is the pass's
    /// place in the pipeline, which keys its record in `touched`; `since`
    /// is the [`Touched`] epoch of its last run: the edge-testing passes
    /// then test only the edges touched after it and decide the rest from
    /// the record. `None` tests every edge. `workers` classify the edges.
    fn apply(
        self,
        k: &mut Contracted<'_>,
        touched: &mut Touched,
        slot: usize,
        since: Option<u32>,
        workers: usize,
    ) -> (bool, Option<PrWork>) {
        let g = k.graph();
        let n = g.n();
        match self {
            Pass::Components => {
                let (comp, ncomp) = connected_components(g);
                if ncomp <= 1 {
                    return (false, None);
                }
                k.offer_bitmap(0, Some(&smallest_component_side(&comp, ncomp)));
                touched.contract(k, &comp, ncomp);
                (true, None)
            }
            Pass::DegreeBound => {
                // The first prefix reaching the strict minimum below λ̂;
                // the whole vertex set (i = n − 1) is no cut.
                let mut best = (k.lambda(), usize::MAX);
                let order = peel_prefix_cuts(g, |i, cut| {
                    if i + 1 < n && cut < best.0 {
                        best = (cut, i);
                    }
                });
                if best.1 != usize::MAX {
                    k.offer(best.0, &order[..=best.1]);
                }
                (false, None)
            }
            Pass::HeavyEdge | Pass::PadbergRinaldi => {
                // Heavy-edge runs only the edge-local tests 1 and 2
                // (triangle budget 0).
                let triangle_budget = match self {
                    Pass::HeavyEdge => 0,
                    _ => TRIANGLE_DEGREE_BUDGET,
                };
                let mut uf = UnionFind::new(n);
                let mut misses = Vec::new();
                let lambda_hat = k.lambda();
                // A closure per case keeps a full pass free of the
                // per-edge touched test.
                let mut work = match since {
                    None => {
                        let input = PrInput {
                            g,
                            lambda_hat,
                            triangle_budget,
                            touched: |_| true,
                            record: &[],
                        };
                        pr_pass(&input, &mut uf, Some(&mut misses), workers)
                    }
                    Some(epoch) => {
                        let at = &touched.at;
                        let input = PrInput {
                            g,
                            lambda_hat,
                            triangle_budget,
                            touched: |v: NodeId| at[v as usize] > epoch,
                            record: &touched.records[slot],
                        };
                        pr_pass(&input, &mut uf, Some(&mut misses), workers)
                    }
                };
                touched.records[slot] = misses;
                if work.unions > 0 {
                    let (labels, blocks) = uf.dense_labels();
                    touched.contract(k, &labels, blocks);
                }
                work.recorded = touched.records[slot].len();
                (work.unions > 0, Some(work))
            }
        }
    }

    /// [`Pass::apply`] under a `reduce/pass` span, adding the pass's
    /// removals and time to `stats`.
    fn run(
        self,
        k: &mut Contracted<'_>,
        stats: &mut ReductionPassStats,
        touched: &mut Touched,
        slot: usize,
        since: Option<u32>,
        workers: usize,
    ) -> (bool, Option<PrWork>) {
        let t0 = Instant::now();
        let before = (k.graph().n(), k.graph().m());
        let mut pass_span = mincut_obs::span("reduce/pass");
        pass_span.arg("pass", self.name());
        pass_span.arg("n", before.0);
        pass_span.arg("m", before.1);
        pass_span.arg("lambda_hat", k.lambda());
        let (contracted, work) = self.apply(k, touched, slot, since, workers);
        let removed = (before.0 - k.graph().n(), before.1 - k.graph().m());
        pass_span.arg("vertices_removed", removed.0);
        pass_span.arg("edges_removed", removed.1);
        if let Some(work) = work {
            pass_span.arg("edges_tested", work.edges_tested);
            pass_span.arg("from_record", work.from_record);
            pass_span.arg("united", work.united);
            pass_span.arg("probes", work.probes);
            pass_span.arg("recorded", work.recorded);
            pass_span.arg("workers", work.workers);
        }
        drop(pass_span);
        stats.rounds += 1;
        stats.vertices_removed += removed.0 as u64;
        stats.edges_removed += removed.1 as u64;
        stats.seconds += t0.elapsed().as_secs_f64();
        (contracted, work)
    }
}

/// Which edges a fixpoint pass must re-test, and what its last run
/// recorded about the rest (see the module doc). Every contraction of
/// the pipeline starts a new epoch and stamps each vertex it merged, and
/// each neighbour of one, with it; a pass that last ran at epoch `e`
/// re-tests the edges with an endpoint stamped after `e`.
struct Touched {
    /// Contractions so far.
    epoch: u32,
    /// Current vertex → the last epoch that touched it (0: none).
    at: Vec<u32>,
    /// Per pipeline pass: its last run's test-3 misses with a nonzero
    /// common-neighbour sum, over the edges no contraction has touched
    /// since, in pass order and current vertex ids.
    records: Vec<Vec<Miss>>,
}

impl Touched {
    fn new(n: usize, passes: usize) -> Self {
        Touched {
            epoch: 0,
            at: vec![0; n],
            records: vec![Vec::new(); passes],
        }
    }

    /// Contracts `k` by `labels` (vertex → block in `[0, blocks)`) and
    /// carries the stamps over: a block keeps its members' latest stamp,
    /// and a merged block and its neighbours take the new epoch. Each
    /// record keeps, relabelled, the entries whose endpoints both escaped
    /// the new stamp. Those endpoints are singleton blocks, which dense
    /// labels number in vertex order, so the entries stay in pass order.
    fn contract(&mut self, k: &mut Contracted<'_>, labels: &[NodeId], blocks: usize) {
        k.contract(labels, blocks);
        self.epoch += 1;
        let mut at = vec![0; blocks];
        let mut members = vec![0u32; blocks];
        for (&stamp, &b) in self.at.iter().zip(labels) {
            at[b as usize] = at[b as usize].max(stamp);
            members[b as usize] += 1;
        }
        let g = k.graph();
        for b in (0..blocks).filter(|&b| members[b] > 1) {
            at[b] = self.epoch;
            for &x in g.neighbors(b as NodeId) {
                at[x as usize] = self.epoch;
            }
        }
        for record in &mut self.records {
            record.retain_mut(|m| {
                m.u = labels[m.u as usize];
                m.v = labels[m.v as usize];
                at[m.u as usize] < self.epoch && at[m.v as usize] < self.epoch
            });
            debug_assert!(record.is_sorted_by_key(|m| (m.u, m.v)));
        }
        self.at = at;
    }
}

/// Everything a pipeline run produces: the kernel, the way back, the
/// bound, and per-pass telemetry.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    pub kernel: CsrGraph,
    /// Kernel vertex → original vertices.
    pub membership: Membership,
    /// Best bound found during kernelization; always the value of a real
    /// cut of the original graph.
    pub lambda_hat: EdgeWeight,
    /// Witness of `lambda_hat` over the original vertex set. `None` only
    /// when a sideless caller-supplied bound was adopted (witness-off
    /// runs).
    pub side: Option<Vec<bool>>,
    pub passes: Vec<ReductionPassStats>,
    pub original_n: usize,
    pub original_m: usize,
}

impl ReduceOutcome {
    /// Whether the kernel needs no solver at all: fully collapsed, or λ̂
    /// already at the floor (0 = disconnected; 1 is unbeatable on a
    /// connected graph with integer weights ≥ 1). Drivers folding in an
    /// extra bound re-check via [`kernel_is_terminal`] with the tighter
    /// λ̂, as `Solver::solve` does.
    pub fn is_terminal(&self) -> bool {
        kernel_is_terminal(self.kernel.n(), self.lambda_hat)
    }
}

/// The single terminal condition shared by [`ReduceOutcome::is_terminal`]
/// and the solver preflight's kernel gate.
pub fn kernel_is_terminal(kernel_n: usize, lambda_hat: EdgeWeight) -> bool {
    kernel_n < 2 || lambda_hat <= 1
}

/// The component split and the bound-only passes, followed by the
/// contracting passes run to a fixpoint.
pub struct ReductionPipeline {
    /// The passes, in order. The component split and the bound-only
    /// passes run once, ahead of the fixpoint over the others.
    passes: Vec<Pass>,
}

/// Fixpoint guard: contraction passes strictly shrink the kernel, so this
/// is never the binding constraint on sane inputs.
const MAX_ROUNDS: usize = 32;

/// One run of an edge-testing pass: the λ̂ and edge count it started at,
/// its work and, in tests, the record it left (read by the tests).
#[derive(Clone, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
struct PassRun {
    pass: Pass,
    lambda_hat: EdgeWeight,
    m: usize,
    work: PrWork,
    #[cfg(test)]
    record: Vec<Miss>,
}

impl ReductionPipeline {
    /// The standard pipeline: every pass, canonical order.
    pub fn standard() -> Self {
        ReductionPipeline {
            passes: vec![Pass::DegreeBound, Pass::HeavyEdge, Pass::PadbergRinaldi],
        }
    }

    /// Builds the pipeline selected by a [`Reductions`] value: `None` when
    /// kernelization is disabled.
    pub fn from_options(r: &Reductions) -> Option<Self> {
        r.is_enabled().then(Self::standard)
    }

    /// Kernelizes `g` (n ≥ 2 required). `initial_bound` is an optional
    /// caller bound — the value of a real cut of `g`, with its side if
    /// known — that seeds λ̂ and thereby unlocks more heavy-edge
    /// contractions. Checks the context's time budget between passes.
    ///
    /// Disconnected inputs terminate immediately with λ̂ = 0 and the
    /// smallest component as witness: the split is the precondition of
    /// every other pass.
    pub fn run(
        &self,
        g: &CsrGraph,
        initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
        ctx: &mut SolveContext<'_>,
    ) -> Result<ReduceOutcome, MinCutError> {
        self.run_with(g, initial_bound, ctx, false, None)
            .map(|(outcome, _)| outcome)
    }

    /// [`ReductionPipeline::run`], also returning each run of an
    /// edge-testing pass. `retest_all` makes every such run test every
    /// edge: the reference the touched-edge rounds must match. `workers`
    /// classifies every run's edges on that many workers, at any graph
    /// size; `None` applies [`par::width`] at the context's threads.
    fn run_with(
        &self,
        g: &CsrGraph,
        initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
        ctx: &mut SolveContext<'_>,
        retest_all: bool,
        workers: Option<usize>,
    ) -> Result<(ReduceOutcome, Vec<PassRun>), MinCutError> {
        assert!(g.n() >= 2, "kernelization needs at least two vertices");
        // Sides are always tracked (even for witness-off runs) so one
        // outcome can be shared across jobs with different witness
        // settings.
        let mut k = Contracted::new(g, true);
        if let Some((value, side)) = initial_bound {
            // A sideless bound leaves the outcome sideless; callers with
            // witness tracking on never supply one (validated).
            k.adopt(value, side);
        }
        ctx.stats.record_lambda(k.lambda());

        let mut pass_stats: Vec<ReductionPassStats> = std::iter::once(&Pass::Components)
            .chain(&self.passes)
            .map(|p| ReductionPassStats::new(p.name()))
            .collect();
        let (split_stats, pass_stats_rest) = pass_stats.split_at_mut(1);
        let done = |k: &Contracted<'_>| k.graph().n() <= 2 || k.lambda() <= 1;

        // Every later pass assumes a connected kernel. A split leaves
        // λ̂ = 0, which ends the pipeline before its next pass.
        let mut touched = Touched::new(g.n(), self.passes.len());
        Pass::Components.run(&mut k, &mut split_stats[0], &mut touched, 0, None, 1);
        ctx.stats.record_lambda(k.lambda());
        let bound_only = self.passes.iter().zip(pass_stats_rest.iter_mut());
        for (&pass, ps) in bound_only.filter(|(p, _)| !p.contracts()) {
            if done(&k) {
                break;
            }
            ctx.check_budget()?;
            pass.run(&mut k, ps, &mut touched, 0, None, 1);
            ctx.stats.record_lambda(k.lambda());
        }

        // Per pass: the epoch of its last run.
        let mut last_run: Vec<Option<u32>> = vec![None; self.passes.len()];
        let mut runs = Vec::new();
        'rounds: for _ in 0..MAX_ROUNDS {
            let mut contracted = false;
            let passes = self.passes.iter().zip(pass_stats_rest.iter_mut());
            for (slot, ((&pass, ps), last)) in passes.zip(&mut last_run).enumerate() {
                if !pass.contracts() {
                    continue;
                }
                if done(&k) {
                    break 'rounds;
                }
                ctx.check_budget()?;
                let since = last.filter(|_| !retest_all);
                *last = Some(touched.epoch);
                let (lambda_hat, m) = (k.lambda(), k.graph().m());
                let width =
                    workers.unwrap_or_else(|| par::width(k.graph().num_arcs(), ctx.threads));
                let (did_contract, work) = pass.run(&mut k, ps, &mut touched, slot, since, width);
                contracted |= did_contract;
                if let Some(work) = work {
                    runs.push(PassRun {
                        pass,
                        lambda_hat,
                        m,
                        work,
                        #[cfg(test)]
                        record: touched.records[slot].clone(),
                    });
                }
                ctx.stats.record_lambda(k.lambda());
            }
            if !contracted {
                break;
            }
        }

        let (kernel, membership, lambda_hat, side) = k.into_parts();
        let outcome = ReduceOutcome {
            kernel,
            membership: membership.expect("the pipeline tracks sides"),
            lambda_hat,
            side,
            passes: pass_stats,
            original_n: g.n(),
            original_m: g.m(),
        };
        Ok((outcome, runs))
    }
}

// ---------------------------------------------------------------------
// Padberg–Rinaldi local tests (also run by each VieCut level).
// ---------------------------------------------------------------------

/// Degree budget for the triangle test, which runs only on edges with
/// `deg(u) + deg(v)` at most this. Test 3 sets the neighbour bitset of u
/// once, O(deg u), and probes N(v) against it, O(deg v) per edge with an
/// early exit at the bound; unbounded, the probes degenerate to
/// `Σ_v deg(v)²` on hub-heavy graphs. Past the budget the test is
/// skipped — it only costs contraction opportunities, never correctness
/// (the linear-work discipline mirrors the reference implementation's
/// bounded passes).
const TRIANGLE_DEGREE_BUDGET: usize = 256;

/// One pass of the Padberg–Rinaldi tests over all edges, for an edge
/// `e = (u, v)` with weight `c(e)` and the current upper bound λ̂:
///
/// 1. `c(e) ≥ λ̂` — any cut separating u and v costs at least `c(e)`;
///    exact-safe for cuts below λ̂.
/// 2. `2·c(e) ≥ min(c(u), c(v))` — safe w.r.t. *non-trivial* minimum cuts
///    (moving the lighter endpoint across a separating cut never makes it
///    worse). Trivial cuts are covered because the caller keeps
///    λ̂ ≤ min-degree at all times. Unlike tests 1 and 3, this only
///    promises that *some* minimum cut survives, and the shifting
///    argument moves this edge's endpoints — so test-2 contractions in
///    one pass must be vertex-disjoint (a matching). Chaining them is
///    unsound: on the weighted C5 `0-1:3 0-4:5 1-2:6 2-3:4 3-4:4`
///    (λ = 7), edges 2-3 and 3-4 each pass the test individually, but
///    contracting both destroys every minimum cut and λ̂ never drops
///    below 8.
/// 3. `c(e) + Σ_{x ∈ N(u) ∩ N(v)} min(c(u,x), c(v,x)) ≥ λ̂` — every cut
///    separating u and v also pays, for each common neighbour x, the
///    cheaper of its two triangle edges (x lands on one side); exact-safe
///    for cuts below λ̂. The sum is only compared with λ̂, so the probe
///    of N(v) against u's neighbour bitset stops as soon as the bound is
///    met.
///
/// The fourth Padberg–Rinaldi condition (a triangle/degree hybrid) is
/// deliberately omitted: tests 1–3 already capture nearly all
/// contractions on the benchmark families. Marks contractible edges in
/// `uf`; returns the number of successful unions. The tests run on up
/// to `threads` workers past [`par::MIN_PARALLEL_ARCS`] arcs, with the
/// same unions at every width, and skip every edge whose endpoints `uf`
/// already joins when its wave is classified (see the module doc).
pub fn padberg_rinaldi_pass(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    uf: &mut UnionFind,
    threads: usize,
) -> usize {
    let input = PrInput {
        g,
        lambda_hat,
        triangle_budget: TRIANGLE_DEGREE_BUDGET,
        touched: |_| true,
        record: &[],
    };
    pr_pass(&input, uf, None, par::width(g.num_arcs(), threads)).unions
}

/// What one run of [`pr_pass`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PrWork {
    /// Successful unions.
    unions: usize,
    /// Edges the pass tested: every edge on a full pass, the touched ones
    /// on a re-run, each skipped edge (`united`) included.
    edges_tested: u64,
    /// Untouched edges a re-run decided from its last run's record,
    /// without a probe.
    from_record: u64,
    /// Touched edges whose endpoints the run had already joined when it
    /// classified them, so they took no test; counted in `edges_tested`.
    united: u64,
    /// Adjacency entries of N(v) test 3 probed.
    probes: u64,
    /// Entries the pass left in its record, after its contraction.
    recorded: usize,
    /// Workers that classified the edges.
    workers: usize,
}

/// A test-3 miss with a nonzero common-neighbour sum: the edge `{u, v}`,
/// `u < v`, and its whole sum (a miss reads all of N(v)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Miss {
    u: NodeId,
    v: NodeId,
    sum: EdgeWeight,
}

/// What one run of [`pr_pass`] reads. None of it changes during the
/// run, so any number of classify workers may read it at once.
struct PrInput<'a, T> {
    g: &'a CsrGraph,
    lambda_hat: EdgeWeight,
    /// Test 3 runs on the edges with `deg(u) + deg(v)` at most this; 0
    /// disables it, leaving the edge-local tests (`heavy-edge`).
    triangle_budget: usize,
    /// Whether a vertex was touched since the pass's last run (every
    /// vertex on a full pass).
    touched: T,
    /// The last run's misses over the untouched edges, in pass order.
    record: &'a [Miss],
}

/// A classify verdict on one upper edge. An edge that no test unites
/// and that leaves nothing to record gets none.
#[derive(Clone, Copy)]
enum Verdict {
    /// Test 1, test 3 or the recorded sum passes: unite the endpoints.
    Unite,
    /// Test 2's degree condition holds: unite the endpoints if the
    /// matching allows it, else decide by test 3.
    Match,
    /// Test 3 misses with this nonzero sum.
    Miss(EdgeWeight),
}

/// One chunk's verdicts: two bits at the offset of each edge's arc among
/// the chunk's arcs, 32 arcs to a word (0 none, 1 [`Verdict::Unite`], 2
/// [`Verdict::Match`], 3 [`Verdict::Miss`]), and the misses' sums in
/// pass order.
#[derive(Default)]
struct Verdicts {
    codes: Vec<u64>,
    sums: Vec<EdgeWeight>,
    /// The chunk's `edges_tested`, `from_record`, `united` and `probes`.
    work: PrWork,
}

impl Verdicts {
    fn push(&mut self, at: usize, verdict: Verdict) {
        let code = match verdict {
            Verdict::Unite => 1,
            Verdict::Match => 2,
            Verdict::Miss(sum) => {
                self.sums.push(sum);
                3
            }
        };
        if at / 32 >= self.codes.len() {
            self.codes.resize(at / 32 + 1, 0);
        }
        self.codes[at / 32] |= code << (2 * (at % 32));
    }

    /// Calls `f(offset, verdict)` on every verdict, in pass order.
    fn for_each(&self, mut f: impl FnMut(usize, Verdict)) {
        let mut sums = self.sums.iter();
        for (i, &word) in self.codes.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() & !1;
                let verdict = match word >> bit & 3 {
                    1 => Verdict::Unite,
                    2 => Verdict::Match,
                    _ => Verdict::Miss(*sums.next().expect("a sum per miss")),
                };
                f(32 * i + bit as usize / 2, verdict);
                word &= !(3 << bit);
            }
        }
    }
}

/// A classify worker's buffers: test 3's neighbour bitset of the current
/// u, where bit x is set iff x ∈ N(u), and then x is entry `at_u[x]` of
/// u's row. A row index takes half the memory of the weight it points
/// to.
struct Classifier {
    bits: Vec<u64>,
    at_u: Vec<u32>,
}

impl Classifier {
    fn new(n: usize, triangles: bool) -> Self {
        Classifier {
            bits: vec![0; if triangles { n.div_ceil(64) } else { 0 }],
            at_u: vec![0; if triangles { n } else { 0 }],
        }
    }

    /// Classifies the upper edges of the vertices `lo..hi` into
    /// `verdicts`, with their `edges_tested`, `from_record`, `united` and
    /// `probes` counts. A touched edge whose endpoints `joined` (the
    /// run's union-find, once it has united anything) already joins takes
    /// no test; any other touched edge takes test 1, test 2's degree
    /// condition and test 3; an untouched one test 1 and, for test 3, its
    /// sum in the record (0 if absent).
    fn classify<T: Fn(NodeId) -> bool>(
        &mut self,
        input: &PrInput<'_, T>,
        lo: NodeId,
        hi: NodeId,
        joined: Option<&UnionFind>,
        verdicts: &mut Verdicts,
    ) {
        let PrInput {
            g,
            lambda_hat,
            triangle_budget,
            record,
            ..
        } = *input;
        let (bits, at_u) = (&mut self.bits, &mut self.at_u);
        verdicts.codes.clear();
        verdicts.sums.clear();
        let mut work = PrWork::default();
        // The record entry of the next untouched edge that has one.
        let mut next = record.partition_point(|m| m.u < lo);
        // The offset of u's first arc among the arcs of `lo..hi`.
        let mut row = 0;
        for u in lo..hi {
            let du = g.weighted_degree(u);
            let touched_u = (input.touched)(u);
            let (nu, wu) = g.arc_slices(u);
            // u's block, when the run has joined u with other vertices.
            let block = joined
                .filter(|uf| !uf.is_singleton(u))
                .map(|uf| (uf, uf.root(u)));
            let mut bits_set = false;
            let upper = nu.partition_point(|&v| v <= u);
            for (at, (&v, &w)) in (row + upper..).zip(nu[upper..].iter().zip(&wu[upper..])) {
                let verdict = if !touched_u && !(input.touched)(v) {
                    // Untouched since the last run: test 2 fails again and
                    // test 3's sum is the recorded one (see the module doc).
                    work.from_record += 1;
                    let sum = match record.get(next) {
                        Some(m) if (m.u, m.v) == (u, v) => {
                            next += 1;
                            m.sum
                        }
                        _ => 0,
                    };
                    if w >= lambda_hat || sum >= lambda_hat - w {
                        Verdict::Unite
                    } else if sum > 0 {
                        Verdict::Miss(sum)
                    } else {
                        continue;
                    }
                } else {
                    work.edges_tested += 1;
                    if block.is_some_and(|(uf, b)| uf.root(v) == b) {
                        // Already joined: a union would merge nothing (see
                        // the module doc).
                        work.united += 1;
                        continue;
                    }
                    if w >= lambda_hat {
                        // Test 1: every u-v-separating cut costs ≥ c(e) ≥ λ̂.
                        Verdict::Unite
                    } else if 2 * w >= du.min(g.weighted_degree(v)) {
                        // Test 2: the matching depends on the order of the
                        // edges, so the decide phase applies it.
                        Verdict::Match
                    } else if nu.len() + g.degree(v) > triangle_budget {
                        continue;
                    } else {
                        // Test 3: aggregate triangle bound. Test 1 failed,
                        // so `need` = λ̂ − c(e) > 0.
                        if !bits_set {
                            for (i, &x) in (0..).zip(nu) {
                                bits[x as usize / 64] |= 1 << (x % 64);
                                at_u[x as usize] = i;
                            }
                            bits_set = true;
                        }
                        let need = lambda_hat - w;
                        let (nv, wv) = g.arc_slices(v);
                        let (mut sum, mut read) = (0, nv.len());
                        for (i, &x) in nv.iter().enumerate() {
                            if bits[x as usize / 64] >> (x % 64) & 1 != 0 {
                                sum += wu[at_u[x as usize] as usize].min(wv[i]);
                                if sum >= need {
                                    read = i + 1;
                                    break;
                                }
                            }
                        }
                        work.probes += read as u64;
                        if sum >= need {
                            Verdict::Unite
                        } else if sum > 0 {
                            Verdict::Miss(sum)
                        } else {
                            continue;
                        }
                    }
                };
                verdicts.push(at, verdict);
            }
            if bits_set {
                for &x in nu {
                    bits[x as usize / 64] = 0;
                }
            }
            row += nu.len();
        }
        debug_assert!(
            record.get(next).is_none_or(|m| m.u >= hi),
            "a record entry matched no edge"
        );
        verdicts.work = work;
    }
}

/// The decide phase's state: every step whose outcome depends on the
/// order of the edges.
struct Decide<'a> {
    g: &'a CsrGraph,
    lambda_hat: EdgeWeight,
    triangle_budget: usize,
    uf: &'a mut UnionFind,
    /// Test 2 endpoints: the shifting argument re-sides the endpoints of
    /// the contracted edge, so two test-2 contractions sharing a vertex
    /// may have no common surviving minimum cut. Restricting the pass to
    /// a matching keeps the induction valid: each later edge's endpoints
    /// are untouched by every earlier move. Tests 1 and 3 lower-bound
    /// *every* cut separating their endpoints by λ̂, so they compose
    /// freely with each other and with the matching.
    matched: Vec<bool>,
    misses: Option<&'a mut Vec<Miss>>,
    work: PrWork,
}

impl Decide<'_> {
    /// Applies the verdicts of the chunk that starts at vertex `lo`.
    fn chunk(&mut self, lo: NodeId, verdicts: &Verdicts) {
        let g = self.g;
        // The vertex that owns the verdict's arc, and the offset of its
        // first arc among the chunk's arcs.
        let (mut u, mut row) = (lo, 0);
        verdicts.for_each(|at, verdict| {
            while at >= row + g.degree(u) {
                row += g.degree(u);
                u += 1;
            }
            let (nu, wu) = g.arc_slices(u);
            let (v, w) = (nu[at - row], wu[at - row]);
            match verdict {
                Verdict::Unite => self.unite(u, v),
                Verdict::Match => self.test2(u, v, w),
                Verdict::Miss(sum) => self.miss(u, v, sum),
            }
        });
        self.work.edges_tested += verdicts.work.edges_tested;
        self.work.from_record += verdicts.work.from_record;
        self.work.united += verdicts.work.united;
        self.work.probes += verdicts.work.probes;
    }

    fn unite(&mut self, u: NodeId, v: NodeId) {
        if self.uf.union(u, v) {
            self.work.unions += 1;
        }
    }

    fn miss(&mut self, u: NodeId, v: NodeId, sum: EdgeWeight) {
        if let Some(m) = &mut self.misses {
            m.push(Miss { u, v, sum });
        }
    }

    /// Test 2 on the matching (see `matched`). An edge the matching
    /// blocks falls back to test 3, read here off a merge of the two
    /// rows: the same sum, stopped at the same entry of N(v), as a
    /// classify's bitset probe.
    fn test2(&mut self, u: NodeId, v: NodeId, w: EdgeWeight) {
        let g = self.g;
        if !self.matched[u as usize] && !self.matched[v as usize] {
            if self.uf.union(u, v) {
                self.matched[u as usize] = true;
                self.matched[v as usize] = true;
                self.work.unions += 1;
            }
            return;
        }
        if g.degree(u) + g.degree(v) > self.triangle_budget {
            return;
        }
        let need = self.lambda_hat - w;
        let (nu, wu) = g.arc_slices(u);
        let (nv, wv) = g.arc_slices(v);
        let (mut j, mut sum, mut read) = (0, 0, nv.len());
        for (i, &x) in nv.iter().enumerate() {
            j += nu[j..].partition_point(|&y| y < x);
            if nu.get(j) == Some(&x) {
                sum += wu[j].min(wv[i]);
                if sum >= need {
                    read = i + 1;
                    break;
                }
            }
        }
        self.work.probes += read as u64;
        if sum >= need {
            self.unite(u, v);
        } else if sum > 0 {
            self.miss(u, v, sum);
        }
    }
}

/// Chunk boundaries for the classify phase: runs of consecutive vertices
/// of about √(2m) arcs each, so a pass has about as many chunks as a
/// chunk has arcs. Chunk c is `bounds[c]..bounds[c + 1]`.
fn chunk_bounds(g: &CsrGraph) -> Vec<NodeId> {
    let target = g.num_arcs().isqrt().max(1);
    let mut bounds = vec![0];
    let mut arcs = 0;
    for u in 0..g.n() as NodeId {
        arcs += g.degree(u);
        if arcs >= target {
            bounds.push(u + 1);
            arcs = 0;
        }
    }
    if arcs > 0 {
        bounds.push(g.n() as NodeId);
    }
    bounds
}

/// The classify phase's waves: runs of 1, 2, 4, … chunks by chunk index,
/// or one wave of every chunk without test 3 (`heavy-edge`, which
/// probes nothing).
fn waves(chunks: usize, triangles: bool) -> Vec<Range<usize>> {
    let mut waves = Vec::new();
    let (mut start, mut len) = (0, 1);
    while start < chunks {
        let end = if triangles {
            chunks.min(start + len)
        } else {
            chunks
        };
        waves.push(start..end);
        (start, len) = (end, 2 * len);
    }
    waves
}

/// Shared body of [`padberg_rinaldi_pass`] and the `heavy-edge` pass, in
/// two phases per wave (see [`waves`]). In the classify phase up to
/// `workers` workers claim the wave's chunks of consecutive vertices
/// (see [`chunk_bounds`]) from a shared cursor and record, for each upper
/// edge, a verdict from the tests that read only `input`, skipping the
/// tests on an edge whose endpoints `uf` already joins. In the decide
/// phase one worker applies the wave's verdicts in pass order: the
/// unions, test 2's matching, the misses and the counters. Only then does
/// the next wave start. Tests the edges `(u, v)` with
/// `touched(u) || touched(v)` and decides every other edge by test 1 and
/// by its sum in the record for test 3. `misses` collects this run's
/// record.
fn pr_pass<T: Fn(NodeId) -> bool + Sync>(
    input: &PrInput<'_, T>,
    uf: &mut UnionFind,
    misses: Option<&mut Vec<Miss>>,
    workers: usize,
) -> PrWork {
    let g = input.g;
    let bounds = chunk_bounds(g);
    let chunks = bounds.len() - 1;
    let workers = workers.min(chunks).max(1);
    let triangles = input.triangle_budget > 0;
    let waves = waves(chunks, triangles);
    let decide = RwLock::new(Decide {
        g,
        lambda_hat: input.lambda_hat,
        triangle_budget: input.triangle_budget,
        uf,
        matched: vec![false; g.n()],
        misses,
        work: PrWork {
            workers,
            ..PrWork::default()
        },
    });
    // One verdict buffer per chunk of the widest wave, reused by every
    // wave.
    let widest = waves.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
    let slots: Vec<Mutex<Verdicts>> = (0..widest).map(|_| Mutex::default()).collect();
    // The cursor only hands out chunk indices; the barrier orders
    // everything else.
    let cursor = AtomicUsize::new(0);
    let barrier = par::Barrier::new(workers);
    let mut classifiers: Vec<Classifier> = (0..workers)
        .map(|_| Classifier::new(g.n(), triangles))
        .collect();
    const POISONED: &str = "only a panicking worker poisons a lock, and the broken barrier \
                            stops the others before they lock again";
    par::map_each(&mut classifiers, |worker, c| {
        let _guard = barrier.break_on_panic();
        for wave in &waves {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= wave.end {
                    break;
                }
                // No decide runs during a classify phase, so every worker
                // reads the union-find as the last wave left it.
                let decide = decide.read().expect(POISONED);
                let joined = (decide.uf.count() < decide.uf.len()).then_some(&*decide.uf);
                let mut verdicts = slots[i - wave.start].lock().expect(POISONED);
                c.classify(input, bounds[i], bounds[i + 1], joined, &mut verdicts);
            }
            if !barrier.wait() {
                return;
            }
            if worker == 0 {
                let mut decide = decide.write().expect(POISONED);
                for (i, slot) in wave.clone().zip(&slots) {
                    decide.chunk(bounds[i], &slot.lock().expect(POISONED));
                }
                cursor.store(wave.end, Ordering::Relaxed);
            }
            if !barrier.wait() {
                return;
            }
        }
    });
    decide.into_inner().expect(POISONED).work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SolverStats;
    use mincut_graph::generators::known;
    use mincut_graph::ContractionEngine;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn kernelize(pipeline: &ReductionPipeline, g: &CsrGraph) -> ReduceOutcome {
        let mut stats = SolverStats::default();
        let mut ctx = SolveContext::new(&mut stats);
        pipeline.run(g, None, &mut ctx).expect("no budget")
    }

    /// The classify widths every pass test compares with the 1-worker
    /// run; the tests' graphs span several chunks each.
    const WIDE: [usize; 2] = [2, 4];

    /// What a pipeline run produces, for comparing runs.
    #[derive(Debug, PartialEq)]
    struct Pipelined {
        /// n, m and fingerprint.
        kernel: (usize, usize, u64),
        /// Per pass: name, rounds and removals.
        passes: Vec<(&'static str, u64, u64, u64)>,
        trajectory: Vec<EdgeWeight>,
        side: Option<Vec<bool>>,
        /// Each run of an edge-testing pass, `workers` set to 0 so that
        /// runs at different widths compare.
        runs: Vec<PassRun>,
    }

    /// Runs `pipeline` on `g` with `workers` classifying every run of an
    /// edge-testing pass; `retest_all` as in `run_with`.
    fn pipelined(
        pipeline: &ReductionPipeline,
        g: &CsrGraph,
        retest_all: bool,
        workers: usize,
    ) -> Pipelined {
        let mut stats = SolverStats::default();
        let mut ctx = SolveContext::new(&mut stats);
        let (out, mut runs) = pipeline
            .run_with(g, None, &mut ctx, retest_all, Some(workers))
            .expect("no budget");
        for r in &mut runs {
            assert!(
                (1..=workers).contains(&r.work.workers),
                "{} workers",
                r.work.workers
            );
            r.work.workers = 0;
        }
        Pipelined {
            kernel: (out.kernel.n(), out.kernel.m(), out.kernel.fingerprint()),
            passes: out
                .passes
                .iter()
                .map(|p| (p.name, p.rounds, p.vertices_removed, p.edges_removed))
                .collect(),
            trajectory: stats.lambda_trajectory,
            side: out.side,
            runs,
        }
    }

    /// Asserts that `pipeline` gives the 1-worker run's kernel, λ̂
    /// trajectory, witness, unions, records and work at every width.
    fn assert_same_at_every_width(pipeline: &ReductionPipeline, g: &CsrGraph, tag: &str) {
        let want = pipelined(pipeline, g, false, 1);
        for workers in WIDE {
            let got = pipelined(pipeline, g, false, workers);
            assert_eq!(got, want, "{tag}, {workers} workers");
        }
    }

    /// The pipeline invariant: λ(G) = min(λ̂, λ(kernel)), with a real-cut
    /// witness behind λ̂.
    fn assert_exact(pipeline: &ReductionPipeline, g: &CsrGraph, lambda: EdgeWeight, tag: &str) {
        let out = kernelize(pipeline, g);
        assert!(out.lambda_hat >= lambda, "{tag}: λ̂ below λ");
        let side = out.side.as_ref().expect("pipeline tracks witnesses");
        assert!(g.is_proper_cut(side), "{tag}: improper witness");
        assert_eq!(g.cut_value(side), out.lambda_hat, "{tag}: witness mismatch");
        let kernel_lambda = if out.kernel.n() >= 2 {
            known::brute_force_mincut(&out.kernel)
        } else {
            EdgeWeight::MAX
        };
        assert_eq!(
            out.lambda_hat.min(kernel_lambda),
            lambda,
            "{tag}: min(λ̂, λ(kernel)) must equal λ"
        );
    }

    fn random_graph(rng: &mut SmallRng) -> CsrGraph {
        let n = rng.gen_range(4..10);
        let mut edges = Vec::new();
        for v in 1..n as NodeId {
            edges.push((rng.gen_range(0..v), v, rng.gen_range(1..8)));
        }
        for _ in 0..rng.gen_range(0..14) {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                edges.push((u, v, rng.gen_range(1..8)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// Each pass alone behind the mandatory component split, which runs
    /// alone under the name `components`.
    fn single_pass_pipelines() -> Vec<(&'static str, ReductionPipeline)> {
        let mut pipelines = vec![("components", ReductionPipeline { passes: vec![] })];
        for pass in ReductionPipeline::standard().passes {
            let passes = vec![pass];
            pipelines.push((pass.name(), ReductionPipeline { passes }));
        }
        pipelines
    }

    #[test]
    fn every_pass_alone_preserves_lambda_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(0x2ed);
        for trial in 0..60 {
            let g = random_graph(&mut rng);
            let lambda = known::brute_force_mincut(&g);
            for (name, p) in single_pass_pipelines() {
                assert_exact(&p, &g, lambda, &format!("trial {trial}, pass {name}"));
            }
            assert_exact(
                &ReductionPipeline::standard(),
                &g,
                lambda,
                &format!("trial {trial}, standard"),
            );
        }
    }

    #[test]
    fn test2_contractions_stay_a_matching_within_a_pass() {
        // Weighted C5 with λ = 7 (the cut {1, 2}, paying 3 + 4) but
        // minimum degree 8. Test 2 fires on edges (0,4), (1,2), (2,3)
        // and (3,4); batching the chain 2-3, 3-4 through one union-find
        // pass used to destroy every minimum cut and report λ̂ = 8. The
        // matching restriction keeps {3} out of round one, the kernel
        // triangle's min degree drops λ̂ to 7, and round two finishes.
        let g = CsrGraph::from_edges(5, &[(0, 1, 3), (0, 4, 5), (1, 2, 6), (2, 3, 4), (3, 4, 4)]);
        assert_eq!(known::brute_force_mincut(&g), 7);
        for (name, p) in single_pass_pipelines() {
            assert_exact(&p, &g, 7, &format!("pass {name}"));
            assert_same_at_every_width(&p, &g, &format!("pass {name}"));
        }
        assert_exact(&ReductionPipeline::standard(), &g, 7, "standard");
        assert_same_at_every_width(&ReductionPipeline::standard(), &g, "standard");

        // At λ̂ = 5, edge 0-1 passes test 2 and is matched first. Edge 1-2
        // passes test 2's degree condition, but the matching blocks it,
        // so the decide phase falls back to test 3: common neighbour 3
        // brings the sum to 3 + min(2, 2) = 5. Edges 1-3 and 2-3 miss
        // tests 2 and 3, so without the fallback 2 stays apart from 1.
        let g = CsrGraph::from_edges(5, &[(0, 1, 1), (1, 2, 3), (1, 3, 2), (2, 3, 2), (3, 4, 1)]);
        assert!(chunk_bounds(&g).len() > 3, "the graph spans several chunks");
        for workers in [1, 2, 4] {
            let (work, (labels, _), record) = full_pass(&g, 5, TRIANGLE_DEGREE_BUDGET, workers);
            let tag = format!("{workers} workers");
            assert_eq!(labels[1], labels[2], "{tag}: test 3 unites 1-2");
            assert_ne!(labels[2], labels[3], "{tag}: no test unites 2-3");
            let misses: Vec<_> = record.iter().map(|m| (m.u, m.v, m.sum)).collect();
            assert_eq!(misses, [(1, 3, 2), (2, 3, 2)], "{tag}");
            assert_eq!(work.probes, 8, "{tag}: 2 probes by the fallback");
        }
        assert_matches_full_merge(&g, 5, TRIANGLE_DEGREE_BUDGET, "fallback");
    }

    #[test]
    fn clustered_instances_shrink_strictly() {
        let (g, l) = known::two_communities(12, 14, 2, 3, 1);
        let out = kernelize(&ReductionPipeline::standard(), &g);
        assert!(out.kernel.n() < g.n(), "clustered graphs must kernelize");
        assert_eq!(out.lambda_hat, l, "heavy-edge collapse finds λ here");
        let (g, l) = known::ring_of_cliques(6, 8, 2, 1);
        let out = kernelize(&ReductionPipeline::standard(), &g);
        assert!(out.kernel.n() < g.n());
        assert!(out.lambda_hat >= l);
    }

    #[test]
    fn degree_bound_finds_satellite_cuts() {
        // A K5 satellite hanging off a K6 by one unit edge: the peel
        // order removes the satellite first, and its prefix cut (the
        // single bridge) beats every single-vertex trivial cut.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v, 2));
            }
        }
        for u in 5..11u32 {
            for v in u + 1..11 {
                edges.push((u, v, 3));
            }
        }
        edges.push((0, 5, 1));
        let g = CsrGraph::from_edges(11, &edges);
        let p = ReductionPipeline {
            passes: vec![Pass::DegreeBound],
        };
        let out = kernelize(&p, &g);
        assert_eq!(out.lambda_hat, 1, "the bridge is the best prefix cut");
        assert_eq!(g.cut_value(out.side.as_ref().unwrap()), 1);
        assert_eq!(out.kernel.n(), g.n(), "bound-only pass never contracts");
    }

    #[test]
    fn disconnected_terminates_with_smallest_component_witness() {
        let g = CsrGraph::from_edges(7, &[(0, 1, 2), (1, 2, 2), (3, 4, 1), (5, 6, 9)]);
        let out = kernelize(&ReductionPipeline::standard(), &g);
        assert_eq!(out.lambda_hat, 0);
        assert!(out.is_terminal());
        let side = out.side.unwrap();
        assert_eq!(g.cut_value(&side), 0);
        // {3,4} and {5,6} tie at size 2; the smaller component id wins.
        assert_eq!(side, vec![false, false, false, true, true, false, false]);
    }

    #[test]
    fn terminal_on_bridge_graphs_skips_the_solver() {
        // λ̂ = 1 is the floor for connected integer-weighted graphs.
        let (g, _) = known::barbell(6, 6, 1, 1);
        let out = kernelize(&ReductionPipeline::standard(), &g);
        assert_eq!(out.lambda_hat, 1);
        assert!(out.is_terminal());
    }

    #[test]
    fn initial_bound_tightens_reductions() {
        // With λ̂ donated at the true value, heavy-edge contracts far more.
        let (g, l) = known::two_communities(10, 10, 2, 2, 1);
        let mut side = vec![false; g.n()];
        side[..10].fill(true);
        assert_eq!(g.cut_value(&side), l);
        let free = kernelize(&ReductionPipeline::standard(), &g);
        let mut stats = SolverStats::default();
        let mut ctx = SolveContext::new(&mut stats);
        let seeded = ReductionPipeline::standard()
            .run(&g, Some((l, Some(side))), &mut ctx)
            .unwrap();
        assert!(seeded.kernel.n() <= free.kernel.n());
        assert_eq!(seeded.lambda_hat, l);
    }

    #[test]
    fn reductions_switch_and_cache_keys() {
        assert!(Reductions::All.is_enabled());
        assert!(!Reductions::None.is_enabled());
        assert_ne!(Reductions::All.cache_key(), Reductions::None.cache_key());
    }

    // ----- Padberg–Rinaldi pass tests (moved with the implementation) ----

    /// The pass with test 3's full merge: the whole common-neighbour sum,
    /// then the comparison.
    fn full_merge_pr_pass(
        g: &CsrGraph,
        lambda_hat: EdgeWeight,
        uf: &mut UnionFind,
        triangle_budget: usize,
    ) -> usize {
        let mut unions = 0;
        let mut matched = vec![false; g.n()];
        for u in 0..g.n() as NodeId {
            let du = g.weighted_degree(u);
            for (v, w) in g.arcs(u) {
                if u >= v {
                    continue;
                }
                let dv = g.weighted_degree(v);
                if w >= lambda_hat {
                    if uf.union(u, v) {
                        unions += 1;
                    }
                    continue;
                }
                if 2 * w >= du.min(dv) && !matched[u as usize] && !matched[v as usize] {
                    if uf.union(u, v) {
                        matched[u as usize] = true;
                        matched[v as usize] = true;
                        unions += 1;
                    }
                    continue;
                }
                if g.degree(u) + g.degree(v) > triangle_budget {
                    continue;
                }
                let bound = w + common_neighbor_min_sum(g, u, v);
                if bound >= lambda_hat && uf.union(u, v) {
                    unions += 1;
                }
            }
        }
        unions
    }

    /// `Σ_{x ∈ N(u) ∩ N(v)} min(c(u,x), c(v,x))` over the whole merge.
    fn common_neighbor_min_sum(g: &CsrGraph, u: NodeId, v: NodeId) -> EdgeWeight {
        let (nu, wu) = g.arc_slices(u);
        let (nv, wv) = g.arc_slices(v);
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0;
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += wu[i].min(wv[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// A full pass on `workers` workers: its work, its blocks and its
    /// record.
    fn full_pass(
        g: &CsrGraph,
        lambda_hat: EdgeWeight,
        budget: usize,
        workers: usize,
    ) -> (PrWork, (Vec<NodeId>, usize), Vec<Miss>) {
        let input = PrInput {
            g,
            lambda_hat,
            triangle_budget: budget,
            touched: |_| true,
            record: &[],
        };
        let mut uf = UnionFind::new(g.n());
        let mut misses = Vec::new();
        let work = pr_pass(&input, &mut uf, Some(&mut misses), workers);
        (work, uf.dense_labels(), misses)
    }

    /// Runs the pass and the full-merge oracle at `lambda_hat` and
    /// `budget`, asserts the same unions and the same blocks, and that
    /// the pass's unions, blocks, record and work are the same at every
    /// width. Returns the number of unions.
    fn assert_matches_full_merge(
        g: &CsrGraph,
        lambda_hat: EdgeWeight,
        budget: usize,
        tag: &str,
    ) -> usize {
        let tag = format!("{tag}, λ̂ {lambda_hat}, budget {budget}");
        let (work, blocks, record) = full_pass(g, lambda_hat, budget, 1);
        let mut reference = UnionFind::new(g.n());
        let expected = full_merge_pr_pass(g, lambda_hat, &mut reference, budget);
        assert_eq!(work.unions, expected, "{tag}: unions");
        assert_eq!(blocks, reference.dense_labels(), "{tag}: blocks");
        for workers in WIDE {
            let (wide, wide_blocks, wide_record) = full_pass(g, lambda_hat, budget, workers);
            let tag = format!("{tag}, {workers} workers");
            assert_eq!(PrWork { workers: 1, ..wide }, work, "{tag}: work");
            assert_eq!(wide_blocks, blocks, "{tag}: blocks");
            assert_eq!(wide_record, record, "{tag}: record");
        }
        work.unions
    }

    /// 201–300 vertices: a hub adjacent to at least 200 others (a window
    /// of ids after it), and runs of consecutive ids that each share a
    /// few random neighbours and form a path, plus n random unit-to-3
    /// edges.
    fn hub_and_runs(rng: &mut SmallRng) -> CsrGraph {
        let n = rng.gen_range(201..=300usize);
        let mut edges = Vec::new();
        let hub = rng.gen_range(0..n);
        for i in 1..=rng.gen_range(200..n) {
            edges.push((
                hub as NodeId,
                ((hub + i) % n) as NodeId,
                rng.gen_range(1..4),
            ));
        }
        let mut start = 0;
        while start < n {
            let end = (start + rng.gen_range(3..12usize)).min(n);
            let shared: Vec<NodeId> = (0..rng.gen_range(2..7))
                .map(|_| rng.gen_range(0..n as NodeId))
                .collect();
            for v in start as NodeId..end as NodeId {
                for &x in &shared {
                    if rng.gen_bool(0.8) {
                        edges.push((v, x, rng.gen_range(1..5)));
                    }
                }
                if (v as usize) + 1 < end {
                    edges.push((v, v + 1, rng.gen_range(1..5)));
                }
            }
            start = end;
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            edges.push((u, v, rng.gen_range(1..4)));
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn test3_stopping_at_the_bound_matches_the_full_merge() {
        // Every λ̂ from 1 to past the largest weighted degree meets each
        // edge's triangle sum exactly once, so a stop one match late or
        // early changes a union somewhere. Dense graphs keep test 2 quiet
        // and feed test 3; sparse ones are where test 2 fires. Every pass
        // also runs at 2 and 4 classify workers, with the same unions,
        // record and work as at one.
        let mut rng = SmallRng::seed_from_u64(0x3e3);
        let mut test2_fired = false;
        for trial in 0..120 {
            let dense = trial % 2 == 0;
            let n = rng.gen_range(5..24usize);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..8)));
            }
            let extra = if dense { 5 * n } else { n / 3 };
            for _ in 0..extra {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                edges.push((u, v, rng.gen_range(1..4)));
            }
            let g = CsrGraph::from_edges(n, &edges);
            let max_degree = (0..n as NodeId)
                .map(|v| g.weighted_degree(v))
                .max()
                .unwrap();
            for lambda_hat in 1..=max_degree + 1 {
                for budget in [0, TRIANGLE_DEGREE_BUDGET] {
                    let tag = format!("trial {trial}");
                    let unions = assert_matches_full_merge(&g, lambda_hat, budget, &tag);
                    // Above every weight only test 2 can fire at budget 0.
                    test2_fired |= lambda_hat > max_degree && budget == 0 && unions > 0;
                }
            }
        }
        assert!(test2_fired, "some graph must exercise test 2");

        // Hub graphs: the hub's edges cross the degree budget on some
        // neighbours and not on others, and its bits cover most of the
        // graph, so a word left set after a vertex turns the next
        // vertices' probes into false triangles. The
        // shared neighbours of a run make test 3 fire between
        // consecutive ids.
        let mut budget_binds = false;
        for trial in 0..16 {
            let g = hub_and_runs(&mut rng);
            let max_degree = (0..g.n() as NodeId)
                .map(|v| g.weighted_degree(v))
                .max()
                .unwrap();
            let sweep = [2, 3, 4, 5, 6, 8, 10, 13, 17, 24, 40, max_degree + 1];
            for lambda_hat in sweep {
                let tag = format!("hub trial {trial}");
                let unions =
                    assert_matches_full_merge(&g, lambda_hat, TRIANGLE_DEGREE_BUDGET, &tag);
                let unbounded = assert_matches_full_merge(&g, lambda_hat, usize::MAX, &tag);
                budget_binds |= unions != unbounded;
            }
        }
        assert!(budget_binds, "the degree budget must change some pass");
    }

    #[test]
    fn edges_the_run_has_united_skip_their_tests() {
        // Six dense cliques of 12 consecutive ids in a ring, each
        // spanning several chunks, so every wave after the first finds
        // part of a clique joined by earlier waves. At λ̂ = 2 test 3
        // unites every clique pair with a common neighbour, and the run
        // skips the tests on each touched edge it has already united:
        // the oracle, which tests every edge, gives the same unions and
        // blocks, at 1, 2 and 4 workers, and every edge still counts as
        // tested once.
        let mut rng = SmallRng::seed_from_u64(0x5c1);
        for trial in 0..8 {
            let (k, s) = (6u32, 12u32);
            let mut edges = Vec::new();
            for c in 0..k {
                for a in c * s..(c + 1) * s {
                    for b in a + 1..(c + 1) * s {
                        if rng.gen_bool(0.9) {
                            edges.push((a, b, rng.gen_range(1..4)));
                        }
                    }
                }
                edges.push((c * s, (c + 1) % k * s + 1, 1));
            }
            let g = CsrGraph::from_edges((k * s) as usize, &edges);
            assert!(
                chunk_bounds(&g).len() > 3 * k as usize,
                "a clique spans chunks"
            );
            for lambda_hat in [2, 4, 6, 9, 13, 20] {
                let tag = format!("cliques trial {trial}");
                assert_matches_full_merge(&g, lambda_hat, TRIANGLE_DEGREE_BUDGET, &tag);
                let (work, _, _) = full_pass(&g, lambda_hat, TRIANGLE_DEGREE_BUDGET, 1);
                assert_eq!(work.edges_tested, g.m() as u64, "{tag}, λ̂ {lambda_hat}");
                if lambda_hat == 2 {
                    assert!(work.united > 0, "{tag}: joined edges skip their tests");
                }
            }
        }
    }

    /// A ring of 8–24 segments joined by one or two edges of weight 1–2.
    /// A segment is a clique of 5–8 vertices (40 %), each edge present
    /// with probability 0.9 at weight 1–2, or a unit-weight K_{h,h} with
    /// h = 3 or 4, which no test contracts. Vertex ids are shuffled.
    /// Contracting part of a clique gives its other members new common
    /// neighbours at an unchanged λ̂, while the K_{h,h} segments between
    /// cliques stay untouched.
    fn weighted_ring_of_cliques(rng: &mut SmallRng) -> CsrGraph {
        let segments: Vec<(bool, usize)> = (0..rng.gen_range(8..25))
            .map(|_| {
                if rng.gen_bool(0.4) {
                    (true, rng.gen_range(5..9usize))
                } else {
                    (false, 2 * rng.gen_range(3..5usize))
                }
            })
            .collect();
        let n: usize = segments.iter().map(|s| s.1).sum();
        let mut id: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            id.swap(i, rng.gen_range(0..=i));
        }
        let mut first = vec![0];
        for s in &segments {
            first.push(first.last().unwrap() + s.1);
        }
        let mut edges = Vec::new();
        for (c, &(clique, s)) in segments.iter().enumerate() {
            for a in first[c]..first[c] + s {
                for b in a + 1..first[c] + s {
                    if clique {
                        if rng.gen_bool(0.9) {
                            edges.push((id[a], id[b], rng.gen_range(1..3)));
                        }
                    } else if (a - first[c] < s / 2) != (b - first[c] < s / 2) {
                        edges.push((id[a], id[b], 1));
                    }
                }
            }
            let next = (c + 1) % segments.len();
            for _ in 0..rng.gen_range(1..3) {
                let a = first[c] + rng.gen_range(0..s);
                let b = first[next] + rng.gen_range(0..segments[next].1);
                edges.push((id[a], id[b], rng.gen_range(1..3)));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    /// A random core of 150–250 vertices, each joined to 5 random others
    /// by unit edges (a repeated pair sums to weight 2), with 3–7
    /// satellite cliques of 6–10 vertices (each edge present with
    /// probability 0.9, weight 1–2) hung off it by 2–5 unit edges.
    /// Vertex ids are shuffled. The peel finds only the first satellite
    /// it removes, so when a later one hangs by fewer edges, contracting
    /// it lowers λ̂. The core's few triangles give its edges small
    /// recorded sums, which the next `padberg-rinaldi` run reads at the
    /// lower λ̂.
    fn satellites_off_a_core(rng: &mut SmallRng) -> CsrGraph {
        let core = rng.gen_range(150..251usize);
        let sizes: Vec<usize> = (0..rng.gen_range(3..8))
            .map(|_| rng.gen_range(6..11))
            .collect();
        let n = core + sizes.iter().sum::<usize>();
        let mut id: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            id.swap(i, rng.gen_range(0..=i));
        }
        let mut edges = Vec::new();
        for a in 0..core {
            for _ in 0..5 {
                let b = rng.gen_range(0..core);
                if b != a {
                    edges.push((id[a], id[b], 1));
                }
            }
        }
        let mut first = core;
        for &s in &sizes {
            for a in first..first + s {
                for b in a + 1..first + s {
                    if rng.gen_bool(0.9) {
                        edges.push((id[a], id[b], rng.gen_range(1..3)));
                    }
                }
            }
            for _ in 0..rng.gen_range(2..6) {
                let a = first + rng.gen_range(0..s);
                edges.push((id[a], id[rng.gen_range(0..core)], 1));
            }
            first += s;
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn touched_edge_rounds_match_full_rounds() {
        // The pipeline against a fixpoint whose every pass re-tests every
        // edge: same per-pass rounds and removals, same kernel, same λ̂
        // trajectory and witness. A later round re-tests the edges around
        // a partly contracted clique, whose unmerged members neighbour a
        // merged block: dropping the neighbours from the touched set
        // changes the kernel of some trial. On the satellite graphs a
        // `padberg-rinaldi` run at a lowered λ̂ unites untouched core
        // edges by test 1 and by their recorded sums: reading a recorded
        // sum as 0, or keeping the record's vertex ids across a
        // contraction, changes the kernel of some trial. Every run's
        // unions, record and work are also the same at 2 and 4 classify
        // workers as at one.
        let trials = 200;
        let mut rng = SmallRng::seed_from_u64(0x70c);
        let mut incremental_trials = 0;
        let mut lowered_runs = 0;
        for trial in 0..trials {
            let g = if trial % 2 == 0 {
                weighted_ring_of_cliques(&mut rng)
            } else {
                satellites_off_a_core(&mut rng)
            };
            let standard = ReductionPipeline::standard();
            let got = pipelined(&standard, &g, false, 1);
            let want = pipelined(&standard, &g, true, 1);
            let outputs = |p: &Pipelined| (p.kernel, p.passes.clone(), p.trajectory.clone());
            assert_eq!(outputs(&got), outputs(&want), "trial {trial}");
            assert_eq!(got.side, want.side, "trial {trial}");
            for workers in WIDE {
                let wide = pipelined(&standard, &g, false, workers);
                assert_eq!(wide, got, "trial {trial}, {workers} workers");
            }
            let (runs, full_runs) = (got.runs, want.runs);
            let tested = |runs: &[PassRun]| runs.iter().map(|r| r.work.edges_tested).sum::<u64>();
            assert!(tested(&runs) <= tested(&full_runs), "trial {trial}");
            incremental_trials += usize::from(tested(&runs) < tested(&full_runs));
            for r in &runs {
                let decided = r.work.edges_tested + r.work.from_record;
                assert_eq!(
                    decided, r.m as u64,
                    "trial {trial}: every edge decided once"
                );
            }
            // `padberg-rinaldi` runs at a λ̂ below that of its last run,
            // deciding some untouched edges from the record.
            let pr: Vec<&PassRun> = runs
                .iter()
                .filter(|r| r.pass == Pass::PadbergRinaldi)
                .collect();
            lowered_runs += pr
                .windows(2)
                .filter(|w| w[1].lambda_hat < w[0].lambda_hat && w[1].work.from_record > 0)
                .inspect(|w| assert!(w[1].work.edges_tested < w[1].m as u64))
                .count();
        }
        assert!(
            2 * incremental_trials > trials,
            "most trials must have a round that tests only touched edges"
        );
        assert!(
            lowered_runs >= trials / 10,
            "padberg-rinaldi must re-run at a lowered λ̂ from its record"
        );
    }

    #[test]
    fn heavy_edge_contracts_under_test1() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 10), (1, 2, 1), (0, 2, 1)]);
        let mut uf = UnionFind::new(3);
        let unions = padberg_rinaldi_pass(&g, 5, &mut uf, 1);
        assert!(unions >= 1);
        assert!(uf.same(0, 1), "the weight-10 edge must be marked");
    }

    #[test]
    fn triangle_test_fires() {
        // Edge (0,1) weight 2, common neighbour 2 with min(3,3) = 3:
        // bound 5 ≥ λ̂ = 5 even though c(e) < λ̂ and degrees are large.
        let g = CsrGraph::from_edges(
            5,
            &[
                (0, 1, 2),
                (0, 2, 3),
                (1, 2, 3),
                (0, 3, 9),
                (1, 4, 9),
                (2, 3, 1),
                (2, 4, 1),
            ],
        );
        let mut uf = UnionFind::new(5);
        padberg_rinaldi_pass(&g, 5, &mut uf, 1);
        assert!(uf.same(0, 1));
    }

    #[test]
    fn pass_preserves_minimum_cut_value_on_known_family() {
        // Contract everything a pass marks, recompute λ on the contracted
        // graph, and check the known minimum survives (tests are safe as
        // long as λ̂ starts at the min-degree bound).
        let (g, l) = known::two_communities(8, 8, 2, 3, 1);
        let lambda_hat = g.min_weighted_degree().unwrap().1;
        let mut uf = UnionFind::new(g.n());
        let unions = padberg_rinaldi_pass(&g, lambda_hat, &mut uf, 1);
        assert!(unions > 0, "cliques must contract");
        let (labels, blocks) = uf.dense_labels();
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        assert!(c.n() >= 2);
        assert_eq!(
            known::brute_force_mincut(&c),
            l,
            "min cut must survive the PR pass"
        );
    }

    #[test]
    fn no_unions_when_lambda_hat_unreachable() {
        // Cycles DO contract under test 2 (2c(e) ≥ min degree); verify
        // safety of the aggressive local tests instead of absence.
        let g = CsrGraph::from_edges(4, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2)]);
        let mut uf = UnionFind::new(4);
        let unions = padberg_rinaldi_pass(&g, u64::MAX, &mut uf, 1);
        assert!(unions > 0);
        let (labels, blocks) = uf.dense_labels();
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        if c.n() >= 2 {
            assert!(known::brute_force_mincut(&c) >= 4);
        }
    }
}
