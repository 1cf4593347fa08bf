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
//!   that reaches it sets the bits of N(u) and keeps each `c(u, x)`,
//!   O(deg u) once per vertex; each tested edge then probes N(v) against
//!   those bits, O(deg v), and stops as soon as the common neighbours'
//!   sum reaches `λ̂ − c(e)`: the bound decides, not the sum. The bitset
//!   is n/64 words, so it stays in cache; u's words are cleared before
//!   the next vertex.
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
//! Contractions run through
//! [`ContractionEngine::contract`](mincut_graph::ContractionEngine::contract),
//! the same accumulator every solver's round loop uses.

use std::time::Instant;

use mincut_ds::UnionFind;
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
    /// the record. `None` tests every edge.
    fn apply(
        self,
        k: &mut Contracted<'_>,
        touched: &mut Touched,
        slot: usize,
        since: Option<u32>,
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
                let budget = match self {
                    Pass::HeavyEdge => 0,
                    _ => TRIANGLE_DEGREE_BUDGET,
                };
                let mut uf = UnionFind::new(n);
                let mut misses = Vec::new();
                let lambda = k.lambda();
                // A closure per case keeps a full pass free of the
                // per-edge touched test.
                let mut work = match since {
                    None => pr_pass(g, lambda, &mut uf, budget, |_| true, &[], Some(&mut misses)),
                    Some(epoch) => {
                        let (at, record) = (&touched.at, &touched.records[slot]);
                        let is_touched = |v: NodeId| at[v as usize] > epoch;
                        pr_pass(
                            g,
                            lambda,
                            &mut uf,
                            budget,
                            is_touched,
                            record,
                            Some(&mut misses),
                        )
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
    ) -> (bool, Option<PrWork>) {
        let t0 = Instant::now();
        let before = (k.graph().n(), k.graph().m());
        let mut pass_span = mincut_obs::span("reduce/pass");
        pass_span.arg("pass", self.name());
        pass_span.arg("n", before.0);
        pass_span.arg("m", before.1);
        pass_span.arg("lambda_hat", k.lambda());
        let (contracted, work) = self.apply(k, touched, slot, since);
        let removed = (before.0 - k.graph().n(), before.1 - k.graph().m());
        pass_span.arg("vertices_removed", removed.0);
        pass_span.arg("edges_removed", removed.1);
        if let Some(work) = work {
            pass_span.arg("edges_tested", work.edges_tested);
            pass_span.arg("from_record", work.from_record);
            pass_span.arg("probes", work.probes);
            pass_span.arg("recorded", work.recorded);
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
/// and its work (read by the tests).
#[derive(Clone, Copy, Debug)]
#[cfg_attr(not(test), allow(dead_code))]
struct PassRun {
    pass: Pass,
    lambda_hat: EdgeWeight,
    m: usize,
    work: PrWork,
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
        self.run_with(g, initial_bound, ctx, false)
            .map(|(outcome, _)| outcome)
    }

    /// [`ReductionPipeline::run`], also returning each run of an
    /// edge-testing pass. `retest_all` makes every such run test every
    /// edge: the reference the touched-edge rounds must match.
    fn run_with(
        &self,
        g: &CsrGraph,
        initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
        ctx: &mut SolveContext<'_>,
        retest_all: bool,
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
        Pass::Components.run(&mut k, &mut split_stats[0], &mut touched, 0, None);
        ctx.stats.record_lambda(k.lambda());
        let bound_only = self.passes.iter().zip(pass_stats_rest.iter_mut());
        for (&pass, ps) in bound_only.filter(|(p, _)| !p.contracts()) {
            if done(&k) {
                break;
            }
            ctx.check_budget()?;
            pass.run(&mut k, ps, &mut touched, 0, None);
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
                let (did_contract, work) = pass.run(&mut k, ps, &mut touched, slot, since);
                contracted |= did_contract;
                if let Some(work) = work {
                    runs.push(PassRun {
                        pass,
                        lambda_hat,
                        m,
                        work,
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
/// `uf`; returns the number of successful unions.
pub fn padberg_rinaldi_pass(g: &CsrGraph, lambda_hat: EdgeWeight, uf: &mut UnionFind) -> usize {
    pr_pass(
        g,
        lambda_hat,
        uf,
        TRIANGLE_DEGREE_BUDGET,
        |_| true,
        &[],
        None,
    )
    .unions
}

/// What one run of [`pr_pass`] did.
#[derive(Clone, Copy, Debug, Default)]
struct PrWork {
    /// Successful unions.
    unions: usize,
    /// Edges the pass tested: every edge on a full pass, the touched ones
    /// on a re-run.
    edges_tested: u64,
    /// Untouched edges a re-run decided from its last run's record,
    /// without a probe.
    from_record: u64,
    /// Adjacency entries of N(v) test 3 probed against u's bitset.
    probes: u64,
    /// Entries the pass left in its record, after its contraction.
    recorded: usize,
}

/// A test-3 miss with a nonzero common-neighbour sum: the edge `{u, v}`,
/// `u < v`, and its whole sum (a miss reads all of N(v)).
#[derive(Clone, Copy, Debug)]
struct Miss {
    u: NodeId,
    v: NodeId,
    sum: EdgeWeight,
}

/// Shared body of [`padberg_rinaldi_pass`] and the `heavy-edge` pass:
/// `triangle_budget` = 0 disables test 3, leaving the edge-local tests.
/// Tests the edges `(u, v)` with `touched(u) || touched(v)` and decides
/// every other edge, in the order of a full pass, by test 1 and by its
/// sum in `record` (the last run's misses over the untouched edges, in
/// pass order; 0 if absent) for test 3. `misses` collects this run's
/// record.
fn pr_pass(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    uf: &mut UnionFind,
    triangle_budget: usize,
    touched: impl Fn(NodeId) -> bool,
    record: &[Miss],
    mut misses: Option<&mut Vec<Miss>>,
) -> PrWork {
    let n = g.n();
    let mut work = PrWork::default();
    // Test 2 endpoints: the shifting argument re-sides the endpoints of
    // the contracted edge, so two test-2 contractions sharing a vertex
    // may have no common surviving minimum cut. Restricting the pass to
    // a matching keeps the induction valid: each later edge's endpoints
    // are untouched by every earlier move. Tests 1 and 3 lower-bound
    // *every* cut separating their endpoints by λ̂, so they compose
    // freely with each other and with the matching.
    let mut matched = vec![false; n];
    // Test 3's neighbour bitset of the current u: bit x is set iff
    // x ∈ N(u), and then `c_u[x]` = c(u, x).
    let triangles = triangle_budget > 0;
    let mut bits = vec![0u64; if triangles { n.div_ceil(64) } else { 0 }];
    let mut c_u: Vec<EdgeWeight> = vec![0; if triangles { n } else { 0 }];
    // The record entry of the next untouched edge that has one.
    let mut next = 0;
    for u in 0..n as NodeId {
        let du = g.weighted_degree(u);
        let touched_u = touched(u);
        let (nu, wu) = g.arc_slices(u);
        let mut bits_set = false;
        let upper = nu.partition_point(|&v| v <= u);
        for (&v, &w) in nu[upper..].iter().zip(&wu[upper..]) {
            if !touched_u && !touched(v) {
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
                    if uf.union(u, v) {
                        work.unions += 1;
                    }
                } else if sum > 0 {
                    if let Some(m) = &mut misses {
                        m.push(Miss { u, v, sum });
                    }
                }
                continue;
            }
            work.edges_tested += 1;
            let dv = g.weighted_degree(v);
            // Test 1: every u-v-separating cut costs ≥ c(e) ≥ λ̂.
            if w >= lambda_hat {
                if uf.union(u, v) {
                    work.unions += 1;
                }
                continue;
            }
            // Test 2: only on a matching (see above).
            if 2 * w >= du.min(dv) && !matched[u as usize] && !matched[v as usize] {
                if uf.union(u, v) {
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                    work.unions += 1;
                }
                continue;
            }
            // Test 3: aggregate triangle bound. Test 1 failed, so
            // `need` = λ̂ − c(e) > 0.
            if nu.len() + g.degree(v) > triangle_budget {
                continue;
            }
            if !bits_set {
                for (&x, &c) in nu.iter().zip(wu) {
                    bits[x as usize / 64] |= 1 << (x % 64);
                    c_u[x as usize] = c;
                }
                bits_set = true;
            }
            let need = lambda_hat - w;
            let mut sum = 0;
            let (nv, wv) = g.arc_slices(v);
            for (i, &x) in nv.iter().enumerate() {
                work.probes += 1;
                if bits[x as usize / 64] >> (x % 64) & 1 != 0 {
                    sum += c_u[x as usize].min(wv[i]);
                    if sum >= need {
                        break;
                    }
                }
            }
            if sum >= need {
                if uf.union(u, v) {
                    work.unions += 1;
                }
            } else if sum > 0 {
                if let Some(m) = &mut misses {
                    m.push(Miss { u, v, sum });
                }
            }
        }
        if bits_set {
            for &x in nu {
                bits[x as usize / 64] = 0;
            }
        }
    }
    debug_assert_eq!(next, record.len(), "a record entry matched no edge");
    work
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
        }
        assert_exact(&ReductionPipeline::standard(), &g, 7, "standard");
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

    /// Runs the pass and the full-merge oracle at `lambda_hat` and
    /// `budget`, asserts the same unions and the same blocks, and returns
    /// the number of unions.
    fn assert_matches_full_merge(
        g: &CsrGraph,
        lambda_hat: EdgeWeight,
        budget: usize,
        tag: &str,
    ) -> usize {
        let mut uf = UnionFind::new(g.n());
        let unions = pr_pass(g, lambda_hat, &mut uf, budget, |_| true, &[], None).unions;
        let mut reference = UnionFind::new(g.n());
        let expected = full_merge_pr_pass(g, lambda_hat, &mut reference, budget);
        let tag = format!("{tag}, λ̂ {lambda_hat}, budget {budget}");
        assert_eq!(unions, expected, "{tag}: unions");
        assert_eq!(uf.dense_labels(), reference.dense_labels(), "{tag}: blocks");
        unions
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
        // and feed test 3; sparse ones are where test 2 fires.
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
        // contraction, changes the kernel of some trial.
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
            let run = |retest_all| {
                let mut stats = SolverStats::default();
                let mut ctx = SolveContext::new(&mut stats);
                let (out, runs) = ReductionPipeline::standard()
                    .run_with(&g, None, &mut ctx, retest_all)
                    .expect("no budget");
                let passes: Vec<_> = out
                    .passes
                    .iter()
                    .map(|p| (p.name, p.rounds, p.vertices_removed, p.edges_removed))
                    .collect();
                let kernel = (out.kernel.n(), out.kernel.m(), out.kernel.fingerprint());
                let got = (kernel, passes, stats.lambda_trajectory, out.side);
                (got, runs)
            };
            let (got, runs) = run(false);
            let (want, full_runs) = run(true);
            assert_eq!(got, want, "trial {trial}");
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
        let unions = padberg_rinaldi_pass(&g, 5, &mut uf);
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
        padberg_rinaldi_pass(&g, 5, &mut uf);
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
        let unions = padberg_rinaldi_pass(&g, lambda_hat, &mut uf);
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
        let unions = padberg_rinaldi_pass(&g, u64::MAX, &mut uf);
        assert!(unions > 0);
        let (labels, blocks) = uf.dense_labels();
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        if c.n() >= 2 {
            assert!(known::brute_force_mincut(&c) >= 4);
        }
    }
}
