//! Kernelization: exact reduction passes shared by every solver.
//!
//! The paper's speed comes from *bound-driven contraction*: cheap local
//! tests shrink the graph to a small kernel before any expensive scan work
//! (§3; the VieCut line of work). This module makes that a first-class,
//! composable subsystem instead of per-solver folklore: a [`Reduction`] is
//! one exact pass over the current kernel, a [`ReductionPipeline`] runs a
//! list of passes to a fixpoint through one shared
//! [`ContractionEngine`], and the resulting [`ReduceOutcome`] carries the
//! kernel, the [`Membership`] map back to the original vertex set, the
//! best bound λ̂ found on the way (always the value of a real cut, witness
//! included) and per-pass telemetry.
//!
//! **The exactness invariant.** Every pass preserves
//!
//! ```text
//! λ(G) = min(λ̂, λ(kernel))
//! ```
//!
//! * `components` — a disconnected graph has λ = 0 with the smallest
//!   component as the canonical witness; each component collapses to one
//!   vertex and the pipeline terminates.
//! * `degree-bound` — walks the k-core peeling order
//!   ([`mincut_graph::kcore::core_decomposition`]) and takes the best
//!   *prefix cut* along it (maintained incrementally in O(n + m)). Loosely
//!   attached structure peels first, so this generalises the trivial
//!   minimum-degree cut: the first prefix is a single minimum-degree
//!   vertex, later prefixes capture whole satellite communities. Bound
//!   only; never contracts.
//! * `heavy-edge` — contracts every edge with `c(e) ≥ λ̂` (any cut
//!   separating its endpoints pays at least `c(e)`, so no cut below λ̂ is
//!   lost) or `2·c(e) ≥ min(c(u), c(v))` (safe for non-trivial cuts;
//!   trivial cuts are covered because the pipeline keeps λ̂ at most the
//!   minimum weighted degree of every interim kernel).
//! * `padberg-rinaldi` — the full Padberg–Rinaldi pass
//!   ([`padberg_rinaldi_pass`], shared with VieCut), adding the
//!   triangle test 3 on top of the edge-local tests.
//!
//! Contractions route through the engine's
//! [`SEQUENTIAL_FALLBACK_THRESHOLD`](ContractionEngine::SEQUENTIAL_FALLBACK_THRESHOLD)
//! dispatch, the same knob as every solver's round loop.

use std::borrow::Cow;
use std::time::Instant;

use mincut_ds::UnionFind;
use mincut_graph::components::{connected_components, smallest_component_side};
use mincut_graph::kcore::core_decomposition;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};

use crate::error::MinCutError;
use crate::stats::{ReductionPassStats, SolveContext};

/// Which reduction passes a solve runs before its main loop
/// ([`SolveOptions::reductions`](crate::SolveOptions::reductions)).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Reductions {
    /// The standard pipeline, every pass in canonical order (the default).
    #[default]
    All,
    /// No kernelization (the CLI's `--no-reduce`).
    None,
    /// Only the named passes, in the given order (the CLI's
    /// `--reductions=<list>`). Names as in [`ReductionPipeline::pass_names`].
    Only(Vec<String>),
}

impl Reductions {
    /// Whether any kernelization runs at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, Reductions::None)
    }

    /// Rejects unknown or empty pass selections (the name check is
    /// [`ReductionPipeline::only`]'s, so the two cannot drift).
    pub fn validate(&self) -> Result<(), MinCutError> {
        if let Reductions::Only(names) = self {
            if names.is_empty() {
                return Err(MinCutError::InvalidOptions {
                    message: "reductions: empty pass list (use Reductions::None to disable)".into(),
                });
            }
            ReductionPipeline::only(names)?;
        }
        Ok(())
    }

    /// Stable spelling used as part of cache keys (the service's kernel
    /// cache and cut cache must distinguish reduction configurations).
    pub fn cache_key(&self) -> String {
        match self {
            Reductions::All => "all".into(),
            Reductions::None => "none".into(),
            Reductions::Only(names) => format!("only:{}", names.join(",")),
        }
    }
}

/// The rolling state one pipeline run threads through its passes: the
/// current kernel, the witness map back to the original vertices, and the
/// best bound λ̂ seen so far (with its side over the *original* vertex
/// set — `None` only when a sideless caller bound was adopted).
pub struct KernelState<'e, 'g> {
    /// Borrows the input until the first contraction — reduction-resistant
    /// graphs are never copied by the pipeline.
    pub graph: Cow<'g, CsrGraph>,
    pub membership: Membership,
    pub lambda: EdgeWeight,
    pub side: Option<Vec<bool>>,
    engine: &'e mut ContractionEngine,
}

impl KernelState<'_, '_> {
    /// Adopts a better bound. `side` is over the original vertex set.
    /// Sides are always tracked (even for witness-off runs) so one
    /// pipeline outcome can be shared across jobs with different
    /// witness settings; `side` is `None` only while a sideless
    /// caller-supplied bound holds the record.
    pub fn improve(&mut self, value: EdgeWeight, side: Option<Vec<bool>>) {
        if value < self.lambda {
            self.lambda = value;
            self.side = side;
        }
    }

    /// Adopts a better bound given as a set of *current* (kernel)
    /// vertices on one side.
    fn improve_current(&mut self, value: EdgeWeight, vertices: &[NodeId]) {
        if value < self.lambda {
            self.lambda = value;
            self.side = Some(self.membership.side_of_vertices(vertices));
        }
    }

    /// Contracts the kernel by `labels`, keeps membership in sync through
    /// the engine, recycles the retired buffer, and re-checks the trivial
    /// cuts of the new kernel (§3.2: "If the collapsed graph G_C has a
    /// minimum degree of less than λ̂, we update λ̂") so the heavy-edge
    /// test 2 stays exact.
    fn contract(&mut self, labels: &[NodeId], num_blocks: usize) {
        let next = self.engine.contract_tracked(
            self.graph.as_ref(),
            labels,
            num_blocks,
            &mut self.membership,
        );
        // Only an owned (already-contracted) graph goes back into the
        // double buffer; the borrowed input belongs to the caller.
        if let Cow::Owned(old) = std::mem::replace(&mut self.graph, Cow::Owned(next)) {
            self.engine.recycle(old);
        }
        if self.graph.n() >= 2 {
            if let Some((v, d)) = self.graph.min_weighted_degree() {
                self.improve_current(d, &[v]);
            }
        }
    }
}

/// One exact kernelization pass. Implementations must preserve the
/// pipeline invariant `λ(G) = min(λ̂, λ(kernel))`.
pub trait Reduction: Send + Sync {
    /// Stable pass name (CLI `--reductions` spelling, stats key).
    fn name(&self) -> &'static str;

    /// Runs one pass over the kernel; returns whether it contracted.
    fn apply(&self, k: &mut KernelState<'_, '_>) -> bool;
}

/// `components`: λ = 0 on disconnected inputs, with the smallest
/// component as the uniform witness; collapses each component.
struct ComponentSplit;

impl Reduction for ComponentSplit {
    fn name(&self) -> &'static str {
        "components"
    }

    fn apply(&self, k: &mut KernelState<'_, '_>) -> bool {
        let (comp, ncomp) = connected_components(k.graph.as_ref());
        if ncomp <= 1 {
            return false;
        }
        let side_current = smallest_component_side(&comp, ncomp);
        let side = k.membership.side_of_bitmap(&side_current);
        k.improve(0, Some(side));
        k.contract(&comp, ncomp);
        true
    }
}

/// `degree-bound`: best prefix cut along the k-core peeling order.
struct DegreeBound;

impl Reduction for DegreeBound {
    fn name(&self) -> &'static str {
        "degree-bound"
    }

    fn apply(&self, k: &mut KernelState<'_, '_>) -> bool {
        let g = k.graph.as_ref();
        let n = g.n();
        if n < 2 {
            return false;
        }
        let (_, order) = core_decomposition(g);
        let mut in_prefix = vec![false; n];
        let mut cut: EdgeWeight = 0;
        let mut best = (k.lambda, usize::MAX);
        for (i, &v) in order[..n - 1].iter().enumerate() {
            let into_prefix: EdgeWeight = g
                .arcs(v)
                .filter(|&(u, _)| in_prefix[u as usize])
                .map(|(_, w)| w)
                .sum();
            // cut(P ∪ {v}) = cut(P) + c(v) − 2·w(v, P); never underflows
            // because w(v, P) ≤ cut(P) and w(v, P) ≤ c(v).
            cut += g.weighted_degree(v);
            cut -= 2 * into_prefix;
            in_prefix[v as usize] = true;
            if cut < best.0 {
                best = (cut, i);
            }
        }
        if best.1 != usize::MAX {
            let (value, i) = best;
            let prefix = &order[..=i];
            k.improve_current(value, prefix);
        }
        false
    }
}

/// `heavy-edge`: contracts under the two edge-local Padberg–Rinaldi tests.
struct HeavyEdge;

impl Reduction for HeavyEdge {
    fn name(&self) -> &'static str {
        "heavy-edge"
    }

    fn apply(&self, k: &mut KernelState<'_, '_>) -> bool {
        let g = k.graph.as_ref();
        if g.n() <= 2 {
            return false;
        }
        let mut uf = UnionFind::new(g.n());
        // Triangle budget 0: only the edge-local tests 1 and 2 run.
        let unions = pr_pass(g, k.lambda, &mut uf, 0);
        if unions == 0 {
            return false;
        }
        let (labels, blocks) = uf.dense_labels();
        k.contract(&labels, blocks);
        true
    }
}

/// `padberg-rinaldi`: the full pass including the triangle test.
struct PadbergRinaldi;

impl Reduction for PadbergRinaldi {
    fn name(&self) -> &'static str {
        "padberg-rinaldi"
    }

    fn apply(&self, k: &mut KernelState<'_, '_>) -> bool {
        let g = k.graph.as_ref();
        if g.n() <= 2 {
            return false;
        }
        let mut uf = UnionFind::new(g.n());
        let unions = padberg_rinaldi_pass(g, k.lambda, &mut uf);
        if unions == 0 {
            return false;
        }
        let (labels, blocks) = uf.dense_labels();
        k.contract(&labels, blocks);
        true
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

/// A composable list of [`Reduction`] passes run to a fixpoint.
pub struct ReductionPipeline {
    passes: Vec<Box<dyn Reduction>>,
}

/// Canonical pass order of the standard pipeline.
const PASS_NAMES: &[&str] = &[
    "components",
    "degree-bound",
    "heavy-edge",
    "padberg-rinaldi",
];

/// Fixpoint guard: contraction passes strictly shrink the kernel, so this
/// is never the binding constraint on sane inputs.
const MAX_ROUNDS: usize = 32;

impl ReductionPipeline {
    /// The standard pipeline: every pass, canonical order.
    pub fn standard() -> Self {
        Self::only(PASS_NAMES).expect("canonical names are valid")
    }

    /// A pipeline of just the named passes, in the given order.
    pub fn only<S: AsRef<str>>(names: &[S]) -> Result<Self, MinCutError> {
        let mut passes: Vec<Box<dyn Reduction>> = Vec::new();
        for name in names {
            passes.push(match name.as_ref() {
                "components" => Box::new(ComponentSplit),
                "degree-bound" => Box::new(DegreeBound),
                "heavy-edge" => Box::new(HeavyEdge),
                "padberg-rinaldi" => Box::new(PadbergRinaldi),
                other => {
                    return Err(MinCutError::InvalidOptions {
                        message: format!(
                            "unknown reduction pass {other:?}; known: {}",
                            PASS_NAMES.join(", ")
                        ),
                    })
                }
            });
        }
        Ok(ReductionPipeline { passes })
    }

    /// Builds the pipeline selected by a [`Reductions`] value: `None` when
    /// kernelization is disabled, an error on unknown pass names (the
    /// same check `SolveOptions::validate` runs up front).
    pub fn from_options(r: &Reductions) -> Result<Option<Self>, MinCutError> {
        match r {
            Reductions::All => Ok(Some(Self::standard())),
            Reductions::None => Ok(None),
            Reductions::Only(names) => Self::only(names).map(Some),
        }
    }

    /// Names of every registered pass, canonical order (CLI help,
    /// validation).
    pub fn pass_names() -> &'static [&'static str] {
        PASS_NAMES
    }

    /// Kernelizes `g` (n ≥ 2 required). `initial_bound` is an optional
    /// caller bound — the value of a real cut of `g`, with its side if
    /// known — that seeds λ̂ and thereby unlocks more heavy-edge
    /// contractions. Checks the context's time budget between passes.
    ///
    /// Disconnected inputs terminate immediately with λ̂ = 0 and the
    /// smallest component as witness, whether or not `components` is in
    /// the pass list — the split is the precondition of every other pass.
    pub fn run(
        &self,
        g: &CsrGraph,
        initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
        ctx: &mut SolveContext<'_>,
    ) -> Result<ReduceOutcome, MinCutError> {
        assert!(g.n() >= 2, "kernelization needs at least two vertices");
        let mut engine = ContractionEngine::new();
        let (dv, ddeg) = g.min_weighted_degree().expect("n >= 2");
        let mut state = KernelState {
            graph: Cow::Borrowed(g),
            membership: Membership::identity(g.n()),
            lambda: ddeg,
            side: Some({
                let mut s = vec![false; g.n()];
                s[dv as usize] = true;
                s
            }),
            engine: &mut engine,
        };
        if let Some((b, bside)) = initial_bound {
            if let Some(s) = &bside {
                debug_assert_eq!(
                    g.cut_value(s),
                    b,
                    "initial bound witness must match its value"
                );
            }
            if b < state.lambda {
                // A sideless bound leaves the outcome sideless; callers
                // with witness tracking on never supply one (validated).
                state.lambda = b;
                state.side = bside;
            }
        }
        ctx.stats.record_lambda(state.lambda);

        let mut pass_stats: Vec<ReductionPassStats> = self
            .passes
            .iter()
            .map(|p| ReductionPassStats::new(p.name()))
            .collect();

        // Mandatory preamble: the component split (every later pass
        // assumes a connected kernel). Attributed to the `components`
        // stats row when that pass is selected.
        let t0 = Instant::now();
        let before = (state.graph.n(), state.graph.m());
        let split = ComponentSplit.apply(&mut state);
        if let Some(ps) = pass_stats.iter_mut().find(|p| p.name == "components") {
            ps.rounds += 1;
            ps.vertices_removed += (before.0 - state.graph.n()) as u64;
            ps.edges_removed += (before.1 - state.graph.m()) as u64;
            ps.seconds += t0.elapsed().as_secs_f64();
        }
        if split {
            ctx.stats.record_lambda(state.lambda);
            return Ok(self.finish(state, pass_stats, g));
        }

        'rounds: for _ in 0..MAX_ROUNDS {
            let mut contracted = false;
            for (pass, ps) in self.passes.iter().zip(pass_stats.iter_mut()) {
                if state.graph.n() <= 2 || state.lambda <= 1 {
                    break 'rounds;
                }
                if pass.name() == "components" {
                    continue; // preamble already ran; kernels stay connected
                }
                ctx.check_budget()?;
                let t0 = Instant::now();
                let before = (state.graph.n(), state.graph.m());
                let mut pass_span = mincut_obs::span("reduce/pass");
                pass_span.arg("pass", pass.name());
                pass_span.arg("n", before.0);
                pass_span.arg("m", before.1);
                pass_span.arg("lambda_hat", state.lambda);
                contracted |= pass.apply(&mut state);
                pass_span.arg("vertices_removed", before.0 - state.graph.n());
                pass_span.arg("edges_removed", before.1 - state.graph.m());
                drop(pass_span);
                ps.rounds += 1;
                ps.vertices_removed += (before.0 - state.graph.n()) as u64;
                ps.edges_removed += (before.1 - state.graph.m()) as u64;
                ps.seconds += t0.elapsed().as_secs_f64();
                ctx.stats.record_lambda(state.lambda);
            }
            if !contracted {
                break;
            }
        }
        Ok(self.finish(state, pass_stats, g))
    }

    fn finish(
        &self,
        state: KernelState<'_, '_>,
        passes: Vec<ReductionPassStats>,
        g: &CsrGraph,
    ) -> ReduceOutcome {
        ReduceOutcome {
            // Still borrowed means nothing contracted: the one clone a
            // reduction-resistant input pays (the pre-engine code paid it
            // up front on every input).
            kernel: state.graph.into_owned(),
            membership: state.membership,
            lambda_hat: state.lambda,
            side: state.side,
            passes,
            original_n: g.n(),
            original_m: g.m(),
        }
    }
}

// ---------------------------------------------------------------------
// Padberg–Rinaldi local tests (also run by each VieCut level).
// ---------------------------------------------------------------------

/// Degree budget for the triangle test: the sorted-list intersection of
/// test 3 costs `deg(u) + deg(v)` per edge, which degenerates to
/// `Σ_v deg(v)²` on hub-heavy graphs. Past this bound the test is skipped
/// — it only costs contraction opportunities, never correctness (the
/// linear-work discipline mirrors the reference implementation's bounded
/// passes).
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
///    for cuts below λ̂.
///
/// The fourth Padberg–Rinaldi condition (a triangle/degree hybrid) is
/// deliberately omitted: tests 1–3 already capture nearly all
/// contractions on the benchmark families. Marks contractible edges in
/// `uf`; returns the number of successful unions.
pub fn padberg_rinaldi_pass(g: &CsrGraph, lambda_hat: EdgeWeight, uf: &mut UnionFind) -> usize {
    pr_pass(g, lambda_hat, uf, TRIANGLE_DEGREE_BUDGET)
}

/// Shared body of [`padberg_rinaldi_pass`] and the `heavy-edge` pass:
/// `triangle_budget` = 0 disables test 3, leaving the edge-local tests.
fn pr_pass(
    g: &CsrGraph,
    lambda_hat: EdgeWeight,
    uf: &mut UnionFind,
    triangle_budget: usize,
) -> usize {
    let mut unions = 0;
    // Test 2 endpoints: the shifting argument re-sides the endpoints of
    // the contracted edge, so two test-2 contractions sharing a vertex
    // may have no common surviving minimum cut. Restricting the pass to
    // a matching keeps the induction valid: each later edge's endpoints
    // are untouched by every earlier move. Tests 1 and 3 lower-bound
    // *every* cut separating their endpoints by λ̂, so they compose
    // freely with each other and with the matching.
    let mut matched = vec![false; g.n()];
    for u in 0..g.n() as NodeId {
        let du = g.weighted_degree(u);
        for (v, w) in g.arcs(u) {
            if u >= v {
                continue;
            }
            let dv = g.weighted_degree(v);
            // Test 1: every u-v-separating cut costs ≥ c(e) ≥ λ̂.
            if w >= lambda_hat {
                if uf.union(u, v) {
                    unions += 1;
                }
                continue;
            }
            // Test 2: only on a matching (see above).
            if 2 * w >= du.min(dv) && !matched[u as usize] && !matched[v as usize] {
                if uf.union(u, v) {
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                    unions += 1;
                }
                continue;
            }
            // Test 3: aggregate triangle bound via sorted-list intersection.
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

/// `Σ_{x ∈ N(u) ∩ N(v)} min(c(u,x), c(v,x))` by merging the two sorted
/// adjacency lists.
fn common_neighbor_min_sum(g: &CsrGraph, u: NodeId, v: NodeId) -> EdgeWeight {
    let nu = g.neighbors(u);
    let wu = g.neighbor_weights(u);
    let nv = g.neighbors(v);
    let wv = g.neighbor_weights(v);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SolverStats;
    use mincut_graph::generators::known;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn kernelize(pipeline: &ReductionPipeline, g: &CsrGraph) -> ReduceOutcome {
        let mut stats = SolverStats::scratch();
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

    #[test]
    fn every_pass_alone_preserves_lambda_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(0x2ed);
        for trial in 0..60 {
            let g = random_graph(&mut rng);
            let lambda = known::brute_force_mincut(&g);
            for name in ReductionPipeline::pass_names() {
                let p = ReductionPipeline::only(&[name]).unwrap();
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
        for name in ReductionPipeline::pass_names() {
            let p = ReductionPipeline::only(&[name]).unwrap();
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
        let p = ReductionPipeline::only(&["degree-bound"]).unwrap();
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
        let mut stats = SolverStats::scratch();
        let mut ctx = SolveContext::new(&mut stats);
        let seeded = ReductionPipeline::standard()
            .run(&g, Some((l, Some(side))), &mut ctx)
            .unwrap();
        assert!(seeded.kernel.n() <= free.kernel.n());
        assert_eq!(seeded.lambda_hat, l);
    }

    #[test]
    fn unknown_pass_names_are_rejected() {
        assert!(ReductionPipeline::only(&["nope"]).is_err());
        assert!(Reductions::Only(vec!["nope".into()]).validate().is_err());
        assert!(Reductions::Only(vec![]).validate().is_err());
        assert!(Reductions::Only(vec!["heavy-edge".into()])
            .validate()
            .is_ok());
        assert!(Reductions::All.is_enabled());
        assert!(!Reductions::None.is_enabled());
        assert_ne!(Reductions::All.cache_key(), Reductions::None.cache_key());
    }

    // ----- Padberg–Rinaldi pass tests (moved with the implementation) ----

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
        let c = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
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
        let c = ContractionEngine::new().contract_sequential(&g, &labels, blocks);
        if c.n() >= 2 {
            assert!(known::brute_force_mincut(&c) >= 4);
        }
    }
}
