//! VieCut — the inexact multilevel minimum-cut heuristic (§2.4) used to
//! obtain the tight upper bound λ̂ that powers the paper's exact algorithm.
//!
//! Each level: (1) cluster the graph with parallel label propagation —
//! minimum cuts rarely split a strongly connected cluster; (2) contract
//! the clusters (shared-memory parallel contraction); (3) run a
//! linear-work pass of Padberg–Rinaldi local tests to contract further.
//! Repeat until the graph is small, then solve it *exactly* with NOI.
//!
//! VieCut cannot guarantee optimality — contraction may destroy all
//! minimum cuts — but every value it reports is the value of an actual
//! cut of the input (trivial degree cuts of interim graphs, or the exact
//! solution of the final collapsed graph, both mapped back through
//! [`Membership`]). That *upper-bound validity* is all the exact drivers
//! rely on (§3.1.1: "As we set λ̂ to the result of VieCut when running
//! NOI, we can therefore guarantee a correct result").

pub mod label_propagation;

use mincut_ds::{PqKind, UnionFind};
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership};

use crate::error::MinCutError;
use crate::noi::{noi_minimum_cut_connected, NoiParams};
use crate::reduce::padberg_rinaldi_pass;
use crate::stats::{SolveContext, SolverStats};
use crate::MinCutResult;

pub use label_propagation::label_propagation;

/// Label-propagation rounds per level (the reference uses 2–3).
const LP_ITERATIONS: usize = 2;

/// Solve exactly once the graph is at most this big.
const EXACT_THRESHOLD: usize = 128;

/// Runs VieCut on a connected graph with n ≥ 2 (the session preflight
/// guarantees both), feeding per-level telemetry into the
/// [`SolveContext`] and honoring its time budget between levels.
/// Returns an upper bound on λ(G) that is always the value of an actual
/// cut (witness included when `compute_side`); on the paper's benchmark
/// families it is usually λ itself. `seed` drives the label-propagation
/// orders and the exact remainder solve.
pub(crate) fn viecut_connected(
    g: &CsrGraph,
    seed: u64,
    compute_side: bool,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let mut engine = ContractionEngine::new(ctx.threads);
    let mut current = g.clone();
    // Witness bookkeeping only when a side is requested (as in NOI).
    let mut membership = Membership::identity(if compute_side { g.n() } else { 0 });
    let contract = |engine: &mut ContractionEngine,
                    current: &CsrGraph,
                    labels: &[mincut_graph::NodeId],
                    blocks: usize,
                    membership: &mut Membership| {
        if compute_side {
            engine.contract_tracked(current, labels, blocks, membership)
        } else {
            engine.contract(current, labels, blocks)
        }
    };
    let (dv, mut lambda) = g.min_weighted_degree().expect("n >= 2");
    let mut best_side: Option<Vec<bool>> = compute_side.then(|| {
        let mut s = vec![false; g.n()];
        s[dv as usize] = true;
        s
    });

    ctx.stats.record_lambda(lambda);

    let mut level_seed = seed;
    let mut uf = UnionFind::new(0);
    let mut labels_buf = Vec::new();
    while current.n() > EXACT_THRESHOLD {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let mut level_span = mincut_obs::span("viecut/level");
        level_span.arg("level", ctx.stats.rounds);
        level_span.arg("n", current.n());
        level_span.arg("lambda_hat", lambda);
        let n_before = current.n();
        // (1) cluster.
        let (labels, clusters) =
            label_propagation(&current, LP_ITERATIONS, level_seed, ctx.threads);
        level_seed = level_seed.wrapping_add(0x9e37_79b9);
        if clusters == 1 {
            // The whole graph is one strongly connected cluster: there is
            // no community structure for the multilevel scheme to exploit
            // and further levels would crawl on Padberg–Rinaldi progress
            // alone. Hand straight over to the exact solver.
            break;
        }
        if clusters < current.n() {
            ctx.stats.contracted_vertices += (current.n() - clusters) as u64;
            let next = contract(&mut engine, &current, &labels, clusters, &mut membership);
            ctx.stats.record_contraction_path(engine.last_path());
            engine.recycle(std::mem::replace(&mut current, next));
            update_trivial_bound(
                &current,
                &membership,
                &mut lambda,
                &mut best_side,
                compute_side,
            );
            ctx.stats.record_lambda(lambda);
        }
        // (2) Padberg–Rinaldi pass on the contracted graph.
        if current.n() > EXACT_THRESHOLD {
            uf.reset(current.n());
            let unions = padberg_rinaldi_pass(&current, lambda, &mut uf);
            if unions > 0 && uf.count() > 1 {
                let blocks = uf.dense_labels_into(&mut labels_buf);
                ctx.stats.contracted_vertices += (current.n() - blocks) as u64;
                let next = contract(&mut engine, &current, &labels_buf, blocks, &mut membership);
                ctx.stats.record_contraction_path(engine.last_path());
                engine.recycle(std::mem::replace(&mut current, next));
                update_trivial_bound(
                    &current,
                    &membership,
                    &mut lambda,
                    &mut best_side,
                    compute_side,
                );
                ctx.stats.record_lambda(lambda);
            }
        }
        if current.n() <= 1 {
            break; // fully collapsed: λ̂ is whatever trivial cuts we saw
        }
        // Require geometric shrinkage (the multilevel contract of the
        // reference implementation); below 5% progress the remaining work
        // is cheaper in the exact solver.
        if current.n() * 20 > n_before * 19 {
            break;
        }
    }

    // (3) exact solve of the small remainder (connected: contraction
    // preserves connectivity). Runs against a nested stats sink: its λ̂
    // trajectory concerns the collapsed graph and would pollute ours,
    // but its work counters are ours.
    if current.n() >= 2 {
        let mut remainder_span = mincut_obs::span("viecut/exact-remainder");
        remainder_span.arg("n", current.n());
        let mut nested = SolverStats::default();
        let exact = {
            let mut inner = SolveContext {
                stats: &mut nested,
                deadline: ctx.deadline,
                budget: ctx.budget,
                threads: ctx.threads,
            };
            noi_minimum_cut_connected(
                &current,
                &NoiParams {
                    pq: PqKind::Heap,
                    bounded: true,
                    initial_bound: None,
                    compute_side,
                    seed,
                },
                &mut inner,
            )?
        };
        ctx.stats.absorb_work(&nested);
        if exact.value < lambda {
            lambda = exact.value;
            ctx.stats.record_lambda(lambda);
            if compute_side {
                best_side = Some(membership.side_of_bitmap(&exact.side.expect("requested")));
            }
        }
    }

    Ok(MinCutResult {
        value: lambda,
        side: best_side,
    })
}

fn update_trivial_bound(
    current: &CsrGraph,
    membership: &Membership,
    lambda: &mut EdgeWeight,
    best_side: &mut Option<Vec<bool>>,
    compute_side: bool,
) {
    if let Some((v, d)) = current.min_weighted_degree() {
        if current.n() >= 2 && d < *lambda {
            *lambda = d;
            if compute_side {
                *best_side = Some(membership.side_of_vertices(&[v]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, SolveOptions};
    use mincut_graph::generators::known;

    /// Runs VieCut on `g` itself (no kernelization).
    fn run_viecut(g: &CsrGraph) -> MinCutResult {
        Session::new(g)
            .options(SolveOptions::new().no_reductions())
            .run("viecut")
            .unwrap()
            .cut
    }

    fn check_upper_bound(g: &CsrGraph, lambda: EdgeWeight) -> EdgeWeight {
        let r = run_viecut(g);
        assert!(r.value >= lambda, "VieCut may not go below λ");
        let side = r.side.expect("witness");
        assert!(g.is_proper_cut(&side));
        assert_eq!(
            g.cut_value(&side),
            r.value,
            "reported value must be a real cut"
        );
        r.value
    }

    #[test]
    fn exact_on_clustered_families() {
        // Community structure is VieCut's best case: it finds λ exactly.
        let (g, l) = known::two_communities(40, 40, 2, 2, 1);
        assert_eq!(check_upper_bound(&g, l), l);
        let (g, l) = known::ring_of_cliques(8, 20, 2, 1);
        assert_eq!(check_upper_bound(&g, l), l);
    }

    #[test]
    fn valid_bound_on_grids_and_cycles() {
        let (g, l) = known::grid_graph(20, 20, 1);
        check_upper_bound(&g, l);
        let (g, l) = known::cycle_graph(500, 2);
        check_upper_bound(&g, l);
    }

    #[test]
    fn small_graph_goes_straight_to_exact() {
        let (g, l) = known::two_communities(6, 5, 1, 2, 1);
        assert!(g.n() <= EXACT_THRESHOLD);
        assert_eq!(run_viecut(&g).value, l); // NOI solves exactly
    }
}
