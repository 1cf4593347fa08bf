//! VieCut — the inexact multilevel minimum-cut heuristic (§2.4) used to
//! obtain the tight upper bound λ̂ that powers the paper's exact algorithm.
//!
//! Each level: (1) cluster the graph with parallel label propagation —
//! minimum cuts rarely split a strongly connected cluster; (2) contract
//! the clusters (one sequential contraction round); (3) run a
//! linear-work pass of Padberg–Rinaldi local tests to contract further.
//! Repeat until the graph is small, then solve it *exactly* with NOI.
//!
//! VieCut cannot guarantee optimality — contraction may destroy all
//! minimum cuts — but every value it reports is the value of an actual
//! cut of the input (trivial degree cuts of interim graphs, or the exact
//! solution of the final collapsed graph, both mapped back through
//! [`Membership`](mincut_graph::Membership)). That *upper-bound validity*
//! is all the exact drivers rely on (§3.1.1: "As we set λ̂ to the result
//! of VieCut when running NOI, we can therefore guarantee a correct
//! result").

pub mod label_propagation;

use mincut_ds::{PqKind, UnionFind};
use mincut_graph::CsrGraph;

use crate::contracted::Contracted;
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
    let mut k = Contracted::new(g, compute_side);
    ctx.stats.record_lambda(k.lambda());

    let mut level_seed = seed;
    let mut uf = UnionFind::new(0);
    let mut labels_buf = Vec::new();
    while k.graph().n() > EXACT_THRESHOLD {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let n_before = k.graph().n();
        let mut level_span = mincut_obs::span("viecut/level");
        level_span.arg("level", ctx.stats.rounds);
        level_span.arg("n", n_before);
        level_span.arg("lambda_hat", k.lambda());
        // (1) cluster.
        let (labels, clusters) = {
            let mut lp_span = mincut_obs::span("viecut/label-propagation");
            lp_span.arg("n", n_before);
            label_propagation(k.graph(), LP_ITERATIONS, level_seed, ctx.threads)
        };
        level_seed = level_seed.wrapping_add(0x9e37_79b9);
        if clusters == 1 {
            // The whole graph is one strongly connected cluster: there is
            // no community structure for the multilevel scheme to exploit
            // and further levels would crawl on Padberg–Rinaldi progress
            // alone. Hand straight over to the exact solver.
            break;
        }
        if clusters < n_before {
            ctx.stats.contracted_vertices += (n_before - clusters) as u64;
            k.contract(&labels, clusters);
            ctx.stats.record_lambda(k.lambda());
        }
        // (2) Padberg–Rinaldi pass on the contracted graph.
        let n = k.graph().n();
        if n > EXACT_THRESHOLD {
            let unions = {
                let mut pr_span = mincut_obs::span("viecut/padberg-rinaldi");
                pr_span.arg("n", n);
                uf.reset(n);
                padberg_rinaldi_pass(k.graph(), k.lambda(), &mut uf, ctx.threads)
            };
            if unions > 0 && uf.count() > 1 {
                let blocks = uf.dense_labels_into(&mut labels_buf);
                ctx.stats.contracted_vertices += (n - blocks) as u64;
                k.contract(&labels_buf, blocks);
                ctx.stats.record_lambda(k.lambda());
            }
        }
        if k.graph().n() <= 1 {
            break; // fully collapsed: λ̂ is whatever trivial cuts we saw
        }
        // Require geometric shrinkage (the multilevel contract of the
        // reference implementation); below 5% progress the remaining work
        // is cheaper in the exact solver.
        if k.graph().n() * 20 > n_before * 19 {
            break;
        }
    }

    // (3) exact solve of the small remainder (connected: contraction
    // preserves connectivity). Runs against a nested stats sink: its λ̂
    // trajectory concerns the collapsed graph and would pollute ours,
    // but its work counters are ours.
    if k.graph().n() >= 2 {
        let mut remainder_span = mincut_obs::span("viecut/exact-remainder");
        remainder_span.arg("n", k.graph().n());
        let mut nested = SolverStats::default();
        let exact = {
            let mut inner = SolveContext {
                stats: &mut nested,
                deadline: ctx.deadline,
                budget: ctx.budget,
                threads: ctx.threads,
            };
            noi_minimum_cut_connected(
                k.graph(),
                NoiParams {
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
        k.offer_bitmap(exact.value, exact.side.as_deref());
        ctx.stats.record_lambda(k.lambda());
    }

    Ok(k.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, SolveOptions};
    use mincut_graph::generators::known;
    use mincut_graph::EdgeWeight;

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
