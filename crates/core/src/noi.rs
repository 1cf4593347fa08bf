//! The exact minimum-cut driver of Nagamochi, Ono and Ibaraki, with the
//! paper's sequential optimisations (§3.1).
//!
//! Repeats: one CAPFOREST pass marks contractible edges → collapse the
//! marked blocks, which also re-checks the trivial cuts of the result
//! (the shared contraction state of `crate::contracted`) → stop at two
//! vertices. Variants:
//!
//! * **NOI-HNSS** — unbounded binary heap (the implementation of Henzinger
//!   et al. that the paper builds on);
//! * **NOIλ̂-Heap / NOIλ̂-BStack / NOIλ̂-BQueue** — priorities capped at λ̂
//!   with the three queue implementations of §3.1.3;
//! * **…-VieCut** — seed λ̂ with the result of the inexact VieCut algorithm
//!   instead of the minimum-degree bound (§3.1.1), which unlocks far more
//!   contractions per pass.

use mincut_ds::PqKind;
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::contracted::Contracted;
use crate::error::MinCutError;
use crate::stats::SolveContext;
use crate::MinCutResult;

/// Parameters of one NOI run, filled in by the registry's NOI solvers
/// and by VieCut's exact remainder solve.
pub(crate) struct NoiParams {
    /// Which priority queue to use.
    pub pq: PqKind,
    /// Cap queue priorities at λ̂ (the paper's central optimisation).
    pub bounded: bool,
    /// Optional initial bound (value and witness side over g's vertices),
    /// typically the VieCut result. The value must be the value of an
    /// actual cut of `g`; otherwise correctness is lost.
    pub initial_bound: Option<(EdgeWeight, Option<Vec<bool>>)>,
    /// Track and return the cut side.
    pub compute_side: bool,
    /// Seed for the random start vertex of each pass.
    pub seed: u64,
}

/// Exact minimum cut via NOI, feeding per-round telemetry (λ̂
/// trajectory, contraction counts, rescue phases) into the
/// [`SolveContext`] and honoring its time budget between rounds. The
/// input must be connected with n ≥ 2 (the session preflight
/// guarantees both).
pub(crate) fn noi_minimum_cut_connected(
    g: &CsrGraph,
    cfg: NoiParams,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Initial bound: minimum weighted degree (the trivial cut), possibly
    // beaten by a supplied bound (VieCut).
    let mut k = Contracted::new(g, cfg.compute_side);
    if let Some((value, side)) = cfg.initial_bound {
        k.adopt(value, side);
    }
    ctx.stats.record_lambda(k.lambda());

    let mut ws = ScanWorkspace::new();
    let mut labels_buf: Vec<NodeId> = Vec::new();
    while k.graph().n() > 2 {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let n = k.graph().n();
        let mut round_span = mincut_obs::span("noi/round");
        round_span.arg("round", ctx.stats.rounds);
        round_span.arg("n", n);
        round_span.arg("lambda_hat", k.lambda());
        let start = rng.gen_range(0..n as NodeId);
        let info = ws.scan(k.graph(), k.lambda(), start, cfg.pq, cfg.bounded);
        ctx.stats.add_pq_ops(ws.take_ops());

        // The best prefix cut found by the scan.
        if let Some(len) = info.best_prefix_len {
            k.offer(info.lambda_hat, &ws.order()[..len]);
            ctx.stats.record_lambda(k.lambda());
        }

        if info.unions == 0 {
            ctx.stats.sw_rescues += 1;
            round_span.arg("sw_rescue", true);
            k.sw_rescue(start, ws.uf_mut());
        }

        let blocks = ws.uf_mut().dense_labels_into(&mut labels_buf);
        debug_assert!(blocks < n, "every round must make progress");
        ctx.stats.contracted_vertices += (n - blocks) as u64;
        k.contract(&labels_buf, blocks);
        ctx.stats.record_lambda(k.lambda());
    }

    // Two vertices left: the remaining cut is both vertices' degree cut,
    // already covered by the minimum-degree offers of `Contracted`.
    Ok(k.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, SolveOptions};
    use mincut_graph::generators::known;

    /// Every NOI variant, by registry spelling.
    const VARIANTS: [&str; 4] = ["NOI-HNSS", "NOIλ̂-BStack", "NOIλ̂-BQueue", "NOIλ̂-Heap"];

    /// Runs `name` on `g` itself (no kernelization).
    fn run(g: &CsrGraph, name: &str, opts: SolveOptions) -> MinCutResult {
        Session::new(g)
            .options(opts.no_reductions())
            .run(name)
            .unwrap()
            .cut
    }

    fn check_all(g: &CsrGraph, expected: EdgeWeight) {
        for name in VARIANTS {
            let r = run(g, name, SolveOptions::new());
            assert_eq!(r.value, expected, "value mismatch for {name}");
            let side = r.side.expect("witness requested");
            assert!(g.is_proper_cut(&side), "improper witness for {name}");
            assert_eq!(g.cut_value(&side), expected, "witness mismatch for {name}");
        }
    }

    #[test]
    fn known_families_all_variants() {
        check_all(&known::path_graph(9, 2).0, 2);
        check_all(&known::cycle_graph(11, 3).0, 6);
        check_all(&known::complete_graph(8, 1).0, 7);
        check_all(&known::star_graph(7, 5).0, 5);
        check_all(&known::grid_graph(4, 6, 2).0, 4);
        let (g, l) = known::two_communities(7, 5, 2, 3, 1);
        check_all(&g, l);
        let (g, l) = known::ring_of_cliques(5, 4, 3, 1);
        check_all(&g, l);
        let (g, l) = known::barbell(8, 8, 2, 5);
        check_all(&g, l);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for trial in 0..40 {
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
            let g = CsrGraph::from_edges(n, &edges);
            let expected = known::brute_force_mincut(&g);
            check_all(&g, expected);
            let _ = trial;
        }
    }

    #[test]
    fn loose_initial_bound_does_not_change_result() {
        // An honest but loose initial bound (a trivial cut worse than the
        // minimum-degree cut) must not change the result.
        let (g, l) = known::two_communities(6, 6, 1, 2, 1);
        let mut side0 = vec![false; g.n()];
        side0[0] = true;
        let opts = SolveOptions::new().initial_bound(g.cut_value(&side0), Some(side0));
        let r = run(&g, "NOIλ̂-Heap", opts);
        assert_eq!(r.value, l);
        assert_eq!(g.cut_value(&r.side.unwrap()), l);
    }

    #[test]
    fn tight_initial_bound_short_circuits_correctly() {
        // Bound exactly λ with a witness: the result must keep value λ and
        // return a valid witness (possibly the provided one).
        let (g, l) = known::two_communities(6, 6, 2, 2, 1);
        // Construct the true witness: first clique on one side.
        let mut side = vec![false; g.n()];
        side[..6].fill(true);
        assert_eq!(g.cut_value(&side), l);
        let r = run(
            &g,
            "NOIλ̂-BQueue",
            SolveOptions::new().initial_bound(l, Some(side)),
        );
        assert_eq!(r.value, l);
        assert_eq!(g.cut_value(&r.side.unwrap()), l);
    }

    #[test]
    fn no_side_mode() {
        let (g, l) = known::cycle_graph(20, 2);
        let r = run(&g, "NOIλ̂-BStack", SolveOptions::new().witness(false));
        assert_eq!(r.value, l);
        assert!(r.side.is_none());
    }

    #[test]
    fn weighted_heavy_graph_uses_heap_fallback() {
        // Bound above MAX_BUCKET_BOUND forces the per-pass heap fallback.
        let (g, l) = known::two_communities(5, 5, 1, 1 << 30, 1 << 27);
        let r = run(&g, "NOIλ̂-BStack", SolveOptions::new());
        assert_eq!(r.value, l);
    }
}
