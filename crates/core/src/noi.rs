//! The exact minimum-cut driver of Nagamochi, Ono and Ibaraki, with the
//! paper's sequential optimisations (§3.1).
//!
//! Repeats: one CAPFOREST pass marks contractible edges → collapse the
//! marked blocks → tighten λ̂ with the trivial cuts of the contracted
//! graph → stop at two vertices. Variants:
//!
//! * **NOI-HNSS** — unbounded binary heap (the implementation of Henzinger
//!   et al. that the paper builds on);
//! * **NOIλ̂-Heap / NOIλ̂-BStack / NOIλ̂-BQueue** — priorities capped at λ̂
//!   with the three queue implementations of §3.1.3;
//! * **…-VieCut** — seed λ̂ with the result of the inexact VieCut algorithm
//!   instead of the minimum-degree bound (§3.1.1), which unlocks far more
//!   contractions per pass.

use mincut_ds::PqKind;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::error::MinCutError;
use crate::stats::SolveContext;
use crate::stoer_wagner::stoer_wagner_phase;
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
    cfg: &NoiParams,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Initial bound: minimum weighted degree (the trivial cut), possibly
    // beaten by a supplied bound (VieCut).
    let (dv, ddeg) = g.min_weighted_degree().expect("n >= 2");
    let mut lambda: EdgeWeight = ddeg;
    let mut best_side: Option<Vec<bool>> = cfg.compute_side.then(|| {
        let mut side = vec![false; g.n()];
        side[dv as usize] = true;
        side
    });
    if let Some((b, bside)) = &cfg.initial_bound {
        if let Some(s) = bside {
            // The contract on `initial_bound`: the value must be the value
            // of an actual cut, or correctness is lost.
            debug_assert_eq!(
                g.cut_value(s),
                *b,
                "initial bound witness must match its value"
            );
        }
        if *b < lambda {
            lambda = *b;
            if cfg.compute_side {
                best_side = Some(bside.clone().unwrap_or_else(|| {
                    panic!("initial bound without witness while compute_side is on")
                }));
            }
        }
    }

    ctx.stats.record_lambda(lambda);

    let mut engine = ContractionEngine::new(ctx.threads);
    let mut ws = ScanWorkspace::new();
    let mut labels_buf: Vec<NodeId> = Vec::new();
    let mut current = g.clone();
    // Witness bookkeeping (per-round O(n) membership folding) is paid
    // only when a side is requested; value-only runs — how the paper
    // measures — skip it entirely.
    let mut membership = Membership::identity(if cfg.compute_side { g.n() } else { 0 });

    while current.n() > 2 {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let mut round_span = mincut_obs::span("noi/round");
        round_span.arg("round", ctx.stats.rounds);
        round_span.arg("n", current.n());
        round_span.arg("lambda_hat", lambda);
        let start = rng.gen_range(0..current.n() as NodeId);
        let info = ws.scan(&current, lambda, start, cfg.pq, cfg.bounded);
        ctx.stats.add_pq_ops(ws.take_ops());

        // Prefix cuts found by the scan.
        if info.lambda_hat < lambda {
            lambda = info.lambda_hat;
            ctx.stats.record_lambda(lambda);
            if cfg.compute_side {
                let len = info.best_prefix_len.expect("improvement implies witness");
                best_side = Some(membership.side_of_vertices(&ws.order()[..len]));
            }
        }

        if info.unions == 0 {
            // Bounded/parallel scans may come up empty (§3.2: "we can not
            // guarantee anymore that the algorithm actually finds a
            // contractible edge"). One Stoer–Wagner phase restores the
            // guarantee: its cut-of-phase is recorded and its last pair is
            // always safely contractible.
            ctx.stats.sw_rescues += 1;
            round_span.arg("sw_rescue", true);
            let phase = stoer_wagner_phase(&current, start);
            if phase.cut_of_phase < lambda {
                lambda = phase.cut_of_phase;
                ctx.stats.record_lambda(lambda);
                if cfg.compute_side {
                    best_side = Some(membership.side_of_vertices(&[phase.t]));
                }
            }
            ws.uf_mut().union(phase.s, phase.t);
        }

        let blocks = ws.uf_mut().dense_labels_into(&mut labels_buf);
        debug_assert!(blocks < current.n(), "every round must make progress");
        ctx.stats.contracted_vertices += (current.n() - blocks) as u64;
        let next = if cfg.compute_side {
            engine.contract_tracked(&current, &labels_buf, blocks, &mut membership)
        } else {
            engine.contract(&current, &labels_buf, blocks)
        };
        ctx.stats.record_contraction_path(engine.last_path());
        round_span.arg_display("path", engine.last_path());
        engine.recycle(std::mem::replace(&mut current, next));

        // Trivial cuts of the contracted graph (§3.2: "If the collapsed
        // graph G_C has a minimum degree of less than λ̂, we update λ̂").
        // A fully collapsed graph (n = 1) has no cuts at all.
        if let Some((v, d)) = current.min_weighted_degree() {
            if current.n() >= 2 && d < lambda {
                lambda = d;
                ctx.stats.record_lambda(lambda);
                if cfg.compute_side {
                    best_side = Some(membership.side_of_vertices(&[v]));
                }
            }
        }
    }

    // Two vertices left: the remaining cut is both vertices' degree cut,
    // already covered by the min-degree update above.
    Ok(MinCutResult {
        value: lambda,
        side: best_side,
    })
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
