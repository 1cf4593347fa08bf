//! Matula's (2+ε)-approximation of the minimum cut.
//!
//! Matula observed that running the Nagamochi–Ono–Ibaraki contraction with
//! the *scaled-down* threshold σ = δ/(2+ε) — instead of the exact bound
//! λ̂ — contracts so many edges per pass that the whole algorithm finishes
//! in linear time, while the best minimum degree seen across the passes is
//! at most (2+ε)·λ. The paper names applying its sequential and parallel
//! optimisations to this algorithm as future work (§5); this module is
//! that extension: it reuses the bounded CAPFOREST machinery (and
//! therefore any of the three priority queues).

use mincut_ds::PqKind;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::stats::SolveContext;
use crate::stoer_wagner::stoer_wagner_phase;
use crate::MinCutResult;

/// (2+ε)-approximate minimum cut in near-linear time on a connected
/// graph with n ≥ 2 (the session preflight guarantees both). The
/// returned value is always an actual cut of `g` with value ≤ (2+ε)·λ(G).
/// The scan passes use queue `pq` (the future-work extension of §5: the
/// paper's queue optimisations applied to Matula's algorithm); ε, seed
/// and witness tracking come from `opts`. Records per-pass telemetry and
/// honors the time budget between passes.
pub(crate) fn matula_approx_connected(
    g: &CsrGraph,
    opts: &SolveOptions,
    pq: PqKind,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let (epsilon, compute_side) = (opts.epsilon, opts.witness);
    assert!(epsilon > 0.0, "epsilon must be positive");
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut engine = ContractionEngine::new();
    let mut ws = ScanWorkspace::new();
    let mut labels_buf: Vec<NodeId> = Vec::new();
    let mut current = g.clone();
    // Witness bookkeeping only when a side is requested (as in NOI).
    let mut membership = Membership::identity(if compute_side { g.n() } else { 0 });
    let mut best = EdgeWeight::MAX;
    let mut best_side: Option<Vec<bool>> = None;

    while current.n() >= 2 {
        ctx.check_budget()?;
        // The trivial cut of the current graph is the approximation anchor.
        let (dv, delta) = current.min_weighted_degree().expect("n >= 2");
        if delta < best {
            best = delta;
            ctx.stats.record_lambda(best);
            if compute_side {
                best_side = Some(membership.side_of_vertices(&[dv]));
            }
        }
        if current.n() == 2 {
            break;
        }
        ctx.stats.rounds += 1;
        // Scaled threshold: contract everything certified ≥ δ/(2+ε).
        // Integer connectivities mean `q(e) ≥ δ/(2+ε)` is equivalent to
        // `q(e) ≥ ⌈δ/(2+ε)⌉`; rounding *down* here would contract edges
        // below the real threshold and void the guarantee (a destroyed
        // minimum cut must satisfy λ ≥ δ/(2+ε), which is what bounds the
        // answer δ ≤ (2+ε)·λ).
        let sigma = ((delta as f64) / (2.0 + epsilon)).ceil() as EdgeWeight;
        let sigma = sigma.max(1);
        let start = rng.gen_range(0..current.n() as NodeId);
        let info = ws.scan(&current, sigma, start, pq, true);
        ctx.stats.add_pq_ops(ws.take_ops());
        // Prefix cuts seen by the scan are real cuts; they can only help.
        // (info.lambda_hat below σ without a witness never happens, but
        // info.lambda_hat == σ < best is NOT an improvement — σ is a
        // threshold, not a cut.)
        if let Some(len) = info.best_prefix_len {
            if info.lambda_hat < best {
                best = info.lambda_hat;
                ctx.stats.record_lambda(best);
                if compute_side {
                    best_side = Some(membership.side_of_vertices(&ws.order()[..len]));
                }
            }
        }
        if info.unions == 0 {
            // Degenerate weighted corner (σ can sit below every crossing
            // point): a Stoer–Wagner phase guarantees progress and its
            // phase cut keeps the approximation anchored.
            ctx.stats.sw_rescues += 1;
            let phase = stoer_wagner_phase(&current, start);
            if phase.cut_of_phase < best {
                best = phase.cut_of_phase;
                ctx.stats.record_lambda(best);
                if compute_side {
                    best_side = Some(membership.side_of_vertices(&[phase.t]));
                }
            }
            ws.uf_mut().union(phase.s, phase.t);
        }
        let blocks = ws.uf_mut().dense_labels_into(&mut labels_buf);
        ctx.stats.contracted_vertices += (current.n() - blocks) as u64;
        let next = if compute_side {
            engine.contract_tracked(&current, &labels_buf, blocks, &mut membership)
        } else {
            engine.contract(&current, &labels_buf, blocks)
        };
        ctx.stats.record_contraction_path(engine.last_path());
        engine.recycle(std::mem::replace(&mut current, next));
    }

    Ok(MinCutResult {
        value: best,
        side: best_side,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use mincut_graph::generators::known;

    /// Runs Matula with queue `pq` on `g` itself (no kernelization).
    fn matula(g: &CsrGraph, pq: PqKind, epsilon: f64) -> MinCutResult {
        Session::new(g)
            .options(SolveOptions::new().epsilon(epsilon).no_reductions())
            .run(&format!("matula-{pq}"))
            .unwrap()
            .cut
    }

    #[test]
    fn every_queue_kind_scans_and_respects_the_guarantee() {
        // Regression: the scan used to hardcode the binary heap and
        // silently ignore the requested queue.
        let (g, l) = known::two_communities(10, 11, 2, 2, 1);
        for pq in PqKind::ALL {
            let r = matula(&g, pq, 0.5);
            assert!(r.value >= l, "{pq}");
            let bound = ((2.0 + 0.5) * l as f64).floor() as EdgeWeight;
            assert!(r.value <= bound, "{pq}: (2+ε) violated");
            let side = r.side.unwrap();
            assert!(
                g.is_proper_cut(&side) && g.cut_value(&side) == r.value,
                "{pq}"
            );
        }
    }

    fn check_approx(g: &CsrGraph, lambda: EdgeWeight, epsilon: f64) {
        let r = matula(g, PqKind::Heap, epsilon);
        assert!(r.value >= lambda, "approximation may not undershoot λ");
        let bound = ((2.0 + epsilon) * lambda as f64).floor() as EdgeWeight;
        assert!(
            r.value <= bound,
            "(2+ε) guarantee violated: {} > {bound} (λ = {lambda})",
            r.value
        );
        let side = r.side.unwrap();
        assert!(g.is_proper_cut(&side));
        assert_eq!(g.cut_value(&side), r.value);
    }

    #[test]
    fn guarantee_on_known_families() {
        check_approx(&known::cycle_graph(50, 2).0, 4, 0.5);
        check_approx(&known::grid_graph(10, 10, 1).0, 2, 0.5);
        check_approx(&known::complete_graph(12, 1).0, 11, 1.0);
        let (g, l) = known::two_communities(12, 12, 2, 2, 1);
        check_approx(&g, l, 0.25);
        let (g, l) = known::ring_of_cliques(6, 5, 2, 1);
        check_approx(&g, l, 0.5);
    }

    #[test]
    fn guarantee_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(55);
        for _ in 0..25 {
            let n = rng.gen_range(4..10);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..6)));
            }
            for _ in 0..rng.gen_range(0..12) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..6)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let lambda = known::brute_force_mincut(&g);
            check_approx(&g, lambda, 0.5);
        }
    }

    #[test]
    fn often_finds_exact_cut_on_community_graphs() {
        // Not guaranteed, but documents typical behaviour the paper notes
        // for bound-driven contraction on clustered inputs.
        let (g, l) = known::barbell(10, 10, 2, 3);
        let r = matula(&g, PqKind::Heap, 0.5);
        assert!(r.value <= 2 * l);
    }
}
