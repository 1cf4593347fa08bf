//! Algorithm 2 of the paper: the full shared-memory parallel exact
//! minimum-cut solver (**ParCut**).
//!
//! ```text
//! λ̂ ← VieCut(G); G_C ← G
//! while G_C has more than 2 vertices:
//!     λ̂ ← Parallel CAPFOREST(G_C, λ̂)
//!     if no edges marked contractible:
//!         λ̂ ← CAPFOREST(G_C, λ̂)          (sequential rescue)
//!     G_C, λ̂ ← Parallel Graph Contract(G_C)
//! return λ̂
//! ```
//!
//! Early-terminating parallel scans cannot guarantee a marked edge
//! (§3.2: in the paper's experiments this only happens on graphs with
//! < 50 vertices); the rescue path runs one sequential CAPFOREST and, if
//! even that marks nothing (possible with a bounded queue), one
//! Stoer–Wagner phase, which always makes progress. G_C, λ̂ and the
//! witness live in the contraction state every round loop shares
//! (`crate::contracted`), which borrows G until the first contraction.

use mincut_ds::PqKind;
use mincut_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::contracted::Contracted;
use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::parallel::capforest::{parallel_capforest, ParWorkerPool};
use crate::stats::SolveContext;
use crate::viecut::viecut_connected;
use crate::MinCutResult;

/// ParCut on a connected graph with n ≥ 2 (the session preflight
/// guarantees both). Every worker scans with queue `pq`; seed and
/// witness tracking come from `opts`, the worker count from `ctx`
/// (like every parallel layer underneath). Records two phases: `viecut`
/// (the initial bound, §3.3) and `parcut` (the round loop), honoring
/// the time budget between rounds.
pub(crate) fn parallel_minimum_cut_connected(
    g: &CsrGraph,
    opts: &SolveOptions,
    pq: PqKind,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let (threads, seed, compute_side) = (ctx.threads, opts.seed, opts.witness);
    assert!(threads >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);

    // Initial bound: trivial degree cut, then VieCut (§3.1.1).
    let vc = ctx.time_phase("viecut", |inner| {
        viecut_connected(g, seed, compute_side, inner)
    })?;

    ctx.time_phase("parcut", |ctx| {
        let mut k = Contracted::new(g, compute_side);
        k.adopt(vc.value, vc.side);
        ctx.stats.record_lambda(k.lambda());
        let mut pool = ParWorkerPool::new();
        let mut rescue_ws = ScanWorkspace::new();

        while k.graph().n() > 2 {
            ctx.check_budget()?;
            ctx.stats.rounds += 1;
            let n = k.graph().n();
            let mut round_span = mincut_obs::span("parcut/round");
            round_span.arg("round", ctx.stats.rounds);
            round_span.arg("n", n);
            round_span.arg("lambda_hat", k.lambda());
            round_span.arg("threads", threads);
            let out = parallel_capforest(k.graph(), k.lambda(), threads, seed, pq, &mut pool);
            ctx.stats.add_pq_ops(out.pq_ops);
            if let Some(prefix) = &out.best_prefix {
                k.offer(out.lambda_hat, prefix);
                ctx.stats.record_lambda(k.lambda());
            }
            let cuf = out.cuf;

            let (labels, blocks) = if cuf.count() < n {
                cuf.dense_labels()
            } else {
                // Rescue 1: one sequential CAPFOREST pass (Algorithm 2 line 5).
                let start = rng.gen_range(0..n as NodeId);
                let seq = rescue_ws.scan(k.graph(), k.lambda(), start, PqKind::Heap, true);
                ctx.stats.add_pq_ops(rescue_ws.take_ops());
                if let Some(len) = seq.best_prefix_len {
                    k.offer(seq.lambda_hat, &rescue_ws.order()[..len]);
                    ctx.stats.record_lambda(k.lambda());
                }
                if seq.unions == 0 {
                    // Rescue 2: a Stoer–Wagner phase always contracts safely.
                    ctx.stats.sw_rescues += 1;
                    k.sw_rescue(start, rescue_ws.uf_mut());
                }
                rescue_ws.uf_mut().dense_labels()
            };

            debug_assert!(blocks < n, "every round must make progress");
            ctx.stats.contracted_vertices += (n - blocks) as u64;
            k.contract(&labels, blocks);
            ctx.stats.record_lambda(k.lambda());
        }

        Ok(k.into_result())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use mincut_graph::generators::known;
    use mincut_graph::EdgeWeight;

    /// Runs `name` on `g` itself (no kernelization).
    fn run(g: &CsrGraph, name: &str, opts: SolveOptions) -> MinCutResult {
        Session::new(g)
            .options(opts.no_reductions())
            .run(name)
            .unwrap()
            .cut
    }

    fn check_all(g: &CsrGraph, expected: EdgeWeight, threads: usize) {
        for pq in PqKind::ALL {
            let name = format!("ParCutλ̂-{pq}");
            let r = run(g, &name, SolveOptions::new().threads(threads).seed(99));
            assert_eq!(r.value, expected, "value mismatch for {name}");
            let side = r.side.expect("witness requested");
            assert!(g.is_proper_cut(&side));
            assert_eq!(g.cut_value(&side), expected, "witness mismatch for {name}");
        }
    }

    #[test]
    fn known_families_single_thread() {
        check_all(&known::cycle_graph(12, 3).0, 6, 1);
        check_all(&known::grid_graph(5, 5, 1).0, 2, 1);
        let (g, l) = known::two_communities(8, 6, 2, 3, 1);
        check_all(&g, l, 1);
    }

    #[test]
    fn known_families_multi_thread() {
        let (g, l) = known::ring_of_cliques(6, 5, 3, 1);
        check_all(&g, l, 4);
        let (g, l) = known::two_communities(15, 15, 3, 2, 1);
        check_all(&g, l, 4);
        check_all(&known::grid_graph(8, 8, 2).0, 4, 4);
    }

    #[test]
    fn matches_sequential_noi_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(31337);
        for trial in 0..15 {
            let n = rng.gen_range(20..60);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..5)));
            }
            for _ in 0..3 * n {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let seq = run(&g, "NOIλ̂-Heap", SolveOptions::new());
            for threads in [1, 2, 4] {
                let opts = SolveOptions::new().threads(threads).seed(trial);
                let par = run(&g, "ParCutλ̂-BQueue", opts);
                assert_eq!(par.value, seq.value, "trial {trial}, {threads} threads");
                assert_eq!(g.cut_value(&par.side.unwrap()), par.value);
            }
        }
    }

    #[test]
    fn tiny_graph() {
        let g = CsrGraph::from_edges(2, &[(0, 1, 9)]);
        assert_eq!(run(&g, "parcut", SolveOptions::new()).value, 9);
    }
}
