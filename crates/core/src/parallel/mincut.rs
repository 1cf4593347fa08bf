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
//! Stoer–Wagner phase, which always makes progress.

use mincut_ds::PqKind;
use mincut_graph::{ContractionEngine, CsrGraph, Membership, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::capforest::ScanWorkspace;
use crate::error::MinCutError;
use crate::options::SolveOptions;
use crate::parallel::capforest::{parallel_capforest, ParWorkerPool};
use crate::stats::SolveContext;
use crate::stoer_wagner::stoer_wagner_phase;
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
    let (dv, ddeg) = g.min_weighted_degree().expect("n >= 2");
    let mut lambda = ddeg;
    let mut best_side = compute_side.then(|| {
        let mut s = vec![false; g.n()];
        s[dv as usize] = true;
        s
    });
    let vc = ctx.time_phase("viecut", |inner| {
        viecut_connected(g, seed, compute_side, inner)
    })?;
    if vc.value < lambda {
        lambda = vc.value;
        if compute_side {
            best_side = Some(vc.side.expect("requested"));
        }
    }
    ctx.stats.record_lambda(lambda);

    ctx.time_phase("parcut", |ctx| {
        let mut engine = ContractionEngine::new(threads);
        let mut pool = ParWorkerPool::new();
        let mut rescue_ws = ScanWorkspace::new();
        let mut current = g.clone();
        // Witness bookkeeping only when a side is requested (as in NOI).
        let mut membership = Membership::identity(if compute_side { g.n() } else { 0 });

        while current.n() > 2 {
            ctx.check_budget()?;
            ctx.stats.rounds += 1;
            let mut round_span = mincut_obs::span("parcut/round");
            round_span.arg("round", ctx.stats.rounds);
            round_span.arg("n", current.n());
            round_span.arg("lambda_hat", lambda);
            round_span.arg("threads", threads);
            let out = parallel_capforest(&current, lambda, threads, seed, pq, &mut pool);
            ctx.stats.add_pq_ops(out.pq_ops);
            if out.lambda_hat < lambda {
                lambda = out.lambda_hat;
                ctx.stats.record_lambda(lambda);
                if compute_side {
                    let prefix = out.best_prefix.as_deref().expect("improvement has witness");
                    best_side = Some(membership.side_of_vertices(prefix));
                }
            }
            let cuf = out.cuf;

            let (labels, blocks) = if cuf.count() < current.n() {
                cuf.dense_labels()
            } else {
                // Rescue 1: one sequential CAPFOREST pass (Algorithm 2 line 5).
                let start = rng.gen_range(0..current.n() as NodeId);
                let seq = rescue_ws.scan(&current, lambda, start, PqKind::Heap, true);
                ctx.stats.add_pq_ops(rescue_ws.take_ops());
                if seq.lambda_hat < lambda {
                    lambda = seq.lambda_hat;
                    ctx.stats.record_lambda(lambda);
                    if compute_side {
                        let len = seq.best_prefix_len.expect("improvement has witness");
                        best_side = Some(membership.side_of_vertices(&rescue_ws.order()[..len]));
                    }
                }
                if seq.unions == 0 {
                    // Rescue 2: a Stoer–Wagner phase always contracts safely.
                    ctx.stats.sw_rescues += 1;
                    let phase = stoer_wagner_phase(&current, start);
                    if phase.cut_of_phase < lambda {
                        lambda = phase.cut_of_phase;
                        ctx.stats.record_lambda(lambda);
                        if compute_side {
                            best_side = Some(membership.side_of_vertices(&[phase.t]));
                        }
                    }
                    rescue_ws.uf_mut().union(phase.s, phase.t);
                }
                rescue_ws.uf_mut().dense_labels()
            };

            debug_assert!(blocks < current.n(), "every round must make progress");
            ctx.stats.contracted_vertices += (current.n() - blocks) as u64;
            let next = if compute_side {
                engine.contract_tracked(&current, &labels, blocks, &mut membership)
            } else {
                engine.contract(&current, &labels, blocks)
            };
            ctx.stats.record_contraction_path(engine.last_path());
            round_span.arg_display("path", engine.last_path());
            engine.recycle(std::mem::replace(&mut current, next));

            // Trivial cuts of the collapsed graph (§3.2).
            if let Some((v, d)) = current.min_weighted_degree() {
                if current.n() >= 2 && d < lambda {
                    lambda = d;
                    ctx.stats.record_lambda(lambda);
                    if compute_side {
                        best_side = Some(membership.side_of_vertices(&[v]));
                    }
                }
            }
        }

        Ok(MinCutResult {
            value: lambda,
            side: best_side,
        })
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
