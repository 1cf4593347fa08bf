//! The Stoer–Wagner minimum cut algorithm.
//!
//! The simpler cousin of Nagamochi–Ono–Ibaraki (§2.2 of the paper): each
//! *phase* computes a maximum-adjacency order; the last vertex `t`'s
//! weighted degree is the *cut of the phase* (a valid cut isolating `t`),
//! and the last two vertices `s, t` are guaranteed to have
//! λ(G, s, t) = cut-of-the-phase, so contracting them preserves every
//! other cut. n−1 phases give the minimum.
//!
//! The paper shows this algorithm is far slower in practice than NOI
//! (experiments of Jünger et al.), so here it serves two roles: a
//! comparator, and — one phase at a time — the *guaranteed-progress
//! fallback* used by the NOI and ParCut drivers when a (bounded /
//! early-terminated) CAPFOREST pass marks no edge (§3.3, Algorithm 2
//! lines 4–6 use plain CAPFOREST; a Stoer–Wagner phase is the classical
//! equivalent with an unconditional guarantee).

use mincut_ds::{BinaryHeapPq, MaxPq};
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership, NodeId};

use crate::error::MinCutError;
use crate::stats::SolveContext;
use crate::MinCutResult;

/// Result of one maximum-adjacency phase. Public (doc-hidden) so the
/// `hotpath` bench baseline can reconstruct the pre-rewrite NOI loop,
/// rescue phase included; not part of the supported API surface.
#[doc(hidden)]
pub struct SwPhase {
    /// Second-to-last vertex of the order.
    pub s: NodeId,
    /// Last vertex of the order; `cut_of_phase` isolates it.
    pub t: NodeId,
    /// Weighted degree of `t` = λ(G, s, t).
    pub cut_of_phase: EdgeWeight,
}

/// Runs one maximum-adjacency phase from `start`. Requires a connected
/// graph with at least two vertices (callers contract components away).
/// Public (doc-hidden) for the `hotpath` bench baseline only.
#[doc(hidden)]
pub fn stoer_wagner_phase(g: &CsrGraph, start: NodeId) -> SwPhase {
    let n = g.n();
    debug_assert!(n >= 2);
    let mut q = BinaryHeapPq::new();
    q.reset(n, u64::MAX);
    let mut visited = vec![false; n];
    q.push(start, 0);
    let (mut s, mut t) = (start, start);
    let mut last_key = 0;
    let mut scanned = 0usize;
    while let Some((x, key)) = q.pop_max() {
        visited[x as usize] = true;
        scanned += 1;
        s = t;
        t = x;
        last_key = key;
        for (y, w) in g.arcs(x) {
            if !visited[y as usize] {
                if q.contains(y) {
                    q.raise(y, q.priority(y) + w);
                } else {
                    q.push(y, w);
                }
            }
        }
    }
    debug_assert_eq!(scanned, n, "phase requires a connected graph");
    debug_assert_eq!(last_key, g.weighted_degree(t));
    SwPhase {
        s,
        t,
        cut_of_phase: last_key,
    }
}

/// Full Stoer–Wagner minimum cut of a connected graph with n ≥ 2 (the
/// session preflight guarantees both). Feeds per-phase telemetry into
/// the [`SolveContext`] and honors its time budget between phases.
pub(crate) fn stoer_wagner_connected(
    g: &CsrGraph,
    ctx: &mut SolveContext<'_>,
) -> Result<MinCutResult, MinCutError> {
    let mut engine = ContractionEngine::new();
    let mut current = g.clone();
    let mut membership = Membership::identity(g.n());
    let mut best = EdgeWeight::MAX;
    let mut best_side: Option<Vec<bool>> = None;
    while current.n() >= 2 {
        ctx.check_budget()?;
        ctx.stats.rounds += 1;
        let phase = stoer_wagner_phase(&current, 0);
        if phase.cut_of_phase < best {
            best = phase.cut_of_phase;
            ctx.stats.record_lambda(best);
            best_side = Some(membership.side_of_vertices(&[phase.t]));
        }
        if current.n() == 2 {
            break;
        }
        ctx.stats.contracted_vertices += 1;
        let next = engine.contract_edge_tracked(&current, phase.s, phase.t, &mut membership);
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
    use crate::stats::SolverStats;
    use mincut_graph::generators::known;

    fn check(g: &CsrGraph, expected: EdgeWeight) {
        let mut stats = SolverStats::scratch();
        let r = stoer_wagner_connected(g, &mut SolveContext::new(&mut stats)).unwrap();
        assert_eq!(r.value, expected);
        let side = r.side.expect("witness");
        assert!(g.is_proper_cut(&side));
        assert_eq!(g.cut_value(&side), expected);
    }

    #[test]
    fn known_families() {
        check(&known::path_graph(6, 2).0, 2);
        check(&known::cycle_graph(8, 3).0, 6);
        check(&known::complete_graph(7, 2).0, 12);
        check(&known::grid_graph(3, 5, 1).0, 2);
        let (g, l) = known::two_communities(6, 4, 2, 3, 1);
        check(&g, l);
        let (g, l) = known::ring_of_cliques(5, 3, 4, 1);
        check(&g, l);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..50 {
            let n = rng.gen_range(3..9);
            let mut edges = Vec::new();
            for v in 1..n as NodeId {
                edges.push((rng.gen_range(0..v), v, rng.gen_range(1..7)));
            }
            for _ in 0..rng.gen_range(0..10) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..7)));
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            let expected = known::brute_force_mincut(&g);
            check(&g, expected);
            let _ = trial;
        }
    }

    #[test]
    fn phase_guarantee_on_triangle() {
        let g = CsrGraph::from_edges(3, &[(0, 1, 5), (1, 2, 1), (0, 2, 2)]);
        let p = stoer_wagner_phase(&g, 0);
        // λ(G, s, t) for the phase's last two vertices equals the phase cut.
        let (st_cut, _) = mincut_flow::min_st_cut(&g, p.s, p.t);
        assert_eq!(st_cut, p.cut_of_phase);
    }
}
