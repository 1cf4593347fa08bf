//! Output-sensitive enumeration of every minimum cut of a graph.
//!
//! The contraction scheme behind [`all_min_cuts`]: pick any edge
//! `{u, v}` of the current (contracted) graph. Every minimum cut either
//! separates `u` from `v` or it does not. The separating ones are
//! exactly the minimum u-v cuts *when* `maxflow(u, v) = λ` — all of
//! them fall out of the residual closed sets of one max flow
//! ([`mincut_flow::MaxFlowResult::min_cut_sides`]). The non-separating
//! ones survive the contraction `G/{u,v}` untouched, so the loop
//! contracts the pair (through the shared [`ContractionEngine`], with a
//! [`Membership`] folding the rounds back to original vertices) and
//! repeats on a graph one vertex smaller. n−1 max flows, each cut
//! reported at exactly one level — no deduplication needed — and the
//! whole family is bounded by the Dinitz–Karzanov–Lomonosov theorem at
//! n(n−1)/2 cuts, which the loop asserts.

use mincut_flow::max_flow;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership};

/// Enumerates every minimum cut of `g` (which must have λ(g) = `lambda`
/// with `lambda > 0`, i.e. be connected), as side bitmaps over the
/// original vertices canonicalised to `side[0] == false`, sorted. The
/// λ = 0 family — the power set of the components — is represented
/// structurally by the [`Cactus`](super::Cactus) instead of enumerated.
pub fn all_min_cuts(g: &CsrGraph, lambda: EdgeWeight) -> Vec<Vec<bool>> {
    let n = g.n();
    assert!(n >= 2, "cut enumeration needs two vertices");
    assert!(lambda > 0, "λ = 0 families are not explicitly enumerable");
    let bound = n * (n - 1) / 2;
    let mut cuts: Vec<Vec<bool>> = Vec::new();
    let mut engine = ContractionEngine::new();
    let mut membership = Membership::identity(n);
    let mut cur = g.clone();
    while cur.n() > 1 {
        let (u, v, _) = cur
            .edges()
            .next()
            .expect("a λ > 0 graph stays connected under contraction");
        let flow = max_flow(&cur, u, v);
        debug_assert!(flow.value >= lambda, "u-v flow below the global minimum");
        if flow.value == lambda {
            let budget = bound + 1 - cuts.len();
            let (sides, truncated) = flow.min_cut_sides(budget);
            assert!(
                !truncated && cuts.len() + sides.len() <= bound,
                "more than n(n-1)/2 minimum cuts — DKL bound violated"
            );
            for side in sides {
                let mut orig = membership.side_of_bitmap(&side);
                debug_assert_eq!(g.cut_value(&orig), lambda);
                if orig[0] {
                    for b in &mut orig {
                        *b = !*b;
                    }
                }
                cuts.push(orig);
            }
        }
        let next = engine.contract_edge_tracked(&cur, u, v, &mut membership);
        engine.recycle(std::mem::replace(&mut cur, next));
    }
    cuts.sort();
    debug_assert!(cuts.windows(2).all(|w| w[0] != w[1]), "duplicate cut");
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mincut_graph::generators::known;

    #[test]
    fn matches_brute_force_on_known_families() {
        for (g, l) in [
            known::path_graph(5, 2),
            known::cycle_graph(6, 1),
            known::complete_graph(5, 1),
            known::star_graph(6, 3),
            known::grid_graph(3, 3, 1),
            known::two_communities(4, 5, 1, 2, 1),
        ] {
            let (bl, bsides) = known::brute_force_all_min_cuts(&g);
            assert_eq!(bl, l);
            assert_eq!(all_min_cuts(&g, l), bsides, "n={}", g.n());
        }
    }

    #[test]
    fn cycle_has_quadratically_many_cuts() {
        for n in 3..=8 {
            let (g, l) = known::cycle_graph(n, 3);
            assert_eq!(all_min_cuts(&g, l).len(), n * (n - 1) / 2, "C_{n}");
        }
    }
}
