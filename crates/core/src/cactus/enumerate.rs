//! Output-sensitive enumeration of every minimum cut of a graph.
//!
//! [`all_min_cuts`] runs in two stages over one [`ContractionEngine`],
//! with one [`Membership`] folding every round back to original
//! vertices.
//!
//! **Kernel.** A CAPFOREST pass at the fixed bound λ + 1
//! ([`capforest_fixed`](crate::capforest::capforest_fixed)) unites only
//! pairs that are more than
//! λ-connected. No minimum cut separates such a pair, so contracting the
//! united blocks keeps every minimum cut, and it creates none, since
//! contraction never lowers a cut value. The passes repeat on the
//! contracted graph until one unites nothing. On the paper's RHG
//! families the kernel has two vertices; Henzinger, Noe, Schulz and
//! Strash ("Finding All Global Minimum Cuts in Practice", ESA 2020)
//! build their cactus on the same kind of kernel.
//!
//! **Enumeration.** Pick any edge `{u, v}` of the current (contracted)
//! graph. Every minimum cut either separates `u` from `v` or it does
//! not. The separating ones are exactly the minimum u-v cuts *when*
//! `maxflow(u, v) = λ` — all of them fall out of the residual closed
//! sets of one max flow
//! ([`mincut_flow::MaxFlowResult::min_cut_sides`]). The non-separating
//! ones survive the contraction `G/{u,v}` untouched, so the loop
//! contracts the pair and repeats on a graph one vertex smaller. That
//! is (kernel n) − 1 max flows, all in one [`FlowEngine`]'s buffers,
//! each cut reported at exactly one level — no deduplication needed —
//! and the whole family is bounded by the Dinitz–Karzanov–Lomonosov
//! theorem at n(n−1)/2 cuts, which the loop checks.
//!
//! A λ that is not the graph's minimum cut value is caught on the way:
//! a λ below it collapses the kernel to one vertex, a λ above it meets a
//! cheaper u-v flow, and a λ > 0 on a disconnected graph runs out of
//! edges to contract. Each is a [`MinCutError::InvalidOptions`].

use mincut_flow::FlowEngine;
use mincut_graph::{ContractionEngine, CsrGraph, EdgeWeight, Membership};

use crate::capforest::ScanWorkspace;
use crate::error::MinCutError;

/// Enumerates every minimum cut of `g`, which must have λ(g) = `lambda`
/// with `lambda > 0` (so be connected), as side bitmaps over the
/// original vertices canonicalised to `side[0] == false`, sorted, next
/// to the number of vertices of the kernel the flows ran on. The λ = 0
/// family — the power set of the components — is represented
/// structurally by the [`Cactus`](super::Cactus) instead of enumerated.
///
/// Errors with [`MinCutError::InvalidOptions`] when `lambda` is not
/// λ(g) (see the module docs).
pub fn all_min_cuts(
    g: &CsrGraph,
    lambda: EdgeWeight,
) -> Result<(Vec<Vec<bool>>, usize), MinCutError> {
    let n = g.n();
    assert!(n >= 2, "cut enumeration needs two vertices");
    assert!(lambda > 0, "λ = 0 families are not explicitly enumerable");
    let wrong = |why: String| MinCutError::InvalidOptions {
        message: format!("λ = {lambda} is not the minimum cut value of the graph: {why}"),
    };
    let mut engine = ContractionEngine::new();
    let mut membership = Membership::identity(n);
    let mut cur = kernel(g, lambda, &mut engine, &mut membership);
    let kernel_n = cur.n();
    if kernel_n < 2 {
        return Err(wrong(
            "every pair of vertices is more than λ-connected".into(),
        ));
    }
    let bound = n * (n - 1) / 2;
    let mut cuts: Vec<Vec<bool>> = Vec::new();
    let mut flows = FlowEngine::new();
    while cur.n() > 1 {
        let Some((u, v, _)) = cur.edges().next() else {
            return Err(wrong("the graph is disconnected".into()));
        };
        let flow = flows.max_flow(&cur, u, v);
        if flow.value < lambda {
            return Err(wrong(format!("a cut of value {} exists", flow.value)));
        }
        if flow.value == lambda {
            let budget = bound + 1 - cuts.len();
            let (sides, truncated) = flow.min_cut_sides(budget);
            if truncated || cuts.len() + sides.len() > bound {
                return Err(wrong("more than n(n−1)/2 cuts have value λ".into()));
            }
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
        flows.recycle(flow);
        let next = engine.contract_edge_tracked(&cur, u, v, &mut membership);
        engine.recycle(std::mem::replace(&mut cur, next));
    }
    if cuts.is_empty() {
        return Err(wrong("no cut has value λ".into()));
    }
    cuts.sort();
    debug_assert!(cuts.windows(2).all(|w| w[0] != w[1]), "duplicate cut");
    Ok((cuts, kernel_n))
}

/// Contracts `g` to its λ + 1 kernel: a fixed-bound CAPFOREST pass,
/// then a contraction of the blocks it united, until a pass unites
/// nothing.
fn kernel(
    g: &CsrGraph,
    lambda: EdgeWeight,
    engine: &mut ContractionEngine,
    membership: &mut Membership,
) -> CsrGraph {
    let Some(bound) = lambda.checked_add(1) else {
        return g.clone(); // no bound above λ to certify
    };
    let mut ws = ScanWorkspace::new();
    let mut labels = Vec::new();
    let mut cur: Option<CsrGraph> = None;
    loop {
        let graph = cur.as_ref().unwrap_or(g);
        if ws.scan_fixed(graph, bound, 0).unions == 0 {
            break;
        }
        let blocks = ws.uf_mut().dense_labels_into(&mut labels);
        let next = engine.contract_tracked(graph, &labels, blocks, membership);
        if let Some(old) = cur.replace(next) {
            engine.recycle(old);
        }
    }
    cur.unwrap_or_else(|| g.clone())
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
            assert_eq!(all_min_cuts(&g, l).unwrap().0, bsides, "n={}", g.n());
        }
    }

    #[test]
    fn cycle_has_quadratically_many_cuts() {
        for n in 3..=8 {
            let (g, l) = known::cycle_graph(n, 3);
            let (cuts, kernel_n) = all_min_cuts(&g, l).unwrap();
            assert_eq!(cuts.len(), n * (n - 1) / 2, "C_{n}");
            assert_eq!(kernel_n, n, "every edge of C_{n} is in a minimum cut");
        }
    }

    #[test]
    fn clustered_graphs_enumerate_on_a_smaller_kernel() {
        // Two 6-cliques (weight 2) joined by one unit bridge: the
        // cliques are 10-connected, so each collapses to one vertex.
        let (g, l) = known::two_communities(6, 6, 1, 2, 1);
        let (cuts, kernel_n) = all_min_cuts(&g, l).unwrap();
        assert_eq!(cuts, known::brute_force_all_min_cuts(&g).1);
        assert_eq!(kernel_n, 2);
        // A ring of five 4-cliques: one kernel vertex per clique.
        let (g, l) = known::ring_of_cliques(5, 4, 3, 1);
        let (cuts, kernel_n) = all_min_cuts(&g, l).unwrap();
        assert_eq!(cuts, known::brute_force_all_min_cuts(&g).1);
        assert_eq!(kernel_n, 5);
    }
}
