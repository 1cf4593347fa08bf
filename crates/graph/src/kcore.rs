//! k-core decomposition (Batagelj & Zaversnik, O(m)).
//!
//! The paper prepares its real-world instances by taking k-cores "to
//! generate versions of the graphs with a minimum degree of k" and running
//! on the largest connected component (Appendix A.2). Core numbers are
//! computed on *unweighted* degrees, matching that setup.
//!
//! One bucket peel serves two callers. [`core_decomposition`] reads the
//! core numbers and the peel order off it. [`peel_prefix_cuts`] also sums,
//! while the peel visits a vertex's arcs, the weight of the arcs into the
//! vertices peeled before it: those vertices never move again, so the
//! value of every prefix cut along the order costs no second sweep over
//! the arcs.

use crate::components::largest_component;
use crate::{CsrGraph, EdgeWeight, NodeId};

/// Core number of every vertex: the largest k such that the vertex belongs
/// to the k-core (maximal subgraph with all degrees ≥ k).
///
/// Bucket-based peeling in O(n + m).
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    core_decomposition(g).0
}

/// Core numbers plus the peeling order itself: vertices in the
/// non-decreasing-degree order the Batagelj–Zaversnik peel removes them.
/// Loosely attached structure (satellite cliques, pendant trees) forms
/// contiguous prefixes of this order, which is what makes the prefix cuts
/// along it a useful degree-based λ̂ bound (see [`peel_prefix_cuts`]).
pub fn core_decomposition(g: &CsrGraph) -> (Vec<u32>, Vec<NodeId>) {
    let mut core = vec![0u32; g.n()];
    let order = peel(g, |v, k, _| core[v as usize] = k);
    (core, order)
}

/// The peel order of [`core_decomposition`] and the value of every prefix
/// cut along it, in one pass over the arcs: calls `visit(i, cut)` for
/// each position `i` in order, where `cut` is the weight of the edges
/// leaving `order[..=i]`. The last call (`i = n − 1`) reports 0, the
/// whole vertex set. Returns the order. The reduction pipeline's
/// `degree-bound` pass takes its best prefix as a λ̂ bound.
pub fn peel_prefix_cuts(g: &CsrGraph, mut visit: impl FnMut(usize, EdgeWeight)) -> Vec<NodeId> {
    let mut cut: EdgeWeight = 0;
    let mut i = 0;
    peel(g, |v, _, into_prefix| {
        // cut(P ∪ {v}) = cut(P) + c(v) − 2·w(v, P); never underflows
        // because w(v, P) ≤ cut(P) and w(v, P) ≤ c(v).
        cut += g.weighted_degree(v);
        cut -= 2 * into_prefix;
        visit(i, cut);
        i += 1;
    })
}

/// The Batagelj–Zaversnik bucket peel. Calls `visit(v, core, into_prefix)`
/// for every vertex in peel order, with its core number and the weight of
/// its arcs into the vertices peeled before it; returns the order.
///
/// `vert[..i]` holds the vertices already peeled: re-bucketing only swaps
/// positions after `i`, so they never move again, `vert` ends as the
/// peel order, and a neighbour `u` with `pos[u] < i` is in the prefix.
fn peel(g: &CsrGraph, mut visit: impl FnMut(NodeId, u32, EdgeWeight)) -> Vec<NodeId> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<u32> = (0..n as NodeId).map(|v| g.degree(v) as u32).collect();
    let max_deg = *degree.iter().max().unwrap() as usize;

    // Vertices bucketed by current degree (counting sort).
    let mut bin = vec![0usize; max_deg + 2];
    for &d in &degree {
        bin[d as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        bin[i + 1] += bin[i];
    }
    let mut start = bin.clone(); // start[d] = first index of degree-d zone

    // Positions fit a `NodeId`; the narrow array halves the cache
    // footprint of the prefix test's random reads of `pos`.
    let mut vert = vec![0 as NodeId; n];
    let mut pos = vec![0 as NodeId; n];
    for v in 0..n as NodeId {
        let d = degree[v as usize] as usize;
        vert[start[d]] = v;
        pos[v as usize] = start[d] as NodeId;
        start[d] += 1;
    }

    // Peel in non-decreasing degree order.
    for i in 0..n {
        let v = vert[i];
        let dv = degree[v as usize];
        let mut into_prefix: EdgeWeight = 0;
        let (targets, weights) = g.arc_slices(v);
        for (&u, &w) in targets.iter().zip(weights) {
            let du = degree[u as usize];
            if du > dv {
                // Move u one degree-bucket down: swap it with the first
                // vertex of its current zone, then shrink the zone.
                let du = du as usize;
                let pu = pos[u as usize];
                let pw = bin[du];
                let x = vert[pw];
                if u != x {
                    vert[pu as usize] = x;
                    vert[pw] = u;
                    pos[u as usize] = pw as NodeId;
                    pos[x as usize] = pu;
                }
                bin[du] += 1;
                degree[u as usize] -= 1;
            } else if (pos[u as usize] as usize) < i {
                into_prefix += w;
            }
        }
        visit(v, dv, into_prefix);
    }
    vert
}

/// The k-core as a subgraph: vertices with core number ≥ k, plus the map
/// from new ids to original ids.
pub fn k_core(g: &CsrGraph, k: u32) -> (CsrGraph, Vec<NodeId>) {
    let core = core_numbers(g);
    let keep: Vec<bool> = core.iter().map(|&c| c >= k).collect();
    g.induced_subgraph(&keep)
}

/// The paper's instance preparation: largest connected component of the
/// k-core. Returns the prepared graph and the mapping to original ids.
pub fn k_core_lcc(g: &CsrGraph, k: u32) -> (CsrGraph, Vec<NodeId>) {
    let (core_graph, core_ids) = k_core(g, k);
    let (lcc, lcc_ids) = largest_component(&core_graph);
    let orig: Vec<NodeId> = lcc_ids.iter().map(|&v| core_ids[v as usize]).collect();
    (lcc, orig)
}

/// Degeneracy of the graph: the maximum core number.
pub fn degeneracy(g: &CsrGraph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference: the plain Batagelj–Zaversnik loop, recording the order
    /// as it goes, with no prefix sums.
    fn reference_core_decomposition(g: &CsrGraph) -> (Vec<u32>, Vec<NodeId>) {
        let n = g.n();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut degree: Vec<u32> = (0..n as NodeId).map(|v| g.degree(v) as u32).collect();
        let max_deg = *degree.iter().max().unwrap() as usize;
        let mut bin = vec![0usize; max_deg + 2];
        for &d in &degree {
            bin[d as usize + 1] += 1;
        }
        for i in 0..max_deg + 1 {
            bin[i + 1] += bin[i];
        }
        let mut start = bin.clone();
        let mut vert = vec![0 as NodeId; n];
        let mut pos = vec![0usize; n];
        for v in 0..n as NodeId {
            let d = degree[v as usize] as usize;
            vert[start[d]] = v;
            pos[v as usize] = start[d];
            start[d] += 1;
        }
        let mut core = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        for i in 0..n {
            let v = vert[i];
            order.push(v);
            core[v as usize] = degree[v as usize];
            for &u in g.neighbors(v) {
                if degree[u as usize] > degree[v as usize] {
                    let du = degree[u as usize] as usize;
                    let pu = pos[u as usize];
                    let pw = bin[du];
                    let w = vert[pw];
                    if u != w {
                        vert[pu] = w;
                        vert[pw] = u;
                        pos[u as usize] = pw;
                        pos[w as usize] = pu;
                    }
                    bin[du] += 1;
                    degree[u as usize] -= 1;
                }
            }
        }
        (core, order)
    }

    /// A random weighted multigraph on 1–199 vertices: repeated pairs
    /// merge, self-loops drop, isolated vertices occur.
    fn random_weighted_graph(rng: &mut SmallRng) -> CsrGraph {
        let n = rng.gen_range(1..200usize);
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..6 * n) {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            edges.push((u, v, rng.gen_range(1..20)));
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn one_pass_peel_matches_the_reference_peel_and_prefix_sweep() {
        let mut rng = SmallRng::seed_from_u64(0xb2);
        for trial in 0..200 {
            let g = random_weighted_graph(&mut rng);
            let (ref_core, ref_order) = reference_core_decomposition(&g);
            let (core, order) = core_decomposition(&g);
            assert_eq!(core, ref_core, "trial {trial}: core numbers");
            assert_eq!(order, ref_order, "trial {trial}: peel order");

            // Two-pass reference: the order, then an in-prefix sweep.
            let mut in_prefix = vec![false; g.n()];
            let mut cut: EdgeWeight = 0;
            let mut expected = Vec::new();
            for &v in &ref_order {
                let into: EdgeWeight = g
                    .arcs(v)
                    .filter(|&(u, _)| in_prefix[u as usize])
                    .map(|(_, w)| w)
                    .sum();
                cut = cut + g.weighted_degree(v) - 2 * into;
                in_prefix[v as usize] = true;
                expected.push(cut);
            }
            let mut cuts = Vec::new();
            let order = peel_prefix_cuts(&g, |i, c| {
                assert_eq!(i, cuts.len());
                cuts.push(c);
            });
            assert_eq!(order, ref_order, "trial {trial}: prefix-cut order");
            assert_eq!(cuts, expected, "trial {trial}: prefix cuts");
            // Each prefix cut is the real cut value of that prefix.
            for (i, &c) in cuts.iter().enumerate().step_by(17) {
                let mut side = vec![false; g.n()];
                for &v in &order[..=i] {
                    side[v as usize] = true;
                }
                assert_eq!(g.cut_value(&side), c, "trial {trial}, prefix {i}");
            }
        }
    }

    /// Triangle with a pendant path: 0-1-2 triangle, 2-3-4 path.
    fn triangle_with_tail() -> CsrGraph {
        CsrGraph::from_unweighted_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn core_numbers_triangle_with_tail() {
        let core = core_numbers(&triangle_with_tail());
        assert_eq!(core, vec![2, 2, 2, 1, 1]);
    }

    #[test]
    fn peeling_order_is_a_permutation_peeling_loose_structure_first() {
        let g = triangle_with_tail();
        let (core, order) = core_decomposition(&g);
        assert_eq!(core_numbers(&g), core);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>());
        // The pendant path peels before the triangle: 4 first, then 3
        // (whose degree dropped to 1 when 4 left).
        assert_eq!(order[0], 4);
        assert_eq!(order[1], 3);
        // Core numbers along the order never decrease.
        assert!(order
            .windows(2)
            .all(|w| core[w[0] as usize] <= core[w[1] as usize]));
    }

    #[test]
    fn k_core_extracts_triangle() {
        let (c2, ids) = k_core(&triangle_with_tail(), 2);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(c2.n(), 3);
        assert_eq!(c2.m(), 3);
        assert_eq!(c2.min_degree(), Some(2));
    }

    #[test]
    fn k_core_of_clique_is_clique() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(6, &edges);
        let core = core_numbers(&g);
        assert!(core.iter().all(|&c| c == 5));
        assert_eq!(degeneracy(&g), 5);
        let (c6, _) = k_core(&g, 5);
        assert_eq!(c6.n(), 6);
        let (c7, _) = k_core(&g, 6);
        assert_eq!(c7.n(), 0);
    }

    #[test]
    fn kcore_lcc_picks_largest_piece() {
        // Two triangles (2-cores) of different... same size; add a 4-clique.
        let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
        for u in 3..7u32 {
            for v in u + 1..7 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(7, &edges);
        let (lcc, ids) = k_core_lcc(&g, 2);
        assert_eq!(lcc.n(), 4);
        assert_eq!(ids, vec![3, 4, 5, 6]);
        assert!(lcc.min_degree().unwrap() >= 2);
    }

    #[test]
    fn every_vertex_of_kcore_has_degree_at_least_k() {
        // A small pseudo-random graph; structural invariant check.
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..400 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((x >> 33) % 60) as u32;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 60) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_unweighted_edges(60, &edges);
        for k in 1..=6 {
            let (sub, _) = k_core(&g, k);
            if sub.n() > 0 {
                assert!(
                    sub.min_degree().unwrap() >= k as usize,
                    "k-core property violated for k={k}"
                );
            }
        }
    }
}
