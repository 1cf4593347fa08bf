//! Property tests for the flow subsystem: max-flow/min-cut duality and
//! the full minimum s-t cut family against a brute-force cut oracle,
//! symmetry, monotonicity under capacity increases, and Hao–Orlin against
//! Stoer-style enumeration.

use mincut_flow::{hao_orlin, max_flow, GomoryHuTree};
use mincut_graph::{CsrGraph, EdgeWeight, NodeId};
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..9).prop_flat_map(|n| {
        let tree_w = proptest::collection::vec(1u64..8, n - 1);
        let extra =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..8), 0..(2 * n));
        (Just(n), tree_w, extra).prop_map(|(n, tree_w, extra)| {
            let mut edges = Vec::new();
            for (v, w) in (1..n as NodeId).zip(tree_w) {
                edges.push((v / 2, v, w));
            }
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u, v, w));
                }
            }
            CsrGraph::from_edges(n, &edges)
        })
    })
}

fn brute_force_st_cut(g: &CsrGraph, s: NodeId, t: NodeId) -> EdgeWeight {
    let n = g.n();
    let mut best = EdgeWeight::MAX;
    for mask in 0u32..(1 << n) {
        if (mask >> s) & 1 == 1 && (mask >> t) & 1 == 0 {
            let side: Vec<bool> = (0..n).map(|v| (mask >> v) & 1 == 1).collect();
            best = best.min(g.cut_value(&side));
        }
    }
    best
}

/// Every minimum s-t cut as a source side, in ascending order.
fn brute_force_min_st_sides(g: &CsrGraph, s: NodeId, t: NodeId) -> Vec<Vec<bool>> {
    let n = g.n();
    let best = brute_force_st_cut(g, s, t);
    let mut sides: Vec<Vec<bool>> = (0u32..(1 << n))
        .filter(|mask| (mask >> s) & 1 == 1 && (mask >> t) & 1 == 0)
        .map(|mask| (0..n).map(|v| (mask >> v) & 1 == 1).collect())
        .filter(|side: &Vec<bool>| g.cut_value(side) == best)
        .collect();
    sides.sort();
    sides
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn max_flow_equals_brute_force_min_cut(g in small_graph(), s_raw in 0u32..16, t_raw in 0u32..16) {
        let n = g.n() as NodeId;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        let r = max_flow(&g, s, t);
        prop_assert_eq!(r.value, brute_force_st_cut(&g, s, t));
        // The witness is tight and separates s from t.
        let side = r.min_cut_side();
        prop_assert!(side[s as usize] && !side[t as usize]);
        prop_assert_eq!(g.cut_value(&side), r.value);
    }

    #[test]
    fn min_cut_sides_are_every_minimum_cut(g in small_graph(), s_raw in 0u32..16, t_raw in 0u32..16) {
        let n = g.n() as NodeId;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        // Random degrees put the lighter endpoint on either side, so both
        // flow orientations of `max_flow` are exercised.
        let r = max_flow(&g, s, t);
        let (mut sides, truncated) = r.min_cut_sides(usize::MAX);
        sides.sort();
        prop_assert!(!truncated);
        prop_assert_eq!(&sides, &brute_force_min_st_sides(&g, s, t));
        // The witness is the largest source side: the union of them all.
        let union: Vec<bool> = (0..g.n())
            .map(|v| sides.iter().any(|side| side[v]))
            .collect();
        prop_assert_eq!(r.min_cut_side(), union);
    }

    #[test]
    fn max_flow_is_symmetric(g in small_graph(), s_raw in 0u32..16, t_raw in 0u32..16) {
        let n = g.n() as NodeId;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        // Undirected graphs: λ(s, t) = λ(t, s).
        prop_assert_eq!(max_flow(&g, s, t).value, max_flow(&g, t, s).value);
    }

    #[test]
    fn adding_an_edge_never_decreases_connectivity(
        g in small_graph(),
        s_raw in 0u32..16,
        t_raw in 0u32..16,
        extra_w in 1u64..5,
    ) {
        let n = g.n() as NodeId;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        let before = max_flow(&g, s, t).value;
        // Add an s-t edge directly: connectivity rises by exactly its
        // weight (it crosses every s-t cut).
        let mut edges: Vec<_> = g.edges().collect();
        edges.push((s, t, extra_w));
        let g2 = CsrGraph::from_edges(g.n(), &edges);
        prop_assert_eq!(max_flow(&g2, s, t).value, before + extra_w);
    }

    #[test]
    fn hao_orlin_value_is_min_over_st_cuts_from_any_source(g in small_graph()) {
        // λ(G) = min over t ≠ 0 of λ(G, 0, t) — compute via flows and
        // compare against Hao–Orlin's single run.
        let n = g.n() as NodeId;
        let expected = (1..n)
            .map(|t| max_flow(&g, 0, t).value)
            .min()
            .expect("n >= 2");
        let ho = hao_orlin(&g);
        prop_assert_eq!(ho.value, expected);
        prop_assert_eq!(g.cut_value(&ho.side), ho.value);
    }

    #[test]
    fn gomory_hu_tree_is_flow_equivalent(g in small_graph()) {
        let tree = GomoryHuTree::build(&g);
        let n = g.n() as NodeId;
        for u in 0..n {
            for v in 0..u {
                prop_assert_eq!(
                    tree.min_cut_between(u, v),
                    max_flow(&g, u, v).value,
                    "pair ({}, {})", u, v
                );
            }
        }
    }
}
