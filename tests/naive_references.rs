//! Cross-checks of the optimised substrate implementations against naive
//! reference implementations written independently in this test file —
//! failure injection insurance against subtle indexing or peeling bugs.

use proptest::prelude::*;
use sm_mincut::graph::components::connected_components;
use sm_mincut::graph::kcore::core_numbers;
use sm_mincut::{CsrGraph, NodeId};

fn arbitrary_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..5), 0..(3 * n)).prop_map(
            move |edges| {
                let edges: Vec<_> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
                CsrGraph::from_edges(n, &edges)
            },
        )
    })
}

/// Naive core numbers: repeatedly peel every vertex with degree < k.
fn naive_core_numbers(g: &CsrGraph) -> Vec<u32> {
    let n = g.n();
    let mut core = vec![0u32; n];
    for k in 1..=n as u32 {
        // Which vertices survive the k-core? Iterate peeling to fixpoint.
        let mut alive: Vec<bool> = (0..n).map(|v| g.degree(v as NodeId) > 0).collect();
        loop {
            let mut changed = false;
            for v in 0..n as NodeId {
                if alive[v as usize] {
                    let d = g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| alive[u as usize])
                        .count();
                    if d < k as usize {
                        alive[v as usize] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            if alive[v] {
                core[v] = k;
            }
        }
        if alive.iter().all(|&a| !a) {
            break;
        }
    }
    core
}

/// Naive components via repeated DFS over an adjacency check.
fn naive_component_count(g: &CsrGraph) -> usize {
    let n = g.n();
    let mut seen = vec![false; n];
    let mut count = 0;
    for s in 0..n as NodeId {
        if seen[s as usize] {
            continue;
        }
        count += 1;
        let mut stack = vec![s];
        seen[s as usize] = true;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
    }
    count
}

/// Naive weighted degree from the edge iterator.
fn naive_weighted_degrees(g: &CsrGraph) -> Vec<u64> {
    let mut deg = vec![0u64; g.n()];
    for (u, v, w) in g.edges() {
        deg[u as usize] += w;
        deg[v as usize] += w;
    }
    deg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn core_numbers_match_naive_peeling(g in arbitrary_graph()) {
        prop_assert_eq!(core_numbers(&g), naive_core_numbers(&g));
    }

    #[test]
    fn component_count_matches_naive_dfs(g in arbitrary_graph()) {
        let (_, k) = connected_components(&g);
        prop_assert_eq!(k, naive_component_count(&g));
    }

    #[test]
    fn weighted_degrees_match_edge_iterator(g in arbitrary_graph()) {
        let naive = naive_weighted_degrees(&g);
        for v in 0..g.n() as NodeId {
            prop_assert_eq!(g.weighted_degree(v), naive[v as usize]);
        }
    }

    #[test]
    fn cut_value_symmetric_under_complement(g in arbitrary_graph(), mask in any::<u64>()) {
        let side: Vec<bool> = (0..g.n()).map(|v| (mask >> (v % 64)) & 1 == 1).collect();
        let complement: Vec<bool> = side.iter().map(|&b| !b).collect();
        prop_assert_eq!(g.cut_value(&side), g.cut_value(&complement));
    }
}

/// Gomory–Hu trees agree with the dedicated global solvers.
#[test]
fn gomory_hu_global_cut_matches_noi() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sm_mincut::{Session, SolveOptions};
    let mut rng = SmallRng::seed_from_u64(161803);
    for trial in 0..10 {
        let n = rng.gen_range(5..30);
        let mut edges = Vec::new();
        for v in 1..n as NodeId {
            edges.push((rng.gen_range(0..v), v, rng.gen_range(1..6)));
        }
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                edges.push((u, v, rng.gen_range(1..6)));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        let session = Session::new(&g).options(SolveOptions::new().seed(trial));
        let gh = session.run("gomory-hu").unwrap().cut;
        let noi = session.run("noi-viecut").unwrap().cut;
        assert_eq!(gh.value, noi.value, "trial {trial}");
        assert!(gh.verify(&g), "trial {trial}");
    }
}
