//! Cross-crate integration: every exact algorithm must agree — with each
//! other, with the brute-force oracle, and with its own witness — on
//! randomly generated weighted graphs. This is the strongest correctness
//! statement the workspace makes: seven independent implementations
//! (bounded/unbounded NOI × three queues, ParCut, Stoer–Wagner,
//! Hao–Orlin) agreeing on thousands of instances.

use proptest::prelude::*;
use sm_mincut::graph::generators::known::brute_force_mincut;
use sm_mincut::{CsrGraph, MinCutResult, NodeId, Session, SolveOptions};

/// Strategy: a random connected weighted graph with n in [2, 10] for the
/// brute-force comparison tier.
fn small_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..10).prop_flat_map(|n| {
        let tree_edges = proptest::collection::vec(1u64..8, n - 1);
        let extra =
            proptest::collection::vec((0..n as NodeId, 0..n as NodeId, 1u64..8), 0..(n * 2));
        (Just(n), tree_edges, extra).prop_map(|(n, tree_w, extra)| {
            let mut edges = Vec::new();
            for (v, w) in (1..n as NodeId).zip(tree_w) {
                edges.push((v / 2, v, w)); // binary-tree backbone: connected
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

/// Every exact solver by registry spelling; ParCut runs on two workers.
const EXACT_SOLVERS: [&str; 11] = [
    "NOI-HNSS",
    "NOI-HNSS-VieCut",
    "StoerWagner",
    "HO-CGKLS",
    "ParCutλ̂-BQueue",
    "NOIλ̂-BStack",
    "NOIλ̂-BStack-VieCut",
    "NOIλ̂-BQueue",
    "NOIλ̂-BQueue-VieCut",
    "NOIλ̂-Heap",
    "NOIλ̂-Heap-VieCut",
];

/// Solves `g` with the registry solver `name` under `opts`.
fn cut(g: &CsrGraph, name: &str, opts: SolveOptions) -> MinCutResult {
    Session::new(g)
        .options(opts)
        .run(name)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .cut
}

/// Runs every exact solver on `g` with `seed`.
fn exact_cuts(g: &CsrGraph, seed: u64) -> impl Iterator<Item = (&'static str, MinCutResult)> + '_ {
    let opts = SolveOptions::new().seed(seed).threads(2);
    EXACT_SOLVERS
        .into_iter()
        .map(move |name| (name, cut(g, name, opts.clone())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_algorithms_match_brute_force(g in small_graph(), seed in 0u64..1000) {
        let expected = brute_force_mincut(&g);
        for (name, r) in exact_cuts(&g, seed) {
            prop_assert_eq!(r.value, expected, "{} on {:?}", name, g);
            prop_assert!(r.verify(&g), "{} witness", name);
        }
    }

    #[test]
    fn inexact_algorithms_upper_bound(g in small_graph(), seed in 0u64..1000) {
        let expected = brute_force_mincut(&g);
        let r = cut(&g, "VieCut", SolveOptions::new().seed(seed));
        prop_assert!(r.value >= expected, "VieCut went below λ");
        prop_assert!(r.verify(&g), "VieCut must report an actual cut");
    }
}

/// Medium tier: no brute force, but all exact algorithms must agree among
/// themselves on graphs with up to a few hundred vertices.
#[test]
fn exact_algorithms_agree_on_medium_random_graphs() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(20190522);
    for trial in 0..8 {
        let n = rng.gen_range(50..250);
        let mut edges = Vec::new();
        for v in 1..n as NodeId {
            edges.push((rng.gen_range(0..v), v, rng.gen_range(1..10)));
        }
        for _ in 0..4 * n {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                edges.push((u, v, rng.gen_range(1..10)));
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        let mut value = None;
        for (name, r) in exact_cuts(&g, trial) {
            assert!(r.verify(&g), "{name} witness, trial {trial}");
            match value {
                None => value = Some(r.value),
                Some(v) => assert_eq!(v, r.value, "{name} disagrees, trial {trial}"),
            }
        }
    }
}

/// The paper's RHG configuration: exact algorithms agree on a real
/// power-law-5 hyperbolic instance.
#[test]
fn exact_algorithms_agree_on_rhg() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sm_mincut::graph::generators::{random_hyperbolic_graph, RhgParams};
    let mut rng = SmallRng::seed_from_u64(5);
    let g = random_hyperbolic_graph(&RhgParams::paper(1 << 10, 12.0), &mut rng);
    let mut value = None;
    for (name, r) in exact_cuts(&g, 17) {
        assert!(r.verify(&g), "{name}");
        match value {
            None => value = Some(r.value),
            Some(v) => assert_eq!(v, r.value, "{name}"),
        }
    }
}
