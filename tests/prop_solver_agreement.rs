//! Property tests (vendored proptest shim): on random small weighted
//! multigraphs,
//!
//! * every exact solver instance in the registry — the full
//!   (family × queue) matrix — agrees with the Stoer–Wagner reference;
//! * inexact solvers return the value of a real cut ≥ λ;
//! * contracting any set of edges that does not cross a minimum cut
//!   preserves λ (the invariant behind every CAPFOREST contraction of
//!   the paper: λ(G/F) = λ(G) when F stays inside the blocks);
//! * the cactus of all minimum cuts is a bijection: every cut it
//!   enumerates has value exactly λ, the count matches the brute-force
//!   all-min-cuts oracle, and `min_cut_separating(u, v)` agrees with
//!   the enumeration for every vertex pair;
//! * the cactus built on the λ + 1 CAPFOREST kernel is the brute-force
//!   family on multigraphs, cycles with chords and rings of cliques,
//!   and its kernel is smaller than the graph on the clustered rings;
//! * every delete case of the dynamic maintainer is exact: after random
//!   deletes, λ is Stoer–Wagner's, the witness costs λ and, with the
//!   cactus on, the maintained family is a from-scratch build's.
//!
//! The generated edge lists are multigraphs — duplicate pairs and
//! self-loops included — exercising the builder's normalisation too.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sm_mincut::ds::UnionFind;
use sm_mincut::flow::max_flow;
use sm_mincut::graph::contract::ContractionEngine;
use sm_mincut::graph::generators::known::{self, brute_force_all_min_cuts};
use sm_mincut::graph::generators::random_permutation;
use sm_mincut::{
    materialize, CactusBuilder, CsrGraph, DeltaGraph, DynamicMinCut, NodeId, Session, SolveOptions,
    SolverRegistry,
};

/// Builds a graph on `n` vertices from raw (multigraph) edge records.
fn build(n: usize, raw: &[(u32, u32, u64)]) -> CsrGraph {
    let edges: Vec<(u32, u32, u64)> = raw
        .iter()
        .map(|&(u, v, w)| (u % n as u32, v % n as u32, w))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// Stoer–Wagner is the ground-truth oracle (itself validated against
/// brute force in `tests/naive_references.rs`).
fn reference(g: &CsrGraph) -> (u64, Vec<bool>) {
    let out = Session::new(g).run("stoer-wagner").expect("reference run");
    let side = out.cut.side.clone().expect("witness on by default");
    (out.cut.value, side)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn every_registry_instance_agrees_with_stoer_wagner(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
    ) {
        let g = build(n, &raw);
        let (lambda, _) = reference(&g);
        let opts = SolveOptions::new().seed(0xFEED).threads(2);
        for solver in SolverRegistry::global().instances() {
            let name = solver.instance_name(&opts);
            let out = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name} on n={n} {raw:?}: {e}"));
            if solver.capabilities().guarantee.is_exact() {
                prop_assert_eq!(
                    out.cut.value, lambda,
                    "{} disagrees on n={} edges={:?}", name, n, &raw
                );
            } else {
                prop_assert!(
                    out.cut.value >= lambda,
                    "{} went below lambda on n={} edges={:?}", name, n, &raw
                );
            }
            prop_assert!(
                out.cut.verify(&g),
                "{} returned a bad witness on n={} edges={:?}", name, n, &raw
            );
        }
    }

    #[test]
    fn contracting_non_cut_crossing_edges_preserves_lambda(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
        mask in any::<u64>(),
    ) {
        let g = build(n, &raw);
        let (lambda, side) = reference(&g);

        // Contract a pseudo-random subset of the edges that do not cross
        // the witness cut. Blocks never span both sides, so the witness
        // survives contraction and λ cannot change: contraction never
        // creates cuts (λ can only grow) yet this cut keeps its value.
        let mut uf = UnionFind::new(g.n());
        for (i, (u, v, _)) in g.edges().enumerate() {
            let crossing = side[u as usize] != side[v as usize];
            if !crossing && (mask >> (i % 64)) & 1 == 1 {
                uf.union(u, v);
            }
        }
        let (labels, blocks) = uf.dense_labels();
        prop_assert!(blocks >= 2, "both sides must survive");
        let c = ContractionEngine::new().contract(&g, &labels, blocks);
        let (contracted_lambda, _) = reference(&c);
        prop_assert_eq!(
            contracted_lambda, lambda,
            "contraction changed λ on n={} edges={:?} mask={:#x}", n, &raw, mask
        );
    }

    #[test]
    fn cactus_is_a_bijection_onto_all_minimum_cuts(
        n in 2usize..9,
        raw in prop::collection::vec((0u32..16, 0u32..16, 1u64..8), 1..24),
    ) {
        let g = build(n, &raw);
        let (lambda, all) = brute_force_all_min_cuts(&g);
        let cactus = CactusBuilder::new()
            .options(SolveOptions::new().seed(0xFEED))
            .build(&g)
            .unwrap_or_else(|e| panic!("n={n} edges={raw:?}: {e}"));
        prop_assert_eq!(cactus.lambda(), lambda, "λ on n={} edges={:?}", n, &raw);

        // Count and family match the oracle exactly...
        prop_assert_eq!(
            cactus.count_min_cuts(), all.len() as u128,
            "count on n={} edges={:?}", n, &raw
        );
        let enumerated = cactus.enumerate_min_cuts(usize::MAX);
        prop_assert_eq!(
            &enumerated, &all,
            "family on n={} edges={:?}", n, &raw
        );
        // ...and every enumerated side costs exactly λ on the graph.
        for side in &enumerated {
            prop_assert_eq!(
                g.cut_value(side), lambda,
                "a cut off λ on n={} edges={:?}", n, &raw
            );
        }

        // The separating oracle agrees with the enumeration pairwise:
        // a cut splitting {u, v} exists iff some enumerated side does,
        // and the returned side really separates them at value λ.
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let split = enumerated
                    .iter()
                    .any(|s| s[u as usize] != s[v as usize]);
                match cactus.min_cut_separating(u, v) {
                    Some(side) => {
                        prop_assert!(split, "spurious separator for ({}, {})", u, v);
                        prop_assert!(side[u as usize] != side[v as usize]);
                        prop_assert_eq!(g.cut_value(&side), lambda);
                    }
                    None => prop_assert!(!split, "missed separator for ({}, {})", u, v),
                }
            }
        }
    }
}

/// One of the three shapes the kernel property draws: a random
/// multigraph on `n` ≤ 8 vertices, a cycle on `n` vertices with chords,
/// or a ring of `k` cliques of `s` vertices whose cliques are more than
/// λ-connected inside (the clustered case), its vertices relabelled.
fn kernel_case(shape: u32, n: usize, raw: &[(u32, u32, u64)], seed: u64) -> (CsrGraph, bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match shape {
        0 => (build(n.min(8), raw), false),
        1 => {
            let w = rng.gen_range(1..4);
            let mut edges: Vec<(u32, u32, u64)> =
                (0..n as u32).map(|v| (v, (v + 1) % n as u32, w)).collect();
            edges.extend(raw.iter().map(|&(u, v, c)| (u % n as u32, v % n as u32, c)));
            (CsrGraph::from_edges(n, &edges), false)
        }
        _ => {
            let (k, s) = (rng.gen_range(3..5usize), rng.gen_range(2..4usize));
            let inter: u64 = rng.gen_range(1..3);
            // (s − 1)·intra > 2·inter: splitting a clique costs more than λ.
            let intra = 2 * inter / (s as u64 - 1) + rng.gen_range(1..4u64);
            let (ring, _) = known::ring_of_cliques(k, s, intra, inter);
            let perm = random_permutation(ring.n(), &mut rng);
            let edges: Vec<(u32, u32, u64)> = ring
                .edges()
                .map(|(u, v, w)| (perm[u as usize], perm[v as usize], w))
                .collect();
            (CsrGraph::from_edges(ring.n(), &edges), true)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    /// The cactus built on the λ + 1 kernel represents exactly the
    /// brute-force family, and on clustered graphs the kernel is smaller
    /// than the graph: every vertex is more than λ-connected to its
    /// clique, so the first fixed-bound pass already unites a pair.
    #[test]
    fn kernel_cactus_matches_brute_force(
        shape in 0u32..3,
        n in 4usize..13,
        raw in prop::collection::vec((0u32..64, 0u32..64, 1u64..6), 0..12),
        seed in any::<u64>(),
    ) {
        let (g, clustered) = kernel_case(shape, n, &raw, seed);
        let (lambda, all) = brute_force_all_min_cuts(&g);
        let cactus = CactusBuilder::new()
            .build_with_lambda(&g, lambda)
            .unwrap_or_else(|e| panic!("shape {shape} n={n} {raw:?} seed {seed}: {e}"));
        prop_assert_eq!(
            cactus.enumerate_min_cuts(usize::MAX), all,
            "family on shape {} n={} {:?} seed {}", shape, n, &raw, seed
        );
        let kernel_n = cactus.stats().kernel_n;
        prop_assert!(lambda == 0 || (2..=g.n()).contains(&kernel_n));
        if clustered {
            prop_assert!(
                kernel_n < g.n(),
                "no contraction on a ring of cliques (n {}, seed {})", g.n(), seed
            );
        }
    }
}

/// How the maintainer decided one delete of `{u, v}`, classified by the
/// test from the state before the delete and an independent flow after.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeleteCase {
    /// The witness separated `u` and `v`: λ − w.
    Witness,
    /// The witness did not, the cactus did: λ − w, its cut the witness.
    Cactus,
    /// No known minimum cut separated them; the u–v flow of the new
    /// graph was above, at, or below the old λ.
    FlowAbove,
    FlowEqual,
    FlowBelow,
}

/// Random weighted multigraphs under random deletes (inserts only keep
/// the graph from running dry), with cactus maintenance off and on.
/// After every update λ is Stoer–Wagner's on the materialised graph,
/// the witness is a proper cut of value λ, no delete runs a solver, and
/// with the cactus on the maintained family is a from-scratch build's.
/// Every delete case must occur, so no branch goes untested: with the
/// cactus off the three flow cases, with it on also the cactus
/// shortcut and a λ-dropping delete inside one cactus node repaired
/// from its flow.
#[test]
fn every_delete_case_matches_stoer_wagner_and_a_fresh_cactus() {
    let mut rng = SmallRng::seed_from_u64(0xDE1E);
    let fresh = CactusBuilder::new().options(SolveOptions::new().seed(9));
    for cactus in [false, true] {
        let mut seen: Vec<DeleteCase> = Vec::new();
        let mut dropped_and_repaired = 0;
        for trial in 0..40u64 {
            let n = rng.gen_range(4..9usize);
            let mut edges: Vec<(NodeId, NodeId, u64)> = (1..n as NodeId)
                .map(|v| (rng.gen_range(0..v), v, rng.gen_range(1..5)))
                .collect();
            for _ in 0..rng.gen_range(n..3 * n) {
                let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
                if u != v {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
            let base = CsrGraph::from_edges(n, &edges);
            let mut dm = DynamicMinCut::new(base.clone(), "noi", SolveOptions::new().seed(trial))
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            if cactus {
                dm.enable_cactus()
                    .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            }
            let mut shadow = DeltaGraph::new(base);
            for step in 0..16 {
                let tag = format!("cactus {cactus}, trial {trial}, step {step}");
                let mut case = None;
                if shadow.m() < n || rng.gen_bool(0.2) {
                    let (mut u, mut v) = (0, 0);
                    while u == v {
                        u = rng.gen_range(0..n as NodeId);
                        v = rng.gen_range(0..n as NodeId);
                    }
                    let w = rng.gen_range(1..5);
                    dm.insert_edge(u, v, w)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.insert_edge(u, v, w);
                } else {
                    let live: Vec<_> = shadow.edges().collect();
                    let (u, v, _) = live[rng.gen_range(0..live.len())];
                    let lambda = dm.lambda();
                    let witness = dm.witness()[u as usize] != dm.witness()[v as usize];
                    let in_cactus = dm.cactus().map(|c| !c.same_node(u, v)) == Some(true);
                    let before = dm.stats().clone();
                    let report = dm
                        .delete_edge(u, v)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.delete_edge(u, v).expect("picked a live edge");
                    let flow = max_flow(&materialize(&shadow), u, v).value;
                    let c = match (witness, in_cactus) {
                        (true, _) => DeleteCase::Witness,
                        (false, true) => DeleteCase::Cactus,
                        _ if flow > lambda => DeleteCase::FlowAbove,
                        _ if flow == lambda => DeleteCase::FlowEqual,
                        _ => DeleteCase::FlowBelow,
                    };
                    let stats = dm.stats();
                    assert!(!report.resolved, "{tag}: {c:?} ran a solver");
                    assert_eq!(stats.resolves, before.resolves, "{tag}: {c:?}");
                    let by_flow = !matches!(c, DeleteCase::Witness | DeleteCase::Cactus);
                    assert_eq!(
                        stats.flow_deletes - before.flow_deletes,
                        by_flow as u64,
                        "{tag}: {c:?} runs exactly one flow iff no minimum cut was known"
                    );
                    if c == DeleteCase::FlowBelow
                        && dm.lambda() > 0
                        && stats.cactus_repairs > before.cactus_repairs
                    {
                        dropped_and_repaired += 1;
                    }
                    case = Some(c);
                }

                let current = materialize(&shadow);
                let expected = Session::new(&current)
                    .run("stoer-wagner")
                    .unwrap_or_else(|e| panic!("{tag}: oracle: {e}"))
                    .cut
                    .value;
                assert_eq!(dm.lambda(), expected, "{tag}: λ after {case:?}");
                assert!(current.is_proper_cut(dm.witness()), "{tag}: {case:?}");
                assert_eq!(
                    current.cut_value(dm.witness()),
                    expected,
                    "{tag}: the witness after {case:?} must cost λ"
                );
                if cactus {
                    let oracle = fresh
                        .build(&current)
                        .unwrap_or_else(|e| panic!("{tag}: rebuild: {e}"));
                    let maintained = dm.cactus().expect("maintenance is on");
                    assert_eq!(maintained.lambda(), expected, "{tag}: {case:?}");
                    assert_eq!(
                        maintained.enumerate_min_cuts(usize::MAX),
                        oracle.enumerate_min_cuts(usize::MAX),
                        "{tag}: family after {case:?}"
                    );
                }
                seen.extend(case);
            }
        }
        let mut required = vec![
            DeleteCase::FlowAbove,
            DeleteCase::FlowEqual,
            DeleteCase::FlowBelow,
        ];
        if cactus {
            required.push(DeleteCase::Cactus);
            assert!(
                dropped_and_repaired > 0,
                "no λ-dropping same-node delete was repaired"
            );
        }
        for c in required {
            assert!(
                seen.contains(&c),
                "cactus {cactus}: the {c:?} case never occurred"
            );
        }
    }
}
