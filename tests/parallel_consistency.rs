//! Integration: the parallel solver is exact at every thread count and
//! every queue, on every instance family of the evaluation — RHG, skewed
//! k-core proxies, and structured families with planted cuts.

use sm_mincut::graph::generators::{barabasi_albert, known, random_hyperbolic_graph, RhgParams};
use sm_mincut::graph::kcore::k_core_lcc;
use sm_mincut::{
    materialize, CactusBuilder, CsrGraph, DeltaGraph, DynamicMinCut, MinCutResult, NodeId, PqKind,
    Reductions, Session, SolveOptions,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Solves `g` with the registry solver `name` under `opts`.
fn cut(g: &CsrGraph, name: &str, opts: SolveOptions) -> MinCutResult {
    Session::new(g)
        .options(opts)
        .run(name)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .cut
}

/// ParCut with queue `pq` on `threads` workers.
fn parcut(g: &CsrGraph, pq: PqKind, threads: usize, seed: u64) -> MinCutResult {
    let opts = SolveOptions::new().seed(seed).pq(pq).threads(threads);
    cut(g, "parcut", opts)
}

fn assert_parcut_matches(g: &CsrGraph, expected: u64, label: &str) {
    for pq in PqKind::ALL {
        for threads in [1usize, 2, 3, 4, 8] {
            for seed in [1u64, 2] {
                let r = parcut(g, pq, threads, seed);
                assert_eq!(
                    r.value, expected,
                    "{label}: pq {pq}, {threads} threads, seed {seed}"
                );
                assert!(r.verify(g), "{label}: witness pq {pq}, {threads} threads");
            }
        }
    }
}

#[test]
fn parcut_on_planted_cut_families() {
    let (g, l) = known::two_communities(20, 25, 3, 2, 1);
    assert_parcut_matches(&g, l, "two_communities");
    let (g, l) = known::ring_of_cliques(7, 6, 2, 1);
    assert_parcut_matches(&g, l, "ring_of_cliques");
    let (g, l) = known::grid_graph(12, 9, 2);
    assert_parcut_matches(&g, l, "grid");
}

#[test]
fn parcut_on_rhg() {
    let mut rng = SmallRng::seed_from_u64(77);
    let g = random_hyperbolic_graph(&RhgParams::paper(1 << 10, 10.0), &mut rng);
    let expected = cut(&g, "NOI-HNSS", SolveOptions::new().seed(1)).value;
    assert_parcut_matches(&g, expected, "rhg");
}

#[test]
fn parcut_on_social_core() {
    let mut rng = SmallRng::seed_from_u64(78);
    let ba = barabasi_albert(1 << 10, 5, &mut rng);
    let (core, _) = k_core_lcc(&ba, 5);
    let expected = cut(&core, "NOIλ̂-Heap", SolveOptions::new().seed(1)).value;
    assert_parcut_matches(&core, expected, "social_core");
}

/// Determinism regression: with a fixed seed, the parallel exact solver
/// must report the identical cut value — and a witness partition of that
/// exact weight — at every worker count. The thread count sets the width
/// of every parallel layer (label propagation and contraction included),
/// so the loop exercises both the inline single-worker schedules and the
/// multi-worker ones.
#[test]
fn fixed_seed_is_deterministic_across_thread_counts() {
    let instances = vec![
        known::two_communities(14, 15, 2, 3, 1),
        known::ring_of_cliques(6, 5, 2, 1),
        known::grid_graph(8, 11, 2),
    ];
    for (g, l) in &instances {
        for pq in PqKind::ALL {
            let mut values = Vec::new();
            for threads in [1usize, 2, 4] {
                let r = parcut(g, pq, threads, 0xD5EED);
                // The witness partition must be a real cut of exactly the
                // reported weight (region growth may pick different
                // optimal sides per schedule; their *weight* may not
                // vary).
                let side = r.side.as_ref().expect("witness on");
                assert_eq!(g.cut_value(side), r.value, "pq {pq}, {threads} threads");
                assert!(r.verify(g), "pq {pq}, {threads} threads");
                values.push(r.value);
            }
            assert!(
                values.iter().all(|v| v == &values[0]),
                "pq {pq}: value varies with thread count: {values:?}"
            );
            assert_eq!(values[0], *l, "pq {pq}");
        }
    }
}

/// The kernelization pipeline feeds the parallel solver, so its results
/// must be identical at every worker count and with reductions on or
/// off.
#[test]
fn kernelization_is_consistent_across_thread_counts() {
    let instances = vec![
        known::two_communities(14, 15, 2, 3, 1),
        known::ring_of_cliques(6, 5, 2, 1),
        known::grid_graph(8, 11, 2),
    ];
    for (g, l) in &instances {
        for threads in [1usize, 4] {
            for reductions in [Reductions::All, Reductions::None] {
                let opts = SolveOptions::new()
                    .seed(0xD5EED)
                    .threads(threads)
                    .reductions(reductions.clone());
                let out = Session::new(g).options(opts).run("parcut").unwrap();
                assert_eq!(out.cut.value, *l, "{threads} threads, {reductions:?}");
                assert!(out.cut.verify(g), "{threads} threads, {reductions:?}");
            }
        }
        // The kernel itself must be byte-stable across worker counts: the
        // pipeline is deterministic, so the reported kernel size may not
        // vary with the threads option.
        let kernel_sizes: Vec<(usize, usize)> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let out = Session::new(g)
                    .options(SolveOptions::new().seed(1).threads(threads))
                    .run("noi")
                    .unwrap();
                (out.stats.kernel_n, out.stats.kernel_m)
            })
            .collect();
        assert_eq!(kernel_sizes[0], kernel_sizes[1]);
    }
}

/// Differential property test for the dynamic subsystem: random update
/// traces replayed through `DynamicMinCut` must report the exact
/// from-scratch Stoer–Wagner λ after **every** step, with a witness that
/// re-costs to λ on the current graph — at 1 and 4 worker threads, the
/// width of every parallel layer of each re-solve. At the end of each
/// trace, `DeltaGraph::compact()` must
/// be fingerprint-identical to `CsrGraph::from_edges` on the merged edge
/// list.
#[test]
fn dynamic_maintainer_matches_from_scratch_on_random_traces() {
    let mut rng = SmallRng::seed_from_u64(0xD17A);
    for threads in [1usize, 4] {
        for trial in 0..5 {
            // Random base: a spanning path (so the first solve sees a
            // connected graph sometimes worth kernelizing) plus chords.
            let n = 5 + (trial % 4) * 2;
            let mut edges: Vec<(NodeId, NodeId, u64)> = (1..n as NodeId)
                .map(|v| (v - 1, v, rng.gen_range(1..5)))
                .collect();
            for _ in 0..rng.gen_range(0..2 * n) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..5)));
                }
            }
            let base = CsrGraph::from_edges(n, &edges);
            let opts = SolveOptions::new().seed(7 + trial as u64).threads(threads);
            let mut dm = DynamicMinCut::new(base.clone(), "parcut", opts)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            let mut shadow = DeltaGraph::new(base);

            for step in 0..24 {
                let tag = format!("threads {threads}, trial {trial}, step {step}");
                // 60/40 insert/delete mix; deletes target a live edge.
                if shadow.m() == 0 || rng.gen_bool(0.6) {
                    let (mut u, mut v) = (0, 0);
                    while u == v {
                        u = rng.gen_range(0..n as NodeId);
                        v = rng.gen_range(0..n as NodeId);
                    }
                    let w = rng.gen_range(1..6);
                    dm.insert_edge(u, v, w)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.insert_edge(u, v, w);
                } else {
                    let live: Vec<_> = shadow.edges().collect();
                    let (u, v, _) = live[rng.gen_range(0..live.len())];
                    dm.delete_edge(u, v)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.delete_edge(u, v).expect("picked a live edge");
                }

                let current = materialize(&shadow);
                let expected = Session::new(&current)
                    .options(SolveOptions::new().seed(1))
                    .run("stoer-wagner")
                    .unwrap_or_else(|e| panic!("{tag}: oracle: {e}"))
                    .cut
                    .value;
                assert_eq!(dm.lambda(), expected, "{tag}");
                assert!(
                    current.is_proper_cut(dm.witness()),
                    "{tag}: improper witness"
                );
                assert_eq!(
                    current.cut_value(dm.witness()),
                    expected,
                    "{tag}: witness must re-cost to λ"
                );
            }

            // The overlay folds into the canonical CSR of the merged list.
            let merged: Vec<_> = shadow.edges().collect();
            let reference = CsrGraph::from_edges(shadow.n(), &merged);
            assert_eq!(
                shadow.compact().fingerprint(),
                reference.fingerprint(),
                "threads {threads}, trial {trial}: compact() must be \
                 fingerprint-identical to from_edges"
            );
        }
    }
}

/// Differential test for cactus maintenance: random update traces with
/// `enable_cactus` on — after **every** operation the maintained cactus
/// (which absorbs non-structural inserts and rebuilds otherwise) must be
/// indistinguishable from a from-scratch `CactusBuilder` run on the
/// materialised graph: same λ, same min-cut count, identical enumerated
/// family, and agreeing separating-cut answers on every vertex pair,
/// and both maintainers' witnesses are proper cuts of value λ — at 1
/// and 4 worker threads, the width of every parallel layer.
#[test]
fn maintained_cactus_matches_from_scratch_rebuild_on_random_traces() {
    let mut rng = SmallRng::seed_from_u64(0xCAC7);
    let fresh = CactusBuilder::new().options(SolveOptions::new().seed(3));
    for threads in [1usize, 4] {
        let mut repairs_at_this_width = 0;
        for trial in 0..4 {
            let n = 5 + (trial % 3) * 2;
            let mut edges: Vec<(NodeId, NodeId, u64)> = (1..n as NodeId)
                .map(|v| (v - 1, v, rng.gen_range(1..4)))
                .collect();
            for _ in 0..rng.gen_range(n..2 * n) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if u != v {
                    edges.push((u, v, rng.gen_range(1..4)));
                }
            }
            let base = CsrGraph::from_edges(n, &edges);
            let opts = SolveOptions::new().seed(11 + trial as u64).threads(threads);
            let mut dm = DynamicMinCut::new(base.clone(), "parcut", opts)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            dm.enable_cactus()
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            // A second maintainer with repair disabled: the A/B control
            // must stay structurally identical to the repairing one
            // after every op.
            let mut dm_off = DynamicMinCut::new(
                base.clone(),
                "parcut",
                SolveOptions::new().seed(11 + trial as u64).threads(threads),
            )
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            dm_off
                .enable_cactus()
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            dm_off.set_cactus_repair(false);
            let mut shadow = DeltaGraph::new(base);

            for step in 0..16 {
                let tag = format!("threads {threads}, trial {trial}, step {step}");
                if shadow.m() == 0 || rng.gen_bool(0.6) {
                    let (mut u, mut v) = (0, 0);
                    while u == v {
                        u = rng.gen_range(0..n as NodeId);
                        v = rng.gen_range(0..n as NodeId);
                    }
                    let w = rng.gen_range(1..5);
                    dm.insert_edge(u, v, w)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    dm_off
                        .insert_edge(u, v, w)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.insert_edge(u, v, w);
                } else {
                    let live: Vec<_> = shadow.edges().collect();
                    let (u, v, _) = live[rng.gen_range(0..live.len())];
                    dm.delete_edge(u, v)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    dm_off
                        .delete_edge(u, v)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    shadow.delete_edge(u, v).expect("picked a live edge");
                }

                let current = materialize(&shadow);
                let oracle = fresh
                    .build(&current)
                    .unwrap_or_else(|e| panic!("{tag}: rebuild: {e}"));
                let maintained = dm.cactus().expect("maintenance is on");
                assert_eq!(maintained.lambda(), oracle.lambda(), "{tag}: λ");
                assert_eq!(
                    maintained.count_min_cuts(),
                    oracle.count_min_cuts(),
                    "{tag}: min-cut count"
                );
                assert_eq!(
                    maintained.enumerate_min_cuts(usize::MAX),
                    oracle.enumerate_min_cuts(usize::MAX),
                    "{tag}: enumerated family"
                );
                for (mode, m) in [("repair", &dm), ("rebuild-only", &dm_off)] {
                    assert!(
                        current.is_proper_cut(m.witness()),
                        "{tag}: {mode} improper witness"
                    );
                    assert_eq!(
                        current.cut_value(m.witness()),
                        oracle.lambda(),
                        "{tag}: {mode} witness must re-cost to λ"
                    );
                }
                let rebuilt_only = dm_off.cactus().expect("maintenance is on");
                assert_eq!(
                    (rebuilt_only.lambda(), rebuilt_only.count_min_cuts()),
                    (oracle.lambda(), oracle.count_min_cuts()),
                    "{tag}: rebuild-only (λ, count)"
                );
                assert_eq!(
                    rebuilt_only.enumerate_min_cuts(usize::MAX),
                    oracle.enumerate_min_cuts(usize::MAX),
                    "{tag}: rebuild-only family"
                );
                for u in 0..n as NodeId {
                    for v in (u + 1)..n as NodeId {
                        assert_eq!(
                            dm.min_cut_separating(u, v)
                                .unwrap_or_else(|e| panic!("{tag}: {e}"))
                                .is_some(),
                            oracle.min_cut_separating(u, v).is_some(),
                            "{tag}: separating oracle on ({u}, {v})"
                        );
                    }
                }
            }
            let stats = dm.stats();
            assert!(
                stats.cactus_rebuilds >= 1,
                "threads {threads}, trial {trial}: the initial build counts"
            );
            repairs_at_this_width += stats.cactus_repairs;
            assert_eq!(
                dm_off.stats().cactus_repairs,
                0,
                "threads {threads}, trial {trial}: rebuild-only never repairs"
            );
        }
        assert!(
            repairs_at_this_width > 0,
            "threads {threads}: random traces must exercise the repair path"
        );
    }
}

#[test]
fn parcut_seed_independence_of_value() {
    // The *value* must be deterministic even though region growth is
    // scheduling-dependent; run the same config many times.
    let (g, l) = known::two_communities(30, 30, 2, 2, 1);
    for rep in 0..12 {
        let r = parcut(&g, PqKind::BQueue, 4, rep);
        assert_eq!(r.value, l, "rep {rep}");
    }
}
