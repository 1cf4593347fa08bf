//! `SolveOptions::threads` bounds every parallel layer of a solve.
//!
//! At one thread, label propagation, the Padberg–Rinaldi classify phase
//! and ParCut's CAPFOREST workers run inline, and contraction never
//! leaves the caller's thread, so the solve spawns no thread
//! (`mincut_ds::par::threads_spawned` stays put) and repeats its
//! operation stream exactly. The solve graph has more than 2^16 vertices
//! and edges. Label propagation and the Padberg–Rinaldi tests go wide
//! only past `par::MIN_PARALLEL_ARCS` = 2^20 arcs, which a solve graph
//! this size stays below, so the test also calls `label_propagation` and
//! `padberg_rinaldi_pass` directly on graphs past 2^20 arcs: at one
//! thread they spawn nothing, at two they spawn workers (the pass exactly
//! two, one per worker, for all its waves); label propagation's labels
//! are dense, and the pass leaves the same blocks at either width. The
//! pass runs on a ring of cliques with consecutive ids, so a clique that
//! straddles two of its waves is partly joined when the later wave
//! classifies it, and the pass skips those edges: a traced solve of that
//! graph reports the same `reduce/pass` work at one and two threads,
//! `united` included. Building a graph with more than 2^16 edges and one
//! insert plus `compact` on a `DeltaGraph` over it spawn no thread:
//! graph construction and compaction are sequential at every size.
//!
//! This file is its own test binary with a single test, so no other test
//! spawns threads while the counter is read.

use mincut_core::reduce::padberg_rinaldi_pass;
use mincut_core::viecut::label_propagation;
use mincut_core::{Session, SolveOptions, SolveOutcome};
use mincut_ds::{par, UnionFind};
use mincut_graph::generators::known;
use mincut_graph::{CsrGraph, DeltaGraph, NodeId};
use mincut_obs::ArgValue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A weighted ring on `n` vertices plus `chords` random chords per
/// vertex.
fn ring_with_chords(n: usize, chords: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity((1 + chords) * n);
    for v in 0..n as NodeId {
        edges.push((v, (v + 1) % n as NodeId, rng.gen_range(1..10)));
        for _ in 0..chords {
            edges.push((v, rng.gen_range(0..n as NodeId), rng.gen_range(1..10)));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Solves and returns the outcome with the number of threads spawned
/// during the solve.
fn solve(g: &CsrGraph, name: &str, opts: SolveOptions) -> (SolveOutcome, u64) {
    let before = par::threads_spawned();
    let out = Session::new(g).options(opts).run(name).unwrap();
    let spawned = par::threads_spawned() - before;
    assert!(out.cut.verify(g), "{name}: bad witness");
    (out, spawned)
}

/// Runs label propagation and returns the number of threads spawned
/// during the call, after checking that the labels are dense: every
/// label is below the cluster count and every id is used.
fn propagate(g: &CsrGraph, threads: usize) -> u64 {
    let before = par::threads_spawned();
    let (labels, count) = label_propagation(g, 2, 5, threads);
    let spawned = par::threads_spawned() - before;
    let mut used = vec![false; count];
    for &l in &labels {
        assert!(
            (l as usize) < count,
            "{threads} threads: label {l} of {count}"
        );
        used[l as usize] = true;
    }
    assert!(
        used.iter().all(|&u| u),
        "{threads} threads: unused cluster id"
    );
    spawned
}

/// Runs a Padberg–Rinaldi pass at `lambda_hat` and returns the dense
/// labels of its blocks with the number of threads spawned during the
/// call.
fn pr_pass(g: &CsrGraph, lambda_hat: u64, threads: usize) -> (Vec<u32>, u64) {
    let mut uf = UnionFind::new(g.n());
    let before = par::threads_spawned();
    let unions = padberg_rinaldi_pass(g, lambda_hat, &mut uf, threads);
    let spawned = par::threads_spawned() - before;
    let (labels, blocks) = uf.dense_labels();
    assert_eq!(
        blocks + unions,
        g.n(),
        "{threads} threads: one block per union"
    );
    (labels, spawned)
}

/// The args of every `reduce/pass` span of a traced `noi` solve at
/// `threads`, but `workers`, with the `workers` of the first
/// `padberg-rinaldi` run.
fn traced_passes(g: &CsrGraph, threads: usize) -> (Vec<Vec<(&'static str, ArgValue)>>, u64) {
    mincut_obs::set_tracing(true);
    let _ = mincut_obs::take_events();
    let out = Session::new(g)
        .options(SolveOptions::new().threads(threads))
        .run("noi")
        .unwrap();
    let (events, _) = mincut_obs::take_events();
    mincut_obs::set_tracing(false);
    assert_eq!(out.cut.value, 2, "{threads} threads");
    let passes: Vec<_> = events.iter().filter(|e| e.name == "reduce/pass").collect();
    let pr = ArgValue::from("padberg-rinaldi");
    let first = passes
        .iter()
        .find(|e| e.arg("pass") == Some(&pr))
        .expect("a padberg-rinaldi run");
    let workers = match first.arg("workers") {
        Some(ArgValue::U64(w)) => *w,
        other => panic!("workers = {other:?}"),
    };
    assert!(
        matches!(first.arg("united"), Some(ArgValue::U64(u)) if *u > 0),
        "{threads} threads: the first padberg-rinaldi run skips joined edges"
    );
    let args = passes
        .iter()
        .map(|e| {
            let args = e.args.iter().filter(|(k, _)| *k != "workers");
            args.cloned().collect()
        })
        .collect();
    (args, workers)
}

#[test]
fn one_thread_spawns_nothing_and_repeats_exactly() {
    let before = par::threads_spawned();
    let g = ring_with_chords(1 << 17, 4, 22);
    assert_eq!(par::threads_spawned(), before, "building {} edges", g.m());
    assert!(g.num_arcs() >= 1 << 20, "{} arcs", g.num_arcs());
    assert_eq!(propagate(&g, 1), 0, "label propagation at one thread");
    assert!(
        propagate(&g, 2) > 0,
        "label propagation at two threads goes wide"
    );
    let mut d = DeltaGraph::new(g);
    let before = par::threads_spawned();
    d.insert_edge(0, 1 << 16, 1);
    let m = d.compact().m();
    assert_eq!(d.compactions(), 1);
    assert_eq!(par::threads_spawned(), before, "compacting {m} edges");
    drop(d);

    // 261 cliques of 64 consecutive ids, unit weights, in a ring of unit
    // edges (λ = 2): at λ̂ = 8 test 3 unites every clique and nothing
    // else.
    let (g, _) = known::ring_of_cliques(261, 64, 1, 1);
    assert!(g.num_arcs() >= 1 << 20, "{} arcs", g.num_arcs());
    let (narrow, spawned) = pr_pass(&g, 8, 1);
    assert_eq!(spawned, 0, "Padberg–Rinaldi tests at one thread");
    let cliques: Vec<u32> = (0..g.n() as u32).map(|v| v / 64).collect();
    assert_eq!(narrow, cliques, "one block per clique");
    let (wide, spawned) = pr_pass(&g, 8, 2);
    assert_eq!(spawned, 2, "one map_each of two workers for every wave");
    assert_eq!(wide, narrow, "blocks at either width");
    let (narrow, workers) = traced_passes(&g, 1);
    assert_eq!(workers, 1);
    let (wide, workers) = traced_passes(&g, 2);
    assert_eq!(workers, 2);
    assert_eq!(wide, narrow, "the passes' work at either width");

    let g = ring_with_chords((1 << 16) + 4000, 1, 14);
    assert!(g.n() > 1 << 16 && g.m() >= 1 << 16);

    let mut lambda = None;
    for name in ["noi-viecut", "parcut"] {
        for reduce in [true, false] {
            let mut opts = SolveOptions::new().threads(1).seed(3);
            if !reduce {
                opts = opts.no_reductions();
            }
            let (a, spawned) = solve(&g, name, opts.clone());
            assert_eq!(spawned, 0, "{name} at one thread (reduce={reduce})");
            assert_eq!(*lambda.get_or_insert(a.cut.value), a.cut.value, "{name}");
            if !reduce {
                let (b, _) = solve(&g, name, opts);
                assert_eq!(
                    a.stats.pq_ops, b.stats.pq_ops,
                    "{name}: 1-thread run repeats"
                );
                assert_eq!(a.cut.side, b.cut.side, "{name}: 1-thread witness repeats");
            }
        }
    }

    let opts = SolveOptions::new().threads(2).seed(3).no_reductions();
    let (out, spawned) = solve(&g, "parcut", opts);
    assert_eq!(Some(out.cut.value), lambda);
    assert!(
        spawned > 0,
        "parcut at two threads runs its workers in parallel"
    );
}
