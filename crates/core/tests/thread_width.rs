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
//! `padberg_rinaldi_pass` directly on a graph past 2^20 arcs: at one
//! thread they spawn nothing, at two they spawn workers; the labels are
//! dense and the pass unites as many pairs at either width. Building
//! that graph (more than 2^16 edges) and one insert plus `compact` on a
//! `DeltaGraph` over it spawn no thread: graph construction and
//! compaction are sequential at every size.
//!
//! This file is its own test binary with a single test, so no other test
//! spawns threads while the counter is read.

use mincut_core::reduce::padberg_rinaldi_pass;
use mincut_core::viecut::label_propagation;
use mincut_core::{Session, SolveOptions, SolveOutcome};
use mincut_ds::{par, UnionFind};
use mincut_graph::{CsrGraph, DeltaGraph, NodeId};
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

/// Runs a Padberg–Rinaldi pass at the minimum weighted degree and
/// returns its unions with the number of threads spawned during the
/// call.
fn pr_pass(g: &CsrGraph, threads: usize) -> (usize, u64) {
    let lambda_hat = g.min_weighted_degree().unwrap().1;
    let mut uf = UnionFind::new(g.n());
    let before = par::threads_spawned();
    let unions = padberg_rinaldi_pass(g, lambda_hat, &mut uf, threads);
    (unions, par::threads_spawned() - before)
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
    let (narrow, spawned) = pr_pass(&g, 1);
    assert_eq!(spawned, 0, "Padberg–Rinaldi tests at one thread");
    let (wide, spawned) = pr_pass(&g, 2);
    assert!(spawned > 0, "Padberg–Rinaldi tests at two threads go wide");
    assert_eq!(wide, narrow, "unions at either width");
    let mut d = DeltaGraph::new(g);
    let before = par::threads_spawned();
    d.insert_edge(0, 1 << 16, 1);
    let m = d.compact().m();
    assert_eq!(d.compactions(), 1);
    assert_eq!(par::threads_spawned(), before, "compacting {m} edges");
    drop(d);

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
