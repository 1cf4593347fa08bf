//! Proof that the observability spans are actually on the solver paths:
//! with tracing enabled, one run of each driver must leave the expected
//! span families in the sink, properly nested per track. A single
//! `#[test]` owns this binary — the span sink is process-wide, and a
//! sibling test draining it concurrently would race.

use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;
use mincut_graph::CsrGraph;
use mincut_obs::{ArgValue, EventPhase};

/// A unit-weight circulant core on 120 vertices (offsets 1, 2, 7 and 13:
/// degree 8; an edge at offset 1 has two common neighbours, one at
/// offset 2 has one) with two unit-weight satellite cliques: a K5 hung
/// off it by 4 edges and a K6 by 2. λ = 2, the K6's attachment.
/// The minimum degree gives λ̂ = 4; the first `padberg-rinaldi` run
/// collapses both cliques and misses every core edge, and the K6's block
/// lowers λ̂ to 2. The second run then unites the core's untouched edges
/// from their recorded sums.
fn satellites_off_a_circulant() -> CsrGraph {
    let core = 120;
    let mut edges = Vec::new();
    for v in 0..core {
        for d in [1, 2, 7, 13] {
            edges.push((v, (v + d) % core, 1));
        }
    }
    for (first, size, attach) in [(core, 5, 4), (core + 5, 6, 2)] {
        for a in first..first + size {
            for b in a + 1..first + size {
                edges.push((a, b, 1));
            }
        }
        for i in 0..attach {
            edges.push((first + i, 30 * i + first % 7, 1));
        }
    }
    CsrGraph::from_edges(core as usize + 11, &edges)
}

fn u64_arg(e: &mincut_obs::TraceEvent, key: &str) -> u64 {
    match e.arg(key) {
        Some(ArgValue::U64(v)) => *v,
        other => panic!("{} span: {key} = {other:?}", e.name),
    }
}

#[test]
fn enabled_tracing_captures_every_solver_layer() {
    mincut_obs::set_tracing(true);
    let _ = mincut_obs::take_events(); // a clean slate

    let (g, lambda) = known::ring_of_cliques(6, 8, 2, 1);

    // Sequential NOI through the session (kernelization on): solve +
    // reduce + noi + capforest spans.
    let outcome = Session::new(&g)
        .options(SolveOptions::new().seed(5))
        .run("noi")
        .expect("solve");
    assert_eq!(outcome.cut.value, lambda);

    // VieCut: level spans with their label-propagation and
    // Padberg–Rinaldi children, plus the exact-remainder handoff. A level
    // only runs above the exact threshold (128 vertices), and its PR pass
    // only when label propagation leaves more than that: here one cluster
    // per clique, 200 of them. Kernelization (which would collapse this
    // graph) stays off.
    let (big, big_lambda) = known::ring_of_cliques(200, 4, 2, 1);
    let vc = Session::new(&big)
        .options(SolveOptions::new().no_reductions())
        .run("viecut")
        .expect("solve");
    assert!(vc.cut.value >= big_lambda);

    // ParCut with several workers: round spans plus one named track per
    // logical worker.
    let pc = Session::new(&g)
        .options(SolveOptions::new().threads(3).no_reductions())
        .run("parcut-bqueue")
        .expect("solve");
    assert_eq!(pc.cut.value, lambda);

    let (events, threads) = mincut_obs::take_events();
    mincut_obs::set_tracing(false);

    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    for name in [
        "solve",
        "reduce/pass",
        "capforest/scan",
        "noi/round",
        "viecut/level",
        "viecut/label-propagation",
        "viecut/padberg-rinaldi",
        "viecut/exact-remainder",
        "parcut/round",
        "parcut/worker-scan",
    ] {
        assert!(count(name) > 0, "no {name:?} span recorded");
    }

    // The pipeline's component split is a pass like the others.
    let components = ArgValue::from("components");
    assert!(
        events
            .iter()
            .any(|e| e.name == "reduce/pass" && e.arg("pass") == Some(&components)),
        "no reduce/pass span for the component split"
    );

    // Padberg–Rinaldi reports its work. Its first run is a full pass
    // (later runs test only touched edges), so it tests all m edges of
    // its graph.
    let name = ArgValue::from("padberg-rinaldi");
    let runs: Vec<_> = events
        .iter()
        .filter(|e| e.name == "reduce/pass" && e.arg("pass") == Some(&name))
        .collect();
    let first = runs.first().expect("no padberg-rinaldi pass");
    assert_eq!(
        first.arg("edges_tested"),
        first.arg("m"),
        "a full pass tests every edge"
    );
    // Every run also reports its probes, the edges it decided from its
    // last run's record, the edges it skipped because it had already
    // united their endpoints, the record it leaves, and the workers that
    // classified its edges: one, below `par::MIN_PARALLEL_ARCS` arcs.
    for run in &runs {
        u64_arg(run, "probes");
        u64_arg(run, "from_record");
        u64_arg(run, "united");
        u64_arg(run, "recorded");
        assert_eq!(u64_arg(run, "workers"), 1, "workers");
    }
    // The ring of cliques has consecutive ids, so the first run has
    // joined part of a clique by the time a later wave classifies the
    // rest of it.
    assert!(u64_arg(first, "united") > 0, "{:?}", first.args);

    // The solve span carries the telemetry args the exporter documents.
    let solve = events
        .iter()
        .find(|e| e.name == "solve")
        .expect("checked above");
    assert_eq!(solve.phase, EventPhase::Complete);
    for key in ["algorithm", "n", "m", "lambda"] {
        assert!(solve.arg(key).is_some(), "solve span missing arg {key:?}");
    }

    // Scoped per-round workers record on stable named tracks, not one
    // fresh track per spawned OS thread: every worker-scan span's track
    // resolves to a `parcut-worker-<i>` name, and there are at most as
    // many such tracks as configured workers.
    let worker_tracks: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "parcut/worker-scan")
        .map(|e| e.tid)
        .collect();
    assert!(!worker_tracks.is_empty());
    assert!(worker_tracks.len() <= 3, "more tracks than logical workers");
    for tid in &worker_tracks {
        let name = threads
            .iter()
            .find(|(t, _)| t == tid)
            .map(|(_, n)| n.as_str())
            .expect("every track is registered");
        assert!(
            name.starts_with("parcut-worker-"),
            "worker span on unexpected track {name:?}"
        );
    }

    // Structural soundness of everything recorded, as the exporter
    // checks it.
    mincut_obs::validate_events(&events).expect("span families must be laminar per track");

    // A `padberg-rinaldi` run at a λ̂ below that of its last run probes
    // only the touched edges and decides the rest from its record.
    let g = satellites_off_a_circulant();
    mincut_obs::set_tracing(true);
    let outcome = Session::new(&g).run("noi").expect("solve");
    assert_eq!(outcome.cut.value, 2);
    let (events, _) = mincut_obs::take_events();
    mincut_obs::set_tracing(false);
    let name = ArgValue::from("padberg-rinaldi");
    let runs: Vec<_> = events
        .iter()
        .filter(|e| e.name == "reduce/pass" && e.arg("pass") == Some(&name))
        .collect();
    assert!(runs.len() >= 2, "padberg-rinaldi must run twice");
    let (first, second) = (runs[0], runs[1]);
    assert!(u64_arg(second, "lambda_hat") < u64_arg(first, "lambda_hat"));
    assert!(u64_arg(second, "from_record") > 0);
    assert!(u64_arg(second, "edges_tested") < u64_arg(second, "m"));
    assert!(
        u64_arg(second, "probes") < u64_arg(first, "probes"),
        "the second run probes {} entries, the first {}",
        u64_arg(second, "probes"),
        u64_arg(first, "probes")
    );
}
