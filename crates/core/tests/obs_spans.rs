//! Proof that the observability spans are actually on the solver paths:
//! with tracing enabled, one run of each driver must leave the expected
//! span families in the sink, properly nested per track. A single
//! `#[test]` owns this binary — the span sink is process-wide, and a
//! sibling test draining it concurrently would race.

use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;
use mincut_obs::{ArgValue, EventPhase};

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

    // The edge-testing passes report their work. A pass's first run is a
    // full pass (later runs at the same λ̂ test only touched edges), so
    // it tests all m edges of its graph.
    for pass in ["heavy-edge", "padberg-rinaldi"] {
        let name = ArgValue::from(pass);
        let runs: Vec<_> = events
            .iter()
            .filter(|e| e.name == "reduce/pass" && e.arg("pass") == Some(&name))
            .collect();
        let first = runs.first().unwrap_or_else(|| panic!("no {pass} pass"));
        assert_eq!(
            first.arg("edges_tested"),
            first.arg("m"),
            "a full {pass} pass tests every edge"
        );
        for run in &runs {
            assert!(run.arg("probes").is_some(), "{pass} span without probes");
        }
    }

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
}
