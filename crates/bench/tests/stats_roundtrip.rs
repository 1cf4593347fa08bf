//! Round-trips the hand-rolled stats emitters through the hand-rolled
//! JSON reader: `SolverStats::to_json` and `DynamicStats::to_json` are
//! consumed by external tooling (the CLI's `--stats` rows, the stream
//! footer), so every documented field must parse back out of the text
//! with the value that went in. A field silently dropped or mangled by
//! either side fails here, not in a downstream dashboard.

use mincut_bench::report::json::{self, Value};
use mincut_core::dynamic::{DynamicMinCut, TraceOp};
use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> &'a Value {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("field {key:?} missing from JSON"))
}

#[test]
fn solver_stats_json_round_trips() {
    let (g, lambda) = known::ring_of_cliques(4, 6, 2, 1);
    let outcome = Session::new(&g)
        .options(SolveOptions::new().seed(7))
        .run("noi-viecut")
        .expect("solve");
    assert_eq!(outcome.cut.value, lambda);
    let s = &outcome.stats;

    let text = s.to_json();
    let root = json::parse(&text).expect("emitted stats must be valid JSON");
    let obj = root.as_obj().expect("stats JSON is an object");

    assert_eq!(field(obj, "algorithm").as_str(), Some(s.algorithm.as_str()));
    assert_eq!(field(obj, "n").as_u64(), s.n as u64);
    assert_eq!(field(obj, "m").as_u64(), s.m as u64);
    assert_eq!(field(obj, "rounds").as_u64(), s.rounds);
    assert_eq!(
        field(obj, "contracted_vertices").as_u64(),
        s.contracted_vertices
    );
    assert_eq!(field(obj, "sw_rescues").as_u64(), s.sw_rescues);

    let traj = field(obj, "lambda_trajectory").as_arr().expect("array");
    assert_eq!(traj.len(), s.lambda_trajectory.len());
    for (v, l) in traj.iter().zip(&s.lambda_trajectory) {
        assert_eq!(v.as_u64(), *l);
    }

    let pq = field(obj, "pq_ops").as_obj().expect("object");
    assert_eq!(field(pq, "pushes").as_u64(), s.pq_ops.pushes);
    assert_eq!(field(pq, "raises").as_u64(), s.pq_ops.raises);
    assert_eq!(field(pq, "pops").as_u64(), s.pq_ops.pops);
    assert_eq!(field(pq, "total").as_u64(), s.pq_ops.total());

    let phases = field(obj, "phases").as_arr().expect("array");
    assert_eq!(phases.len(), s.phases.len());
    for (v, p) in phases.iter().zip(&s.phases) {
        let po = v.as_obj().expect("phase object");
        assert_eq!(field(po, "name").as_str(), Some(p.name));
        assert!((field(po, "seconds").as_f64() - p.seconds).abs() < 1e-6);
    }

    assert_eq!(field(obj, "kernel_n").as_u64(), s.kernel_n as u64);
    assert_eq!(field(obj, "kernel_m").as_u64(), s.kernel_m as u64);

    let reductions = field(obj, "reductions").as_arr().expect("array");
    assert_eq!(reductions.len(), s.reductions.len());
    assert!(!s.reductions.is_empty(), "default options kernelize");
    for (v, r) in reductions.iter().zip(&s.reductions) {
        let ro = v.as_obj().expect("reduction object");
        assert_eq!(field(ro, "name").as_str(), Some(r.name));
        assert_eq!(field(ro, "rounds").as_u64(), r.rounds);
        assert_eq!(field(ro, "vertices_removed").as_u64(), r.vertices_removed);
        assert_eq!(field(ro, "edges_removed").as_u64(), r.edges_removed);
        assert!((field(ro, "seconds").as_f64() - r.seconds).abs() < 1e-6);
    }

    assert!((field(obj, "total_seconds").as_f64() - s.total_seconds).abs() < 1e-6);
}

#[test]
fn dynamic_stats_json_round_trips() {
    let (g, _) = known::two_communities(6, 6, 2, 2, 1);
    let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new().seed(3)).expect("initial solve");
    dm.enable_cactus().expect("cactus maintenance");
    for op in [
        TraceOp::Query,
        TraceOp::Insert { u: 0, v: 7, w: 2 },
        TraceOp::Delete { u: 0, v: 7 },
        // An intra-community edge: no minimum cut separates 1 and 2, so
        // one u–v max flow decides this delete.
        TraceOp::Delete { u: 1, v: 2 },
        TraceOp::Query,
    ] {
        dm.apply(&op).expect("update");
    }
    let s = dm.stats().clone();

    let text = s.to_json();
    let root = json::parse(&text).expect("emitted stats must be valid JSON");
    let obj = root.as_obj().expect("stats JSON is an object");

    assert_eq!(field(obj, "insertions").as_u64(), s.insertions);
    assert_eq!(field(obj, "deletions").as_u64(), s.deletions);
    assert_eq!(field(obj, "queries").as_u64(), s.queries);
    assert_eq!(field(obj, "incremental").as_u64(), s.incremental);
    assert_eq!(field(obj, "resolves").as_u64(), s.resolves);
    assert!((field(obj, "resolve_seconds").as_f64() - s.resolve_seconds).abs() < 1e-6);
    assert_eq!(field(obj, "flow_deletes").as_u64(), s.flow_deletes);
    assert_eq!(field(obj, "cactus_rebuilds").as_u64(), s.cactus_rebuilds);
    assert_eq!(field(obj, "cactus_absorbed").as_u64(), s.cactus_absorbed);
    assert_eq!(field(obj, "cactus_repairs").as_u64(), s.cactus_repairs);
    assert_eq!(field(obj, "repair_fallbacks").as_u64(), s.repair_fallbacks);
    assert!((field(obj, "cactus_seconds").as_f64() - s.cactus_seconds).abs() < 1e-6);

    // Exercised counters really are non-zero, so the equalities above
    // compared real values, not default zeros.
    assert_eq!(s.insertions, 1);
    assert_eq!(s.deletions, 2);
    assert_eq!(s.flow_deletes, 1);
    assert_eq!(s.queries, 2);
}
