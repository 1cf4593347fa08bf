//! End-to-end observability check: a real `mincut --stream` run over
//! the hand-verified `tests/data/barbell.trace` with `--trace-out` must
//! produce a Chrome trace whose `dynamic/update` instant events carry
//! exactly the λ values and cactus-maintenance classifications of the
//! repair table in `tests/data/README.md`, and one `flow/max_flow` span
//! per s-t flow of the cactus maintenance. This pins the whole chain —
//! dynamic classification detection, the span sink, the exporter's JSON
//! — to the same ground truth the dynamic unit tests use. A second check
//! reads the thread-spawn counter from `--metrics-out`.

use mincut_bench::report::json::{self, Value};

fn field<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[test]
fn stream_trace_matches_hand_verified_repair_table() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = tempfile_path("barbell_stream_trace.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_mincut"))
        .args([
            "--stream",
            &format!("{root}/tests/data/barbell.trace"),
            &format!("{root}/tests/data/barbell.txt"),
            "--cactus",
            "--trace-out",
            out.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run the mincut binary");
    assert!(status.success(), "stream run failed");

    let text = std::fs::read_to_string(&out).expect("trace file written");
    let _ = std::fs::remove_file(&out);
    let parsed = json::parse(&text).expect("trace is valid JSON");
    let events = parsed
        .as_obj()
        .and_then(|o| field(o, "traceEvents"))
        .and_then(Value::as_arr)
        .expect("traceEvents array");

    // (op, lambda, cactus action) per trace line, from the table in
    // tests/data/README.md: q / i 0 3 2 / d 3 4 / q / d 4 5 / i 3 4 5 / q.
    let expected = [
        ("query", 1, "none"),
        ("insert", 2, "fallback-rebuild"),
        ("delete", 1, "repair"),
        ("query", 1, "none"),
        ("delete", 0, "fallback-rebuild"),
        ("insert", 1, "fallback-rebuild"),
        ("query", 1, "none"),
    ];

    let updates: Vec<&[(String, Value)]> = events
        .iter()
        .filter_map(Value::as_obj)
        .filter(|e| field(e, "name").and_then(Value::as_str) == Some("dynamic/update"))
        .collect();
    assert_eq!(
        updates.len(),
        expected.len(),
        "one dynamic/update event per trace op"
    );
    for (i, (ev, (op, lambda, cactus))) in updates.iter().zip(&expected).enumerate() {
        let args = field(ev, "args").and_then(Value::as_obj).expect("args");
        assert_eq!(
            field(args, "op").and_then(Value::as_str),
            Some(*op),
            "op of update {i}"
        );
        assert_eq!(
            field(args, "lambda").map(Value::as_u64),
            Some(*lambda),
            "lambda after update {i}"
        );
        assert_eq!(
            field(args, "cactus").and_then(Value::as_str),
            Some(*cactus),
            "cactus action of update {i}"
        );
        assert_eq!(
            field(ev, "ph").and_then(Value::as_str),
            Some("i"),
            "dynamic/update is an instant event"
        );
    }

    // The solver spans of the initial solve and the re-solves must be
    // in the same trace (the stream registers through the service).
    let has_solve = events
        .iter()
        .filter_map(Value::as_obj)
        .any(|e| field(e, "name").and_then(Value::as_str) == Some("solve"));
    assert!(has_solve, "solver spans present alongside update events");

    // Every s-t flow of the cactus builds and the internal-delete repair
    // runs through the one max-flow engine, one span per call.
    let flow_spans: Vec<&str> = events
        .iter()
        .filter_map(Value::as_obj)
        .filter_map(|e| field(e, "name").and_then(Value::as_str))
        .filter(|name| name.starts_with("flow/"))
        .collect();
    assert_eq!(flow_spans.len(), 15, "one span per max flow");
    assert!(
        flow_spans.iter().all(|&name| name == "flow/max_flow"),
        "one s-t flow engine: {flow_spans:?}"
    );
}

/// `--metrics-out` carries the process's thread-spawn count: a 1-thread
/// ParCut solve spawns no thread, a 2-thread one spawns its scan workers.
#[test]
fn metrics_export_counts_spawned_threads() {
    let root = env!("CARGO_MANIFEST_DIR");
    let spawned = |threads: &str| {
        let out = tempfile_path(&format!("grid3x3_metrics_t{threads}.json"));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_mincut"))
            .args(["-t", threads, "--no-reduce", "-a", "parcut"])
            .arg(format!("{root}/tests/data/grid3x3.txt"))
            .arg("--metrics-out")
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run the mincut binary");
        assert!(status.success(), "-t {threads} run failed");
        let text = std::fs::read_to_string(&out).expect("metrics file written");
        let _ = std::fs::remove_file(&out);
        let parsed = json::parse(&text).expect("metrics are valid JSON");
        parsed
            .as_obj()
            .and_then(|o| field(o, "counters"))
            .and_then(Value::as_obj)
            .and_then(|c| field(c, "par.threads_spawned"))
            .map(Value::as_u64)
            .expect("par.threads_spawned counter")
    };
    assert_eq!(spawned("1"), 0, "a 1-thread solve spawns no thread");
    assert!(spawned("2") >= 2, "a 2-thread ParCut spawns its workers");
}

/// A collision-safe path in the target tmpdir (no tempfile crate in
/// this offline build).
fn tempfile_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smc-{}-{name}", std::process::id()));
    p
}
