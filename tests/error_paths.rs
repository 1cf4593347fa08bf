//! Error-path coverage: malformed inputs are values (`GraphIoError`,
//! `MinCutError`) — never panics — and the CLI turns them into its
//! documented exit codes (0 ok, 1 runtime failure, 2 usage error),
//! including per-entry failures in `--batch` manifests.

use std::io::Cursor;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use sm_mincut::graph::io::{read_edge_list, read_metis, GraphIoError};
use sm_mincut::{
    parse_trace, CsrGraph, DynamicMinCut, MinCutError, Session, SolveOptions, SolverRegistry,
};

// ---------------------------------------------------------------------
// Library layer: parsers.
// ---------------------------------------------------------------------

fn metis_err(text: &str) -> GraphIoError {
    read_metis(Cursor::new(text)).expect_err(text)
}

#[test]
fn malformed_metis_headers_are_parse_errors() {
    for text in [
        "",                    // no header at all
        "% only comments\n",   // ditto
        "x 3\n",               // vertex count not a number
        "3\n1\n1\n1\n",        // missing edge count
        "2 1 111\n1 2\n2 1\n", // vertex sizes unsupported
        "3 5\n2\n1\n\n",       // edge count contradicts lists
        "2 1\n2\n1\n2\n",      // more vertex lines than vertices
        "2 1\n3\n1\n",         // neighbour out of range
        "2 1 001\n2\n1 1\n",   // missing edge weight
    ] {
        assert!(
            matches!(metis_err(text), GraphIoError::Parse { .. }),
            "{text:?}"
        );
    }
}

#[test]
fn negative_weights_and_self_loops_are_rejected_not_panics() {
    // Edge lists.
    for text in ["0 1 -5\n", "-1 2\n", "3 3\n", "0 1\n1 1 2\n"] {
        let err = read_edge_list(Cursor::new(text), None).expect_err(text);
        assert!(matches!(err, GraphIoError::Parse { .. }), "{text:?}");
    }
    // METIS: negative weight, self-loop.
    for text in ["2 1 001\n2 -1\n1 -1\n", "2 1\n1\n2\n"] {
        assert!(
            matches!(metis_err(text), GraphIoError::Parse { .. }),
            "{text:?}"
        );
    }
}

/// Graph files whose total edge weight W (each edge once) passes
/// `EdgeWeight::MAX / 2`: weights, degrees and cut values used to wrap,
/// and every solver printed λ = 0.
const OVERFLOWING_EDGE_LISTS: [(&str, &str); 3] = [
    (
        "wrap_max.txt",
        "0 1 18446744073709551615\n1 2 18446744073709551615\n2 0 1\n",
    ),
    (
        "wrap_2_63.txt",
        "0 1 9223372036854775808\n1 2 9223372036854775808\n2 0 9223372036854775808\n",
    ),
    ("wrap_merge.txt", "0 1 18446744073709551615\n0 1 1\n1 2 1\n"),
];

/// The path 0–1–2 at the bound: W = 2^62 + (2^62 − 1) = EdgeWeight::MAX / 2.
const PATH_AT_THE_BOUND: &str = "0 1 4611686018427387904\n1 2 4611686018427387903\n";

#[test]
fn total_edge_weight_past_the_bound_is_a_parse_error() {
    for (name, text) in OVERFLOWING_EDGE_LISTS {
        let err = read_edge_list(Cursor::new(text), None).expect_err(name);
        assert!(
            matches!(err, GraphIoError::Parse { line: 1, .. }),
            "{name}: {err}"
        );
    }
    // At the bound every registry solver still solves exactly.
    let g = read_edge_list(Cursor::new(PATH_AT_THE_BOUND), None).unwrap();
    for entry in SolverRegistry::global().entries() {
        let name = entry.canonical;
        for opts in [SolveOptions::new(), SolveOptions::new().no_reductions()] {
            let out = Session::new(&g).options(opts).run(name).unwrap();
            assert_eq!(out.cut.value, (1 << 62) - 1, "{name}");
            assert!(out.cut.verify(&g), "{name}");
        }
    }
}

#[test]
fn solver_errors_are_values_not_panics() {
    let tiny = CsrGraph::from_edges(1, &[]);
    assert_eq!(
        Session::new(&tiny).run("noi").unwrap_err(),
        MinCutError::TooFewVertices { n: 1 }
    );
    let (g, _) = sm_mincut::graph::generators::known::cycle_graph(4, 1);
    assert!(matches!(
        Session::new(&g).run("no-such-solver").unwrap_err(),
        MinCutError::UnknownSolver { .. }
    ));
    assert!(matches!(
        Session::new(&g)
            .options(SolveOptions::new().threads(0))
            .run("noi")
            .unwrap_err(),
        MinCutError::InvalidOptions { .. }
    ));

    // A sided initial bound is checked against the graph for every
    // solver, since each one adopts it as λ̂: a side that costs more than
    // its value, a short side and a side that is no cut at all are option
    // errors, not a wrong λ. On C5 (λ = 2), {0, 2} costs 4.
    let (g, _) = sm_mincut::graph::generators::known::cycle_graph(5, 1);
    let lies: [(u64, Vec<bool>); 3] = [
        (1, vec![true, false, true, false, false]),
        (1, vec![true, false]),
        (0, vec![true; 5]),
    ];
    for entry in SolverRegistry::global().entries() {
        let name = entry.canonical;
        for base in [SolveOptions::new(), SolveOptions::new().no_reductions()] {
            for (value, side) in &lies {
                let opts = base.clone().initial_bound(*value, Some(side.clone()));
                let err = Session::new(&g).options(opts).run(name).unwrap_err();
                assert!(
                    matches!(err, MinCutError::InvalidOptions { .. }),
                    "{name}, bound {value} on {side:?}: {err:?}"
                );
            }
            let honest = base.initial_bound(2, Some(vec![true, true, false, false, false]));
            let out = Session::new(&g).options(honest).run(name).unwrap();
            assert_eq!(out.cut.value, 2, "{name}");
            assert!(out.cut.verify(&g), "{name}");
        }
    }
}

#[test]
fn trace_parser_rejections_are_values_with_line_numbers() {
    // Each bad line sits on line 2 behind a valid `q`, proving the
    // reported location is the offending line, not just "line 1".
    for (line, needle) in [
        ("x 0 1", "unknown operation"),
        ("insert 0 1 2", "unknown operation"),
        ("qcount", "expected i, d, q, qc or qs"),
        ("i 0 1", "missing weight"),
        ("d 0", "missing target vertex"),
        ("i 0 9 1", "out of range"),
        ("d 0 9", "out of range"),
        ("i 0 1 -3", "negative weight"),
        ("d -1 0", "negative vertex"),
        ("i 0 1 0", "zero-weight"),
        ("i 1 1 2", "self-loop"),
        ("d 1 1", "self-loop"),
        ("q stray", "trailing token"),
        ("i 0 1 2 3", "trailing token"),
        ("i zero 1 2", "invalid source"),
        ("qc 1", "trailing token"),
        ("qs 0", "missing target vertex"),
        ("qs 0 9", "out of range"),
        ("qs 2 2", "distinct vertices"),
        ("qs 0 1 2", "trailing token"),
    ] {
        let err = parse_trace(Cursor::new(format!("q\n{line}\n")), 5).expect_err(line);
        match err {
            MinCutError::TraceParse { line: no, message } => {
                assert_eq!(no, 2, "{line:?}");
                assert!(message.contains(needle), "{line:?}: {message}");
            }
            other => panic!("{line:?}: expected TraceParse, got {other:?}"),
        }
    }
    // Comments and blank lines are not operations.
    assert_eq!(
        parse_trace(Cursor::new("# c\n\n% c\n"), 3).unwrap(),
        Vec::new()
    );
}

#[test]
fn dynamic_updates_reject_bad_edges_as_values() {
    let (g, l) = sm_mincut::graph::generators::known::cycle_graph(5, 1);
    let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
    for result in [
        dm.insert_edge(1, 1, 2), // self-loop
        dm.insert_edge(0, 7, 1), // out of range
        dm.insert_edge(0, 2, 0), // zero weight
        dm.delete_edge(0, 2),    // no such chord
    ] {
        assert!(matches!(result, Err(MinCutError::InvalidUpdate { .. })));
    }
    assert_eq!(dm.lambda(), l, "failed updates leave the state untouched");
    assert_eq!(dm.epoch(), 0);
}

/// Regression: a failed re-solve used to poison a `DynamicMinCut`
/// forever — every later operation errored with no recovery path.
/// `rebuild()` re-solves from the current `DeltaGraph` state and clears
/// the poison once the cause (here: a zero time budget) is fixed.
#[test]
fn poisoned_maintainer_recovers_through_rebuild() {
    let (g, l) = sm_mincut::graph::generators::known::two_communities(6, 6, 1, 2, 1);
    let mut dm = DynamicMinCut::new(g, "noi", SolveOptions::new()).unwrap();
    dm.enable_cactus().unwrap();
    assert_eq!(dm.lambda(), l);

    // The crossing insert mutates the graph, then its re-solve trips on
    // the zero budget: the maintainer is poisoned, and without a
    // recovery path every later op would fail forever.
    dm.options_mut().time_budget = Some(std::time::Duration::ZERO);
    dm.insert_edge(1, 7, 1).unwrap_err();
    assert!(dm.poisoned().is_some());
    assert!(dm.check_consistent().is_err());
    dm.insert_edge(2, 8, 1).unwrap_err();
    dm.count_min_cuts().unwrap_err();

    // rebuild() while the cause persists fails and stays poisoned —
    // never serves a stale λ.
    dm.rebuild().unwrap_err();
    assert!(dm.poisoned().is_some());

    // Fix the cause: rebuild clears the poison, λ reflects the stuck
    // mutation, and the cactus serves again.
    dm.options_mut().time_budget = None;
    let report = dm.rebuild().unwrap();
    assert!(dm.poisoned().is_none());
    assert_eq!(report.lambda, l + 1, "the poisoned insert did stick");
    assert_eq!(dm.graph().cut_value(dm.witness()), l + 1);
    assert!(dm.count_min_cuts().unwrap() >= 1);
    let r = dm.insert_edge(2, 8, 1).unwrap();
    assert_eq!(r.lambda, l + 2, "updates serve again after recovery");
}

// ---------------------------------------------------------------------
// Library layer: binary pack rejection.
// ---------------------------------------------------------------------

/// Every way a `.smcpack` can be corrupt surfaces as a [`PackError`]
/// value — and converts into [`MinCutError::PackFormat`] at the session
/// boundary — never UB, never a panic.
#[test]
fn corrupt_packs_are_values_not_panics() {
    use sm_mincut::{read_pack, write_pack, PackError};

    let (g, _) = sm_mincut::graph::generators::known::cycle_graph(6, 2);
    let mut good = Vec::new();
    write_pack(&g, &mut good).unwrap();

    // Truncation at every prefix length: always an error, never a crash.
    for len in 0..good.len() {
        let err = read_pack(&mut &good[..len]).expect_err("truncated pack accepted");
        assert!(
            matches!(
                err,
                PackError::Truncated { .. }
                    | PackError::SectionLength { .. }
                    | PackError::Corrupt { .. }
            ),
            "prefix {len}: {err:?}"
        );
    }

    // Bad magic, version skew, unknown flags, overflowing section
    // length, misaligned data offset — each one a distinct rejection.
    let corrupt = |mutate: fn(&mut Vec<u8>)| {
        let mut bytes = good.clone();
        mutate(&mut bytes);
        read_pack(&mut &bytes[..]).expect_err("corrupt pack accepted")
    };
    assert!(matches!(corrupt(|b| b[0] = b'X'), PackError::BadMagic));
    assert!(matches!(
        corrupt(|b| b[8] = 99),
        PackError::VersionSkew { found: 99, .. }
    ));
    assert!(matches!(
        corrupt(|b| b[12] = 0xff),
        PackError::UnknownFlags { .. }
    ));
    assert!(matches!(
        // n := u64::MAX — the section-size multiplication must not wrap.
        corrupt(|b| b[16..24].copy_from_slice(&u64::MAX.to_le_bytes())),
        PackError::Corrupt { .. } | PackError::SectionLength { .. } | PackError::Truncated { .. }
    ));
    assert!(matches!(
        corrupt(|b| b[40..44].copy_from_slice(&65u32.to_le_bytes())),
        PackError::Misaligned { offset: 65 }
    ));

    // The session boundary renders them as MinCutError::PackFormat.
    let err = MinCutError::from(corrupt(|b| b[0] = b'X'));
    assert!(matches!(err, MinCutError::PackFormat { .. }));
    assert!(err.to_string().starts_with("invalid graph pack:"), "{err}");
}

// ---------------------------------------------------------------------
// CLI layer: exit codes.
// ---------------------------------------------------------------------

fn mincut_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mincut"))
}

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn scratch_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mincut-error-paths");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

#[test]
fn cli_pack_mode_exit_codes() {
    let dir = std::env::temp_dir().join("mincut-error-paths");
    std::fs::create_dir_all(&dir).unwrap();

    // Pack a golden instance: exit 0, the stdout row carries n/m and
    // the stored fingerprint.
    let packed = dir.join("triangle.smcpack");
    let out = mincut_bin()
        .arg("pack")
        .arg(data("triangle.graph"))
        .arg("-o")
        .arg(&packed)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("packed n=3 m=3"), "{stdout}");
    assert!(stdout.contains("fingerprint="), "{stdout}");

    // The pack is accepted wherever a graph path is: solving it gives
    // the golden λ.
    let out = mincut_bin().arg(&packed).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("lambda 2"), "{stdout}");

    // Usage errors: no input, two inputs, unknown flag, -o without a
    // value, output == input (an in-place repack would truncate the
    // mapping under the loaded graph).
    for args in [
        vec![],
        vec!["a.graph".to_string(), "b.graph".to_string()],
        vec!["--frobnicate".to_string()],
        vec!["a.graph".to_string(), "-o".to_string()],
        vec![
            packed.display().to_string(),
            "-o".to_string(),
            packed.display().to_string(),
        ],
    ] {
        let out = mincut_bin().arg("pack").args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "pack {args:?}");
    }
    assert_eq!(
        mincut_bin()
            .args(["pack", "--help"])
            .output()
            .unwrap()
            .status
            .code(),
        Some(0)
    );

    // Unreadable / malformed input: runtime failure.
    let out = mincut_bin()
        .args(["pack", "/nonexistent/nope.graph"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // A corrupt pack is a runtime failure naming the format error —
    // both under `pack` (repack) and as a solve input.
    let corrupt = dir.join("corrupt.smcpack");
    let mut bytes = std::fs::read(&packed).unwrap();
    bytes[8] = 99; // version skew
    std::fs::write(&corrupt, &bytes).unwrap();
    let repack_to = dir.join("repacked.smcpack").display().to_string();
    for args in [vec!["pack".to_string()], vec![]] {
        let mut cmd = mincut_bin();
        cmd.args(&args).arg(&corrupt);
        if args.first().is_some_and(|a| a == "pack") {
            cmd.args(["-o", &repack_to]);
        }
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("failed to load pack"), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_prints_no_lambda_whose_witness_fails_verification() {
    // A pack of C5 (λ = 2) whose first arc weighs 5 more than its
    // reverse arc. The framing stays valid, so the solvers run and return
    // a value that their witness's cut value on the loaded graph does not
    // match: exit 1, and no `lambda` line on stdout.
    let dir = std::env::temp_dir().join("mincut-error-paths");
    std::fs::create_dir_all(&dir).unwrap();
    let packed = dir.join("cycle5_skewed.smcpack");
    let out = mincut_bin()
        .arg("pack")
        .arg(data("cycle5.graph"))
        .arg("-o")
        .arg(&packed)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let mut bytes = std::fs::read(&packed).unwrap();
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    // Sections start at the header's data offset, each one a byte
    // length, the payload and padding to 8: skip `xadj` and `adj`.
    let mut at = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
    for _ in 0..2 {
        at += 8 + word(&bytes, at).next_multiple_of(8) as usize;
    }
    let first_weight = at + 8;
    let skewed = word(&bytes, first_weight) + 5;
    bytes[first_weight..first_weight + 8].copy_from_slice(&skewed.to_le_bytes());
    std::fs::write(&packed, &bytes).unwrap();

    for solver in ["noi-viecut", "stoer-wagner", "parcut"] {
        let out = mincut_bin()
            .args(["-a", solver])
            .arg(&packed)
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{solver}: {stdout} {stderr}");
        assert!(!stdout.contains("lambda"), "{solver}: {stdout}");
        assert!(
            stderr.contains("witness failed verification"),
            "{solver}: {stderr}"
        );
    }
}

#[test]
fn cli_stats_prints_one_line_per_reduction_pass() {
    // The pipeline contracts this graph to two vertices. `--stats` prints
    // one stderr line per pass, the component split and Padberg–Rinaldi,
    // and the kernel line; `--no-reduce` prints none of them.
    let graph = data("two_triangles_bridge2.txt");
    let stderr = |no_reduce: bool| {
        let mut cmd = mincut_bin();
        cmd.arg("--stats");
        if no_reduce {
            cmd.arg("--no-reduce");
        }
        let out = cmd.arg(&graph).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "--no-reduce {no_reduce}");
        String::from_utf8(out.stderr).unwrap()
    };
    let count = |text: &str, prefix: &str| text.lines().filter(|l| l.starts_with(prefix)).count();

    let on = stderr(false);
    assert_eq!(count(&on, "reduce["), 2, "{on}");
    assert_eq!(count(&on, "reduce[components]: "), 1, "{on}");
    assert_eq!(
        count(&on, "reduce[padberg-rinaldi]: -4 vertices"),
        1,
        "{on}"
    );
    assert_eq!(
        count(&on, "kernel: n = 2, m = 1 (from n = 6, m = 7)"),
        1,
        "{on}"
    );

    let off = stderr(true);
    assert_eq!(count(&off, "reduce[") + count(&off, "kernel:"), 0, "{off}");
}

#[test]
fn cli_exit_codes_for_single_graph_failures() {
    // Unreadable graph: runtime failure.
    let out = mincut_bin()
        .arg("/nonexistent/nope.graph")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Malformed graph: runtime failure.
    let bad = scratch_file("selfloop.txt", "0 0\n");
    let out = mincut_bin().arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Unknown solver: usage error, detected before the graph loads.
    // Matula's approximation is not a registered solver either.
    for name in ["nope", "matula"] {
        let out = mincut_bin()
            .args(["-a", name])
            .arg(data("triangle.graph"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}");
    }

    // Unknown flag / missing graph: usage errors.
    assert_eq!(
        mincut_bin()
            .arg("--frobnicate")
            .output()
            .unwrap()
            .status
            .code(),
        Some(2)
    );
    assert_eq!(mincut_bin().output().unwrap().status.code(), Some(2));
}

#[test]
fn cli_rejects_total_edge_weight_overflow() {
    for (name, text) in OVERFLOWING_EDGE_LISTS {
        let out = mincut_bin().arg(scratch_file(name, text)).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("total edge weight"), "{name}: {stderr}");
    }
    let out = mincut_bin()
        .arg(scratch_file("path_at_the_bound.txt", PATH_AT_THE_BOUND))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("4611686018427387903"), "{stdout}");

    // A stream insert that would take the triangle's W = 5 past the
    // bound (the true λ after it would be 4; the wrapped sums reported
    // 1 and 0): exit 1 with an error row for the insert, λ untouched.
    let triangle = scratch_file("triangle_3_1_1.txt", "0 1 3\n1 2 1\n2 0 1\n");
    for w in ["18446744073709551615", "18446744073709551614"] {
        let trace = scratch_file(&format!("wrap_insert_{w}.trace"), &format!("i 0 2 {w}\n"));
        let out = mincut_bin()
            .args(["--stream"])
            .arg(&trace)
            .arg(&triangle)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "insert {w}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            stdout.starts_with("{\"index\":0,\"status\":\"error\"")
                && stdout.contains("total edge weight"),
            "insert {w}: {stdout}"
        );
    }
}

/// METIS files whose two copies of an edge disagree. Both used to load
/// and print a λ: vertex 3 looked isolated in the first (λ = 0), and the
/// second kept vertex 1's weight for edge 1-2.
const ASYMMETRIC_METIS: [(&str, &str); 2] = [
    // Vertex 3 lists 1, but vertex 1 does not list 3.
    ("one_way_entry.graph", "3 1\n2\n1\n1\n"),
    // Edge 1-2 weighs 5 in vertex 1's list and 4 in vertex 2's.
    (
        "weight_mismatch.graph",
        "3 3 1\n2 5 3 1\n1 4 3 2\n1 1 2 2\n",
    ),
];

#[test]
fn cli_rejects_asymmetric_metis_files() {
    for (name, text) in ASYMMETRIC_METIS {
        let out = mincut_bin().arg(scratch_file(name, text)).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("failed to parse"), "{name}: {stderr}");
        assert!(stderr.contains("edge 1-"), "{name}: {stderr}");
    }
}

#[test]
fn cli_batch_manifest_entries_report_errors_and_exit_nonzero() {
    let manifest = scratch_file(
        "mixed_manifest.txt",
        &format!(
            "# golden instances + one unreadable + one malformed\n\
             {tri}\n\
             {path} stoer-wagner\n\
             /nonexistent/missing.graph\n\
             {bad}\n",
            tri = data("triangle.graph").display(),
            path = data("path4.txt").display(),
            bad = scratch_file("negative.txt", "0 1 -3\n").display()
        ),
    );
    let out = mincut_bin()
        .args(["--batch"])
        .arg(&manifest)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "failed entries ⇒ exit 1");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one JSON object per manifest entry");
    assert!(lines[0].contains("\"status\":\"ok\"") && lines[0].contains("\"lambda\":2"));
    assert!(lines[1].contains("\"status\":\"ok\"") && lines[1].contains("\"lambda\":1"));
    assert!(lines[2].contains("\"status\":\"error\"") && lines[2].contains("cannot open"));
    assert!(lines[3].contains("\"status\":\"error\"") && lines[3].contains("negative"));

    // A fully readable manifest exits 0.
    let ok_manifest = scratch_file(
        "ok_manifest.txt",
        &format!(
            "{}\n{}\n",
            data("cycle5.graph").display(),
            data("k5.graph").display()
        ),
    );
    let out = mincut_bin()
        .args(["--batch"])
        .arg(&ok_manifest)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // Batch and a positional graph are mutually exclusive: usage error.
    let out = mincut_bin()
        .args(["--batch"])
        .arg(&ok_manifest)
        .arg(data("triangle.graph"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // --side/--edges only make sense for a single graph: usage error.
    for flag in ["--side", "--edges"] {
        let out = mincut_bin()
            .args(["--batch"])
            .arg(&ok_manifest)
            .arg(flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} in batch mode");
    }

    // --stats embeds the per-job telemetry report in each JSON row.
    let out = mincut_bin()
        .args(["--batch"])
        .arg(&ok_manifest)
        .arg("--stats")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.lines().all(|l| l.contains("\"stats\":{")),
        "{stdout}"
    );

    // Under --fail-fast, an unreadable entry poisons the rest.
    let ff_manifest = scratch_file(
        "ff_manifest.txt",
        &format!(
            "/nonexistent/missing.graph\n{}\n",
            data("triangle.graph").display()
        ),
    );
    let out = mincut_bin()
        .args(["--batch"])
        .arg(&ff_manifest)
        .arg("--fail-fast")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout
        .lines()
        .nth(1)
        .unwrap()
        .contains("\"status\":\"skipped\""));

    // Unreadable manifest itself: runtime failure.
    let out = mincut_bin()
        .args(["--batch", "/nonexistent/manifest.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_stream_mode_exit_codes_and_output() {
    // A good trace over the golden barbell: exit 0, one JSON line per
    // op with the hand-verified λ sequence (see tests/data/README.md).
    let out = mincut_bin()
        .args(["--stream"])
        .arg(data("barbell.trace"))
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lambdas: Vec<&str> = stdout
        .lines()
        .map(|l| {
            let at = l.find("\"lambda\":").expect(l) + "\"lambda\":".len();
            &l[at..at + 1]
        })
        .collect();
    assert_eq!(lambdas, vec!["1", "2", "1", "1", "0", "1", "1"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("stream: {"), "{stderr}");

    // An inexact solver is refused before the first op: VieCut's value
    // is only an upper bound, so no λ row may be printed from it.
    let out = mincut_bin()
        .args(["--stream"])
        .arg(data("barbell.trace"))
        .args(["-a", "viecut"])
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("\"lambda\""), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("exact solver"), "{stderr}");

    // Malformed traces: runtime failures (exit 1) naming the line.
    for (name, content) in [
        ("bad_op.trace", "q\nx 0 1\n"),
        ("out_of_range.trace", "i 0 99 1\n"),
        ("negative_weight.trace", "i 0 1 -2\n"),
    ] {
        let trace = scratch_file(name, content);
        let out = mincut_bin()
            .args(["--stream"])
            .arg(&trace)
            .arg(data("barbell.txt"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("trace line"), "{name}: {stderr}");
    }

    // Deleting an edge that does not exist: runtime failure with an
    // error JSON line for the offending op.
    let trace = scratch_file("missing_edge.trace", "d 0 1\nd 0 1\n");
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"status\":\"error\""),
        "{stdout}"
    );

    // Unreadable trace: runtime failure.
    let out = mincut_bin()
        .args(["--stream", "/nonexistent/trace.txt"])
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Usage errors: --stream without a graph, with --batch, with --side.
    let trace = scratch_file("ok.trace", "q\n");
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--stream needs a graph");
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .args(["--batch", "whatever.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--stream + --batch");
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .arg(data("barbell.txt"))
        .arg("--side")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--stream + --side");
}

#[test]
fn cli_failures_still_write_trace_and_metrics() {
    // Runs that fail after the arguments are checked still export
    // `--trace-out` and `--metrics-out`: a stream whose solver is refused
    // (it says what failed), a graph that does not load, and a manifest
    // that does not open.
    let dir = std::env::temp_dir().join("mincut-error-paths");
    std::fs::create_dir_all(&dir).unwrap();
    let refused = [
        "--stream".into(),
        data("barbell.trace").display().to_string(),
        "-a".into(),
        "viecut".into(),
        data("barbell.txt").display().to_string(),
    ];
    let missing = ["/nonexistent/missing.txt".to_string()];
    let batch = ["--batch".to_string(), "/nonexistent/manifest.txt".into()];
    for (tag, args) in [
        ("stream_refused", &refused[..]),
        ("missing_graph", &missing[..]),
        ("missing_manifest", &batch[..]),
    ] {
        let trace = dir.join(format!("{tag}.trace.json"));
        let metrics = dir.join(format!("{tag}.metrics.json"));
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&metrics);
        let out = mincut_bin()
            .args(args)
            .arg("--trace-out")
            .arg(&trace)
            .arg("--metrics-out")
            .arg(&metrics)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{tag}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(!stdout.contains("lambda"), "{tag}: {stdout}");
        let trace = std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(trace.contains("\"traceEvents\""), "{tag}: {trace}");
        let metrics = std::fs::read_to_string(&metrics).unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(metrics.starts_with('{'), "{tag}: {metrics}");
        if tag == "stream_refused" {
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(
                stderr.contains("cannot register the stream graph"),
                "{stderr}"
            );
        }
    }
}

#[test]
fn cli_cactus_mode_exit_codes_and_output() {
    // One-shot cactus summary on a golden instance: exit 0, the JSON
    // carries the hand-verified count (triangle: the 3 singletons).
    let out = mincut_bin()
        .arg("--cactus")
        .arg(data("triangle.graph"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"lambda\":2"), "{stdout}");
    assert!(stdout.contains("\"min_cuts\":3"), "{stdout}");

    // Usage errors, all detected before any graph loads: --cactus is a
    // single-graph mode and replaces the single-cut output flags.
    let out = mincut_bin()
        .args(["--cactus", "--batch", "whatever.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "--cactus + --batch");
    for flag in ["--side", "--edges"] {
        let out = mincut_bin()
            .arg("--cactus")
            .arg(flag)
            .arg(data("triangle.graph"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--cactus + {flag}");
    }

    // Unreadable graph under --cactus: runtime failure.
    let out = mincut_bin()
        .args(["--cactus", "/nonexistent/nope.graph"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_stream_cactus_queries_exit_codes() {
    // qc / qs against a cactus-enabled stream: exit 0, count present,
    // and `qs` on two vertices no minimum cut separates reports null.
    let trace = scratch_file("cactus_ok.trace", "qc\nqs 2 3\nqs 0 1\n");
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .arg("--cactus")
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    // barbell: λ = 1, uniquely the bridge 2–3.
    assert!(lines[0].contains("\"op\":\"qc\"") && lines[0].contains("\"count\":1"));
    assert!(lines[1].contains("\"op\":\"qs\"") && lines[1].contains("\"cut\":["));
    assert!(lines[2].contains("\"op\":\"qs\"") && lines[2].contains("\"cut\":null"));

    // Exact rows on C5 (λ = 2, its 10 minimum cuts are the pairs of
    // cycle edges, so each vertex alone is one). The heavy chord 0–2
    // leaves the 4 cuts that keep 0 and 2 together: {1}, {3}, {4},
    // {3, 4}. Deleting 0–1 crosses the maintained witness (λ = 2 − 1,
    // no re-solve) and leaves vertex 1 hanging by one unit edge: {1} is
    // the only minimum cut, reported from 0's side for `qs 0 1`.
    let trace = scratch_file(
        "cactus_cycle5.trace",
        "qs 0 2\nqs 1 3\nqs 2 4\nqc\ni 0 2 5\nqs 0 2\nqs 1 4\nqs 3 4\n\
         d 0 1\nqs 0 1\nqs 2 4\nqc\nq\n",
    );
    let expected = "\
{\"index\":0,\"op\":\"qs\",\"u\":0,\"v\":2,\"cut\":[0],\"epoch\":0,\"lambda\":2,\"resolved\":false}
{\"index\":1,\"op\":\"qs\",\"u\":1,\"v\":3,\"cut\":[1],\"epoch\":0,\"lambda\":2,\"resolved\":false}
{\"index\":2,\"op\":\"qs\",\"u\":2,\"v\":4,\"cut\":[2],\"epoch\":0,\"lambda\":2,\"resolved\":false}
{\"index\":3,\"op\":\"qc\",\"count\":10,\"epoch\":0,\"lambda\":2,\"resolved\":false}
{\"index\":4,\"op\":\"i\",\"u\":0,\"v\":2,\"w\":5,\"epoch\":1,\"lambda\":2,\"resolved\":true}
{\"index\":5,\"op\":\"qs\",\"u\":0,\"v\":2,\"cut\":null,\"epoch\":1,\"lambda\":2,\"resolved\":false}
{\"index\":6,\"op\":\"qs\",\"u\":1,\"v\":4,\"cut\":[1],\"epoch\":1,\"lambda\":2,\"resolved\":false}
{\"index\":7,\"op\":\"qs\",\"u\":3,\"v\":4,\"cut\":[3],\"epoch\":1,\"lambda\":2,\"resolved\":false}
{\"index\":8,\"op\":\"d\",\"u\":0,\"v\":1,\"epoch\":2,\"lambda\":1,\"resolved\":false}
{\"index\":9,\"op\":\"qs\",\"u\":0,\"v\":1,\"cut\":[0,2,3,4],\"epoch\":2,\"lambda\":1,\"resolved\":false}
{\"index\":10,\"op\":\"qs\",\"u\":2,\"v\":4,\"cut\":null,\"epoch\":2,\"lambda\":1,\"resolved\":false}
{\"index\":11,\"op\":\"qc\",\"count\":1,\"epoch\":2,\"lambda\":1,\"resolved\":false}
{\"index\":12,\"op\":\"q\",\"epoch\":2,\"lambda\":1,\"resolved\":false}
";
    for threads in ["1", "2"] {
        let out = mincut_bin()
            .args(["-t", threads, "--stream"])
            .arg(&trace)
            .arg("--cactus")
            .arg(data("cycle5.graph"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            expected,
            "-t {threads}"
        );
    }

    // The same queries without --cactus: runtime failure (exit 1) with
    // an error JSON row pointing at the fix.
    let out = mincut_bin()
        .args(["--stream"])
        .arg(&trace)
        .arg(data("barbell.txt"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "qc without --cactus");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"status\":\"error\"") && stdout.contains("enable_cactus"),
        "{stdout}"
    );

    // Malformed cactus queries: runtime failures naming the line.
    for (name, content) in [
        ("qs_selfpair.trace", "q\nqs 1 1\n"),
        ("qs_range.trace", "qs 0 99\n"),
        ("qc_trailing.trace", "qc 7\n"),
    ] {
        let trace = scratch_file(name, content);
        let out = mincut_bin()
            .args(["--stream"])
            .arg(&trace)
            .arg("--cactus")
            .arg(data("barbell.txt"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("trace line"), "{name}: {stderr}");
    }
}
