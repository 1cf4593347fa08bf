//! Golden corpus: every solver instance and the batch serving path
//! against the hand-verified instances under `tests/data/` (see its
//! README for the per-file λ arguments).
//!
//! Three layers of assurance:
//! 1. the hand-computed λ of every file is re-checked against the
//!    brute-force oracle, so the corpus itself cannot rot;
//! 2. the full (family × queue) solver matrix runs on every instance —
//!    exact solvers must hit λ exactly, inexact ones must return a real
//!    cut ≥ λ;
//! 3. the `MinCutService` batch path must be bit-identical to a serial
//!    `Session` loop, and a resubmission must be served entirely from
//!    the fingerprint cut cache (checked via `BatchStats`).

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

use sm_mincut::graph::generators::known::{brute_force_all_min_cuts, brute_force_mincut};
use sm_mincut::graph::io::{read_edge_list, read_metis};
use sm_mincut::{
    materialize, parse_trace, BatchJob, CactusBuilder, CsrGraph, DeltaGraph, DynamicMinCut,
    MinCutService, Reductions, ServiceConfig, Session, SolveOptions, SolverRegistry, TraceOp,
};

/// `(file, hand-verified λ)` — keep in sync with tests/data/README.md.
const GOLDEN: &[(&str, u64)] = &[
    ("triangle.graph", 2),
    ("path4.txt", 1),
    ("cycle5.graph", 2),
    ("k5.graph", 4),
    ("barbell.txt", 1),
    ("square_diag.graph", 2),
    ("two_triangles_bridge2.txt", 2),
    ("star6.graph", 1),
    ("grid3x3.txt", 2),
    ("two_components.txt", 0),
];

fn load(name: &str) -> CsrGraph {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    let reader = BufReader::new(File::open(&path).unwrap_or_else(|e| panic!("{name}: {e}")));
    let parsed = if name.ends_with(".graph") || name.ends_with(".metis") {
        read_metis(reader)
    } else {
        read_edge_list(reader, None)
    };
    parsed.unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn corpus() -> Vec<(&'static str, CsrGraph, u64)> {
    GOLDEN.iter().map(|&(f, l)| (f, load(f), l)).collect()
}

/// `(file, hand-verified number of minimum cuts)` — keep in sync with
/// the cactus table in tests/data/README.md.
const GOLDEN_CACTI: &[(&str, u128)] = &[
    ("triangle.graph", 3),            // each singleton
    ("path4.txt", 3),                 // each path edge
    ("cycle5.graph", 10),             // n(n-1)/2 edge pairs
    ("k5.graph", 5),                  // each singleton
    ("barbell.txt", 1),               // the bridge
    ("square_diag.graph", 2),         // the two off-chord singletons
    ("two_triangles_bridge2.txt", 1), // the weight-2 bridge
    ("star6.graph", 5),               // each leaf edge
    ("grid3x3.txt", 4),               // the four corners
    ("two_components.txt", 1),        // 2^(c-1) - 1 with c = 2
];

/// Satellite of the cactus subsystem: the hand-verified min-cut *count*
/// of every golden instance, cross-checked three ways — the cactus
/// count, the cactus enumeration, and the brute-force all-min-cuts
/// oracle must agree exactly, on every file.
#[test]
fn golden_cactus_counts_match_brute_force() {
    assert_eq!(GOLDEN.len(), GOLDEN_CACTI.len(), "tables drifted");
    let builder = CactusBuilder::new().options(SolveOptions::new().seed(7));
    for (&(file, lambda), &(cfile, expected)) in GOLDEN.iter().zip(GOLDEN_CACTI) {
        assert_eq!(file, cfile, "tables drifted");
        let g = load(file);
        let cactus = builder.build(&g).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(cactus.lambda(), lambda, "{file}: cactus λ");
        assert_eq!(
            cactus.count_min_cuts(),
            expected,
            "{file}: the hand-verified count in GOLDEN_CACTI/README is wrong"
        );
        let (bl, bsides) = brute_force_all_min_cuts(&g);
        assert_eq!(bl, lambda, "{file}: oracle λ");
        assert_eq!(bsides.len() as u128, expected, "{file}: oracle count");
        assert_eq!(
            cactus.enumerate_min_cuts(usize::MAX),
            bsides,
            "{file}: enumerated family diverged from brute force"
        );
    }

    // The structural invariants the corpus pins down: a cycle C_n is one
    // cactus cycle with n(n-1)/2 cuts, and a disconnected instance
    // reports its component structure (λ = 0, one cactus node per
    // component, 2^(c-1) - 1 cuts).
    let c5 = builder.build(&load("cycle5.graph")).unwrap();
    assert_eq!(c5.num_cycles(), 1);
    assert_eq!(c5.count_min_cuts(), 5 * 4 / 2);
    let two = builder.build(&load("two_components.txt")).unwrap();
    assert_eq!(two.lambda(), 0);
    assert_eq!(two.components(), 2);
    assert_eq!(two.num_nodes(), 2);
    assert_eq!(two.num_bridges(), 0);
    assert_eq!(two.count_min_cuts(), 1);
}

#[test]
fn golden_lambdas_match_brute_force() {
    for (file, g, lambda) in corpus() {
        assert_eq!(
            brute_force_mincut(&g),
            lambda,
            "{file}: the hand-verified λ in GOLDEN/README is wrong"
        );
    }
}

/// The full (family × queue) matrix runs with kernelization on *and*
/// off: exact solvers must report the identical λ both ways, inexact
/// ones a real cut ≥ λ both ways.
#[test]
fn full_solver_matrix_on_golden_corpus() {
    for reductions in [Reductions::All, Reductions::None] {
        let opts = SolveOptions::new()
            .seed(0xC0FFEE)
            .threads(2)
            .reductions(reductions.clone());
        for (file, g, lambda) in corpus() {
            for solver in SolverRegistry::global().instances() {
                let name = solver.instance_name(&opts);
                let out = solver
                    .solve(&g, &opts)
                    .unwrap_or_else(|e| panic!("{name} on {file} ({reductions:?}): {e}"));
                if solver.capabilities().guarantee.is_exact() {
                    assert_eq!(out.cut.value, lambda, "{name} on {file} ({reductions:?})");
                } else {
                    assert!(
                        out.cut.value >= lambda,
                        "{name} below λ on {file} ({reductions:?})"
                    );
                }
                assert!(
                    out.cut.verify(&g),
                    "{name} witness on {file} ({reductions:?})"
                );
            }
        }
    }
}

/// Disconnected inputs: every registry solver reports λ = 0 with the
/// *same* canonical witness — the smallest component — whether
/// kernelization is on or off.
#[test]
fn disconnected_witness_is_uniform_across_all_solvers() {
    let g = load("two_components.txt");
    // Components {0,1,2} and {3,4}: the smaller one is the witness.
    let expected = vec![false, false, false, true, true];
    assert_eq!(g.cut_value(&expected), 0);
    for reductions in [Reductions::All, Reductions::None] {
        let opts = SolveOptions::new().reductions(reductions.clone());
        for solver in SolverRegistry::global().instances() {
            let name = solver.instance_name(&opts);
            let out = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.cut.value, 0, "{name} ({reductions:?})");
            assert_eq!(
                out.cut.side.as_deref(),
                Some(&expected[..]),
                "{name} ({reductions:?}): witness must be the smallest component"
            );
        }
    }
}

/// Hand-verified λ after each operation of `barbell.trace` (see the
/// README table; keep the three in sync).
const TRACE_LAMBDAS: &[u64] = &[1, 2, 1, 1, 0, 1, 1];

/// The golden update trace: the hand-verified λ sequence is re-checked
/// against the brute-force oracle on the materialised graph after every
/// step (so the table cannot rot), then `DynamicMinCut` must reproduce
/// it for several solver families — with a witness that re-costs to λ
/// on the current graph at every step.
#[test]
fn golden_update_trace_matches_hand_verified_lambdas() {
    let base = load("barbell.txt");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/barbell.trace");
    let reader = BufReader::new(File::open(&path).unwrap());
    let ops = parse_trace(reader, base.n()).unwrap();
    assert_eq!(ops.len(), TRACE_LAMBDAS.len(), "trace and table drifted");

    // Oracle pass: the table is correct.
    let mut shadow = DeltaGraph::new(base.clone());
    for (op, &expected) in ops.iter().zip(TRACE_LAMBDAS) {
        match *op {
            TraceOp::Insert { u, v, w } => shadow.insert_edge(u, v, w),
            TraceOp::Delete { u, v } => {
                shadow.delete_edge(u, v).expect("trace deletes live edges");
            }
            TraceOp::Query | TraceOp::QueryCount | TraceOp::QuerySeparating { .. } => {}
        }
        assert_eq!(
            brute_force_mincut(&materialize(&shadow)),
            expected,
            "hand-verified λ is wrong at {op:?}"
        );
    }

    // Maintainer pass: every family reproduces the sequence exactly.
    for solver in ["noi-viecut", "stoer-wagner", "parcut", "NOIλ̂-BQueue"] {
        let opts = SolveOptions::new().seed(0xC0FFEE).threads(2);
        let mut dm = DynamicMinCut::new(base.clone(), solver, opts)
            .unwrap_or_else(|e| panic!("{solver}: {e}"));
        assert_eq!(dm.lambda(), TRACE_LAMBDAS[0], "{solver}: initial solve");
        for (i, (op, &expected)) in ops.iter().zip(TRACE_LAMBDAS).enumerate() {
            let report = dm
                .apply(op)
                .unwrap_or_else(|e| panic!("{solver} op {i}: {e}"));
            assert_eq!(report.lambda, expected, "{solver} op {i} ({op:?})");
            assert!(
                dm.graph().is_proper_cut(dm.witness()),
                "{solver} op {i}: improper witness"
            );
            assert_eq!(
                dm.graph().cut_value(dm.witness()),
                expected,
                "{solver} op {i}: witness must re-cost to λ"
            );
        }
    }
}

/// Satellite of the λ = 0 one-node-per-component cactus encoding, on the
/// golden disconnected instance: a separating query across components
/// must return a side that is a union of whole components, and the
/// enumeration must respect `limit` exactly — including the c > 128
/// regime where `2^(c-1) - 1` overflows every practical limit.
#[test]
fn zero_lambda_cactus_queries_respect_components_and_limits() {
    let builder = CactusBuilder::new().options(SolveOptions::new().seed(7));
    let two = builder.build(&load("two_components.txt")).unwrap();
    assert_eq!((two.lambda(), two.components()), (0, 2));

    // Cross-component query: the side must be one whole component —
    // never a proper subset of one (a value-0 cut cannot split a
    // component).
    let side = two.min_cut_separating(0, 3).expect("different components");
    assert!(side == [true, true, true, false, false] || side == [false, false, false, true, true]);
    assert_eq!(two.min_cut_separating(3, 4), None, "same component");
    assert_eq!(two.min_cut_separating(0, 0), None, "u == v");

    // c = 2 has exactly one value-0 cut: `limit` is an exact ceiling,
    // not off by one in either direction.
    assert!(two.enumerate_min_cuts(0).is_empty());
    assert_eq!(two.enumerate_min_cuts(1).len(), 1);
    assert_eq!(two.enumerate_min_cuts(5).len(), 1, "only one cut exists");
    assert_eq!(
        two.enumerate_min_cuts(usize::MAX),
        vec![vec![false, false, false, true, true]],
        "canonical side excludes vertex 0"
    );

    // 130 isolated vertices: c = 130 > 128, the count saturates, and a
    // bounded enumeration must still emit exactly `limit` *distinct*
    // unions of components (the old 128-bit mask walk wrapped and
    // repeated itself here).
    let dust = CsrGraph::from_edges(130, &[]);
    let many = builder.build(&dust).unwrap();
    assert_eq!(many.components(), 130);
    assert_eq!(many.count_min_cuts(), u128::MAX, "saturated, not wrapped");
    let sides = many.enumerate_min_cuts(500);
    assert_eq!(sides.len(), 500);
    let mut unique = sides.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 500, "every enumerated side is distinct");
    for side in &sides {
        assert!(!side[0], "canonical sides exclude vertex 0's component");
        assert!(side.iter().any(|&b| b), "no empty side");
    }
}

/// Hand-verified min-cut *count* after each operation of
/// `barbell.trace`, plus the repair classification of every
/// structure-crossing update (see the README table; keep them in sync):
/// op 2 (`i 0 3 2`) raises λ — fallback rebuild; op 3 (`d 3 4`) crosses
/// with λ dropping by exactly w — local repair; op 5 (`d 4 5`) drops λ
/// to 0 — fallback; op 6 (`i 3 4 5`) raises λ from 0 — fallback.
const TRACE_CUT_COUNTS: &[u128] = &[1, 4, 2, 2, 1, 1, 1];

#[test]
fn golden_trace_repair_classification_is_hand_verified() {
    let base = load("barbell.txt");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/barbell.trace");
    let ops = parse_trace(BufReader::new(File::open(&path).unwrap()), base.n()).unwrap();
    assert_eq!(ops.len(), TRACE_CUT_COUNTS.len(), "trace and table drifted");

    let mut dm = DynamicMinCut::new(
        base,
        "noi-viecut",
        SolveOptions::new().seed(0xC0FFEE).threads(2),
    )
    .unwrap();
    dm.enable_cactus().unwrap();
    for (i, (op, &expected)) in ops.iter().zip(TRACE_CUT_COUNTS).enumerate() {
        dm.apply(op).unwrap_or_else(|e| panic!("op {i}: {e}"));
        assert_eq!(
            dm.count_min_cuts().unwrap(),
            expected,
            "op {i} ({op:?}): maintained count"
        );
        assert_eq!(dm.lambda(), TRACE_LAMBDAS[i], "op {i}: maintained λ");
    }
    let stats = dm.stats();
    assert_eq!(stats.cactus_repairs, 1, "only `d 3 4` repairs locally");
    assert_eq!(stats.repair_fallbacks, 3, "ops 2, 5, 6 fall back");
    assert_eq!(
        stats.cactus_rebuilds, 4,
        "the enable-time build plus one rebuild per fallback"
    );
}

/// The `.smcpack` round trip is an *identity* on the whole corpus: the
/// pack-loaded graph must equal the text-parsed one section for section
/// and fingerprint for fingerprint (the pack replays the stored hash
/// without recomputing), every registry solver must return the identical
/// (λ, witness) on both — running *unmodified* on the mmap-backed
/// storage — and `ContractionEngine` and `DeltaGraph` must behave
/// bit-identically on top of it.
#[test]
fn pack_round_trip_is_identity_on_golden_corpus() {
    use sm_mincut::graph::ContractionEngine;
    use sm_mincut::{load_pack, write_pack_file, NodeId};

    let dir = std::env::temp_dir().join(format!("smc-golden-pack-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let opts = SolveOptions::new().seed(0xC0FFEE).threads(2);

    for (file, g, lambda) in corpus() {
        let path = dir.join(format!("{file}.smcpack"));
        write_pack_file(&g, &path).unwrap_or_else(|e| panic!("{file}: write pack: {e}"));
        let pg = load_pack(&path).unwrap_or_else(|e| panic!("{file}: load pack: {e}"));
        assert_eq!(pg, g, "{file}: pack round trip changed the graph");
        assert_eq!(pg.fingerprint(), g.fingerprint(), "{file}: fingerprint");
        if cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        )) {
            assert!(pg.is_mmap_backed(), "{file}: loader fell back to copying");
        }

        // Every solver, unmodified, on the borrowed storage: identical
        // λ *and* identical witness (same seed, bit-identical graph —
        // the runs must not be distinguishable).
        for solver in SolverRegistry::global().instances() {
            let name = solver.instance_name(&opts);
            let a = solver
                .solve(&g, &opts)
                .unwrap_or_else(|e| panic!("{name} on text {file}: {e}"));
            let b = solver
                .solve(&pg, &opts)
                .unwrap_or_else(|e| panic!("{name} on pack {file}: {e}"));
            assert_eq!(a.cut.value, b.cut.value, "{name} λ on {file}");
            assert_eq!(a.cut.side, b.cut.side, "{name} witness on {file}");
            if solver.capabilities().guarantee.is_exact() {
                assert_eq!(b.cut.value, lambda, "{name} on pack {file}");
            }
            assert!(b.cut.verify(&pg), "{name} pack witness on {file}");
        }

        // ContractionEngine on mmap-backed input (reads through the
        // storage abstraction, writes a fresh owned graph).
        if pg.n() >= 2 {
            let blocks = 2usize;
            let labels: Vec<NodeId> = (0..pg.n() as NodeId)
                .map(|v| v % blocks as NodeId)
                .collect();
            let mut engine = ContractionEngine::new();
            let from_pack = engine.contract(&pg, &labels, blocks);
            let from_text = engine.contract(&g, &labels, blocks);
            assert_eq!(from_pack, from_text, "{file}: contraction diverged");
        }

        // DeltaGraph overlay on mmap-backed base: the same update burst
        // must materialise to the same graph.
        let mut d_pack = DeltaGraph::new(pg.clone());
        let mut d_text = DeltaGraph::new(g.clone());
        for d in [&mut d_pack, &mut d_text] {
            d.insert_edge(0, (g.n() - 1) as NodeId, 7);
        }
        assert_eq!(
            materialize(&d_pack),
            materialize(&d_text),
            "{file}: overlay diverged"
        );
        // Two compactions: the first retires the mapped base, the second
        // rebuilds inside it.
        for round in 1..=2 {
            for d in [&mut d_pack, &mut d_text] {
                d.insert_edge(0, (g.n() - 1) as NodeId, round);
            }
            let want = materialize(&d_text);
            assert_eq!(d_pack.compact(), &want, "{file}: pack compaction {round}");
            assert_eq!(d_text.compact(), &want, "{file}: text compaction {round}");
        }
        assert_eq!(d_pack.compactions(), 2, "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_path_is_bit_identical_to_serial_sessions_and_caches_repeats() {
    let opts = SolveOptions::new().seed(5);
    let solvers = ["noi-viecut", "NOIλ̂-BQueue", "stoer-wagner", "parcut"];

    let mut jobs = Vec::new();
    let mut serial = Vec::new();
    for (file, g, lambda) in corpus() {
        let g = Arc::new(g);
        for solver in solvers {
            let out = Session::new(&g)
                .options(opts.clone())
                .run(solver)
                .unwrap_or_else(|e| panic!("serial {solver} on {file}: {e}"));
            assert_eq!(out.cut.value, lambda, "serial {solver} on {file}");
            serial.push(out.cut.value);
            jobs.push(
                BatchJob::new(g.clone(), solver)
                    .options(opts.clone())
                    .label(format!("{file} × {solver}")),
            );
        }
    }

    for workers in [1usize, 4] {
        let service = MinCutService::new(ServiceConfig::new().concurrency(workers));
        let report = service.run_batch(&jobs);
        assert!(report.all_ok(), "{workers} workers");
        assert_eq!(report.stats.jobs, jobs.len());
        assert_eq!(report.stats.cache_hits, 0, "all keys distinct on first run");
        for (row, expected) in report.jobs.iter().zip(&serial) {
            assert_eq!(
                row.status.outcome().unwrap().cut.value,
                *expected,
                "batch diverged from serial on {}",
                row.label
            );
        }

        // Resubmission: the whole corpus must come from the cut cache.
        let again = service.run_batch(&jobs);
        assert!(again.all_ok());
        assert_eq!(again.stats.solved, 0, "{workers} workers: no re-solves");
        assert_eq!(again.stats.cache_hits, jobs.len());
        for (row, expected) in again.jobs.iter().zip(&serial) {
            assert_eq!(row.status.outcome().unwrap().cut.value, *expected);
        }
    }
}
