//! Ingestion A/B bench: METIS text parsing vs zero-copy `.smcpack` load.
//!
//! For each corpus instance the graph is materialised twice on disk — as
//! METIS text and as a binary pack — and both load paths are timed cold
//! (first touch after writing) and warm (best-of-reps). Before anything
//! is timed, the two loaded graphs must be *identical*: equal CSR
//! sections, equal [`CsrGraph::fingerprint`] (the pack path replays the
//! stored fingerprint without hashing), and equal λ under `noi-viecut` —
//! the pack changes how bytes reach memory, not what graph they denote.
//!
//! At `SMC_SCALE=small`/`full` the warm pack load must beat the warm
//! text parse by ≥ 10× (geometric mean over the corpus) — the PR's
//! acceptance bar; `tiny` (CI) runs the identity checks only, where a
//! mmap-vs-parse timing on an 8-vertex graph is pure noise.
//!
//! Results are persisted as `results/BENCH_<name>.json`
//! (`ingest <name>`, default `ingest`) and diff through `bench-diff`
//! like every other baseline — see ROADMAP.md "Performance".

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use mincut_bench::instances::{social_proxy, web_proxy, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::time_reps;
use mincut_bench::table::Table;
use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;
use mincut_graph::io::{read_metis, write_metis};
use mincut_graph::pack::{load_pack, write_pack_file};
use mincut_graph::CsrGraph;

/// Acceptance bar: warm pack load vs warm text parse, geometric mean
/// over the corpus, at non-tiny scales.
const SPEEDUP_TARGET: f64 = 10.0;

struct Case {
    name: String,
    graph: CsrGraph,
}

/// Ingest-bound corpus: instances big enough that the text parser does
/// real per-token work (the regime the pack format exists for).
fn cases(scale: Scale) -> Vec<Case> {
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 10,
        Scale::Full => 28,
    };
    let mut out = Vec::new();
    let (g, _) = known::two_communities(60 * unit, 66 * unit, 2, 3, 1);
    out.push(Case {
        name: format!("two_communities_{}", g.n()),
        graph: g,
    });
    let (g, _) = known::ring_of_cliques(6 + unit, 12 * unit, 2, 1);
    out.push(Case {
        name: format!("ring_of_cliques_{}", g.n()),
        graph: g,
    });
    let g = social_proxy(900 * unit, 42);
    out.push(Case {
        name: format!("social_{}", g.n()),
        graph: g,
    });
    let g = web_proxy(
        match scale {
            Scale::Tiny => 9,
            Scale::Small => 13,
            Scale::Full => 15,
        },
        7,
    );
    out.push(Case {
        name: format!("web_{}", g.n()),
        graph: g,
    });
    out
}

fn parse_text(path: &Path) -> CsrGraph {
    let f = File::open(path).expect("open metis text");
    read_metis(BufReader::new(f)).expect("parse metis text")
}

fn mmap_pack(path: &Path) -> CsrGraph {
    load_pack(path).expect("load pack")
}

fn lambda_of(g: &CsrGraph) -> u64 {
    Session::new(g)
        .options(SolveOptions::new().seed(0xadd))
        .run("noi-viecut")
        .expect("solve")
        .cut
        .value
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ingest".into());
    let scale = Scale::from_env();
    let reps = (scale.repetitions() * 3).max(3);
    let mut report = BenchReport::new(name, scale);
    println!("== Ingest A/B: METIS text parse vs zero-copy pack mmap (scale {scale:?}) ==\n");

    let dir = std::env::temp_dir().join(format!("smc-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut table = Table::new(&[
        "instance", "text_kb", "pack_kb", "text_s", "pack_s", "speedup", "lambda",
    ]);
    let mut speedups: Vec<(String, f64)> = Vec::new();

    for case in cases(scale) {
        let g = &case.graph;
        let text_path = dir.join(format!("{}.metis", case.name));
        let pack_path = dir.join(format!("{}.smcpack", case.name));
        {
            let f = File::create(&text_path).expect("create metis text");
            write_metis(g, BufWriter::new(f)).expect("write metis text");
        }
        write_pack_file(g, &pack_path).expect("write pack");
        let text_kb = std::fs::metadata(&text_path).unwrap().len() / 1024;
        let pack_kb = std::fs::metadata(&pack_path).unwrap().len() / 1024;

        // ---- identity first, timing second: both paths must yield the
        // same graph, fingerprint and λ before a single row is recorded.
        let (tg, text_cold_s) = time_reps(1, || parse_text(&text_path));
        let (pg, pack_cold_s) = time_reps(1, || mmap_pack(&pack_path));
        assert_eq!(tg, pg, "{}: text and pack graphs differ", case.name);
        assert_eq!(
            tg.fingerprint(),
            pg.fingerprint(),
            "{}: fingerprint mismatch between load paths",
            case.name
        );
        assert_eq!(tg.fingerprint(), g.fingerprint());
        if cfg!(all(
            unix,
            target_pointer_width = "64",
            target_endian = "little"
        )) {
            assert!(
                pg.is_mmap_backed(),
                "{}: pack load fell back to copying on a mmap-capable target",
                case.name
            );
        }
        let (tl, pl) = (lambda_of(&tg), lambda_of(&pg));
        assert_eq!(tl, pl, "{}: λ mismatch between load paths", case.name);

        // ---- warm timings, interleaved batches (min-of-batches).
        let (mut text_s, mut pack_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let (_, t) = time_reps(reps, || parse_text(&text_path));
            text_s = text_s.min(t);
            let (_, p) = time_reps(reps, || mmap_pack(&pack_path));
            pack_s = pack_s.min(p);
        }

        let speedup = text_s.max(1e-9) / pack_s.max(1e-9);
        table.row(vec![
            case.name.clone(),
            text_kb.to_string(),
            pack_kb.to_string(),
            format!("{text_s:.6}"),
            format!("{pack_s:.6}"),
            format!("{speedup:.1}x"),
            tl.to_string(),
        ]);
        speedups.push((case.name.clone(), speedup));

        for (mode, wall_s, r) in [
            ("ingest/text-cold", text_cold_s, 1),
            ("ingest/text-warm", text_s, reps),
            ("ingest/pack-cold", pack_cold_s, 1),
            ("ingest/pack-warm", pack_s, reps),
        ] {
            let mut e = BenchEntry::named(&case.name, mode, 1, g.n(), g.m());
            e.lambda = tl;
            e.wall_s = wall_s;
            e.reps = r;
            report.push(e);
        }
    }

    println!("-- ingest: cold = first touch, warm = best of {reps} reps × 3 batches --");
    table.emit("ingest");

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write BENCH json: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Acceptance bar: geometric mean of warm speedups across the corpus
    // (per-instance timings on a busy machine swing; the aggregate is
    // the claim the PR makes, and the tables above are emitted first so
    // a failed bar still leaves the data on disk).
    if scale != Scale::Tiny {
        let geomean = (speedups.iter().map(|(_, s)| s.ln()).sum::<f64>()
            / speedups.len().max(1) as f64)
            .exp();
        println!("\npack-mmap vs text-parse warm speedup, geometric mean: {geomean:.1}×");
        assert!(
            geomean >= SPEEDUP_TARGET,
            "pack ingest geomean speedup {geomean:.1} below the {SPEEDUP_TARGET}× acceptance \
             bar ({speedups:?})"
        );
    }
    println!("text/pack graphs, fingerprints and λ identical on every instance ✓");
}
