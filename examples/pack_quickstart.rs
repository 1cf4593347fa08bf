//! Zero-copy graph packs: write once, mmap forever.
//!
//! Text formats (METIS, edge lists) pay a full tokenise-validate-build
//! pass on *every* load. A `.smcpack` pays it once — `write_pack_file`
//! serialises the finished CSR sections verbatim — and every later
//! `load_pack` just maps the file and borrows the sections in place:
//! O(1) validation, no parsing, no per-element allocation, and the
//! stored fingerprint replays without hashing (so `MinCutService`
//! cut-cache keys cost nothing to recompute). This example:
//!
//! * builds a clustered graph and packs it next to a METIS rendering;
//! * loads it back zero-copy and shows the solvers, the contraction
//!   engine and the dynamic overlay running *unchanged* on the
//!   mmap-backed storage;
//! * times both load paths, which is the whole point.
//!
//! The CLI spells the same thing `mincut pack <GRAPH> [-o FILE]`, and
//! every mode (`--batch`, `--stream`, `--cactus`, plain solves) accepts
//! `.smcpack` paths transparently.
//!
//! Run with: `cargo run --release --example pack_quickstart`

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

use sm_mincut::graph::generators::known::two_communities;
use sm_mincut::graph::io::{read_metis, write_metis};
use sm_mincut::{load_pack, write_pack_file, DynamicMinCut, Session, SolveOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("smc-pack-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let metis_path = dir.join("communities.metis");
    let pack_path = dir.join("communities.smcpack");

    // A graph worth re-loading: two dense communities, λ = the 3-edge
    // bridge between them.
    let (g, lambda) = two_communities(600, 660, 3, 2, 1);
    write_metis(&g, BufWriter::new(File::create(&metis_path)?))?;
    write_pack_file(&g, &pack_path)?;
    println!(
        "wrote {} ({} KiB text) and {} ({} KiB pack)",
        metis_path.display(),
        std::fs::metadata(&metis_path)?.len() / 1024,
        pack_path.display(),
        std::fs::metadata(&pack_path)?.len() / 1024,
    );

    // Load path A: parse the text (tokenise, validate, build CSR).
    let t0 = Instant::now();
    let parsed = read_metis(BufReader::new(File::open(&metis_path)?))?;
    let parse_time = t0.elapsed();

    // Load path B: map the pack (O(1) header/section checks, sections
    // borrowed straight from the page cache).
    let t0 = Instant::now();
    let mapped = load_pack(&pack_path)?;
    let map_time = t0.elapsed();
    println!(
        "text parse: {parse_time:?}   pack mmap: {map_time:?}   (mmap-backed: {})",
        mapped.is_mmap_backed()
    );

    // Identical graph, identical fingerprint — the pack stores the hash,
    // so cache keys come for free on reload.
    assert_eq!(mapped, parsed);
    assert_eq!(mapped.fingerprint(), parsed.fingerprint());

    // Everything downstream runs unchanged on the borrowed storage.
    let out = Session::new(&mapped)
        .options(SolveOptions::new().seed(42))
        .run("noi-viecut")?;
    assert_eq!(out.cut.value, lambda);
    println!(
        "λ = {} on the mmap-backed graph (witness verified: {})",
        out.cut.value,
        out.cut.verify(&mapped)
    );

    // Dynamic updates too: they land in the `DeltaGraph` overlay, the
    // mapped sections are never copied, and a compaction writes owned ones.
    let mut dm = DynamicMinCut::new(mapped, "noi-viecut", SolveOptions::new().seed(42))?;
    let report = dm.insert_edge(0, 700, 5)?;
    println!(
        "after inserting a 5-weight bridge edge: λ = {}",
        report.lambda
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
