//! Cactus subsystem cost model: from-scratch construction vs. dynamic
//! maintenance.
//!
//! Two measurements per instance family, sizes following `SMC_SCALE`:
//!
//! * **build** — wall time of `CactusBuilder::build` (λ solve +
//!   all-min-cuts enumeration + structure assembly), with the phase
//!   split reported from `CactusStats` and the min-cut count checked
//!   against the structural `count_min_cuts()`. One more build-only row
//!   runs on a paper-shaped RHG (average degree 32; 2^11, 2^14 or 2^18
//!   vertices), where λ must be a `noi` solve's with reductions off and
//!   every enumerated cut must cost λ.
//! * **maintain vs rebuild** — a deterministic mixed insert/delete trace
//!   replayed through (a) a cactus-enabled `DynamicMinCut` with
//!   incremental repair on (the default), (b) the same maintainer with
//!   repair disabled (`set_cactus_repair(false)` — every
//!   structure-crossing update rebuilds), and (c) a baseline that
//!   rebuilds the cactus from scratch on the materialised graph after
//!   every update. All three must agree on λ *and* on the min-cut count
//!   after every operation — that differential check makes this bin the
//!   CI smoke test of the cactus subsystem (`SMC_SCALE=tiny`),
//!   mirroring `dynamic_throughput`. (a) and (b) are timed as the best of
//!   [`GATE_REPLAYS`](mincut_bench::runner::GATE_REPLAYS) replays, each
//!   one checked, because their ratio is gated.
//!
//! Writes `results/BENCH_cactus.json` (build, maintenance, and repair
//! rows share the report; `solver` distinguishes them — the
//! `cactus-repair` row reuses the PQ columns for the repair counters:
//! pushes = repairs, raises = fallbacks, rounds = rebuilds). An
//! optional `argv[1]` overrides the report name (e.g. `cactus_bench pr7`
//! → `results/BENCH_pr7.json`).

use std::time::Instant;

use mincut_bench::instances::{make_trace, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::best_replay;
use mincut_bench::table::Table;
use mincut_core::cactus::CactusBuilder;
use mincut_core::dynamic::{materialize, DynamicMinCut, TraceOp};
use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::{known, random_hyperbolic_graph, RhgParams};
use mincut_graph::{CsrGraph, DeltaGraph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Case {
    name: String,
    graph: CsrGraph,
}

fn cases(scale: Scale) -> Vec<Case> {
    let unit = match scale {
        Scale::Tiny => 1usize,
        Scale::Small => 2,
        Scale::Full => 4,
    };
    let mut out = Vec::new();
    // Cycles are the enumeration stress case: n(n−1)/2 minimum cuts.
    let (g, _) = known::cycle_graph(16 * unit, 1);
    out.push(Case {
        name: format!("cycle_{}", g.n()),
        graph: g,
    });
    let (g, _) = known::two_communities(10 * unit, 12 * unit, 2, 3, 1);
    out.push(Case {
        name: format!("two_communities_{}", g.n()),
        graph: g,
    });
    let (g, _) = known::ring_of_cliques(4 + unit, 4 * unit, 2, 1);
    out.push(Case {
        name: format!("ring_of_cliques_{}", g.n()),
        graph: g,
    });
    out
}

/// A build-only row on a paper-shaped graph: an RHG with average degree
/// 32, 2^11 vertices at tiny, 2^14 at small and 2^18 at full. It stays
/// out of the maintenance loop, so no other row, count or gate sees it.
/// λ must be a `noi` solve's with reductions off, every enumerated cut
/// must cost λ, and the enumeration must count what the structure does.
fn paper_shaped_build(scale: Scale) -> BenchEntry {
    let log_n = match scale {
        Scale::Tiny => 11,
        Scale::Small => 14,
        Scale::Full => 18,
    };
    let mut rng = SmallRng::seed_from_u64(0xCAC7);
    let g = random_hyperbolic_graph(&RhgParams::paper(1 << log_n, 32.0), &mut rng);
    let name = format!("rhg_2^{log_n}_deg2^5");
    let opts = SolveOptions::new().seed(5).threads(2);
    let t0 = Instant::now();
    let cactus = CactusBuilder::new()
        .options(opts.clone())
        .build(&g)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let build_s = t0.elapsed().as_secs_f64();
    let noi = Session::new(&g)
        .options(opts.clone().no_reductions())
        .run("noi")
        .unwrap_or_else(|e| panic!("{name}: noi: {e}"));
    let lambda = cactus.lambda();
    assert_eq!(lambda, noi.cut.value, "{name}: λ disagrees with noi");
    let cuts = cactus.enumerate_min_cuts(usize::MAX);
    assert_eq!(
        cuts.len() as u128,
        cactus.count_min_cuts(),
        "{name}: enumeration and structure count differ"
    );
    for side in &cuts {
        assert_eq!(g.cut_value(side), lambda, "{name}: a cut off λ");
    }
    let stats = cactus.stats();
    println!(
        "\n{name}: n {}, m {}, λ {lambda}, {} min cuts, kernel n {}, \
         build {build_s:.3} s (solve {:.3} s, enumerate {:.3} s)",
        g.n(),
        g.m(),
        cuts.len(),
        stats.kernel_n,
        stats.solve_seconds,
        stats.enumerate_seconds
    );
    let mut e = BenchEntry::named(&name, "cactus-build", opts.threads, g.n(), g.m());
    e.lambda = lambda;
    e.wall_s = build_s;
    // The phase split in the PQ-op columns, as for the other build rows.
    e.pq_pushes = (stats.solve_seconds * 1e6) as u64;
    e.pq_raises = (stats.enumerate_seconds * 1e6) as u64;
    e.pq_pops = (stats.build_seconds * 1e6) as u64;
    e.kernel_n = stats.kernel_n;
    e
}

fn main() {
    let scale = Scale::from_env();
    let updates = match scale {
        Scale::Tiny => 24usize,
        Scale::Small => 96,
        Scale::Full => 384,
    };
    let report_name = std::env::args().nth(1).unwrap_or_else(|| "cactus".into());
    println!("== Cactus build + maintenance cost (scale {scale:?}, {updates} updates) ==\n");

    let mut report = BenchReport::new(&report_name, scale);
    let mut table = Table::new(&[
        "instance",
        "lambda",
        "cuts",
        "build_s",
        "maint_s",
        "noRepair_s",
        "rebuild_s",
        "repair%",
        "noRepair/maint",
    ]);
    let (mut total_repairs, mut total_rebuilds) = (0u64, 0u64);

    for case in cases(scale) {
        let opts = SolveOptions::new().seed(5).threads(2);

        // From-scratch construction, phase split from CactusStats.
        let t0 = Instant::now();
        let cactus = CactusBuilder::new()
            .options(opts.clone())
            .build(&case.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let build_s = t0.elapsed().as_secs_f64();
        // All instance families are connected, so the structural count
        // must equal the number of cuts the builder enumerated.
        assert_eq!(
            cactus.count_min_cuts(),
            u128::from(cactus.stats().cuts),
            "{}: structural count must match the enumeration",
            case.name
        );
        let mut e = BenchEntry::named(
            &case.name,
            "cactus-build",
            opts.threads,
            case.graph.n(),
            case.graph.m(),
        );
        e.lambda = cactus.lambda();
        e.wall_s = build_s;
        // Reuse the PQ-op columns for the phase split: pushes = solve,
        // raises = enumerate, pops = assemble (all in microseconds).
        e.pq_pushes = (cactus.stats().solve_seconds * 1e6) as u64;
        e.pq_raises = (cactus.stats().enumerate_seconds * 1e6) as u64;
        e.pq_pops = (cactus.stats().build_seconds * 1e6) as u64;
        report.push(e);

        // Maintained path A/B: repair-on (the default policy) vs
        // rebuild-only (`set_cactus_repair(false)`), same trace.
        let trace = make_trace(&case.graph, updates, 0.65, 0xCAC);
        let run_maintained = |repair: bool| {
            let mut stats = None;
            let (seq, secs) = best_replay(&format!("{} repair={repair}", case.name), || {
                let mut dm = DynamicMinCut::new(case.graph.clone(), "parcut", opts.clone())
                    .unwrap_or_else(|e| panic!("{}: {e}", case.name));
                dm.enable_cactus()
                    .unwrap_or_else(|e| panic!("{}: {e}", case.name));
                dm.set_cactus_repair(repair);
                let mut seq = Vec::with_capacity(trace.len());
                for op in &trace {
                    let lambda = dm.apply(op).expect("valid trace").lambda;
                    let cactus = dm.cactus().expect("maintenance enabled");
                    seq.push((lambda, cactus.count_min_cuts()));
                }
                stats = Some(dm.stats().clone());
                seq
            });
            (secs, seq, stats.expect("at least one replay"))
        };
        let (maint_s, maintained, stats) = run_maintained(true);
        let (no_repair_s, no_repair, off_stats) = run_maintained(false);
        assert_eq!(
            maintained, no_repair,
            "{}: repair-on and rebuild-only modes diverged on (λ, #cuts)",
            case.name
        );
        assert_eq!(off_stats.cactus_repairs, 0, "{}", case.name);
        let rebuilds = stats.cactus_rebuilds;
        total_repairs += stats.cactus_repairs;
        total_rebuilds += rebuilds;

        // Baseline: from-scratch cactus on the materialised graph per op.
        let t0 = Instant::now();
        let mut shadow = DeltaGraph::new(case.graph.clone());
        let mut rebuilt = Vec::with_capacity(trace.len());
        for op in &trace {
            match *op {
                TraceOp::Insert { u, v, w } => shadow.insert_edge(u, v, w),
                TraceOp::Delete { u, v } => {
                    shadow.delete_edge(u, v).expect("valid trace");
                }
                TraceOp::Query | TraceOp::QueryCount | TraceOp::QuerySeparating { .. } => {}
            }
            let g = materialize(&shadow);
            let cactus = CactusBuilder::new()
                .options(opts.clone())
                .build(&g)
                .unwrap_or_else(|e| panic!("{}: baseline: {e}", case.name));
            rebuilt.push((cactus.lambda(), cactus.count_min_cuts()));
        }
        let rebuild_s = t0.elapsed().as_secs_f64();

        assert_eq!(
            maintained, rebuilt,
            "{}: maintained (λ, #cuts) diverged from from-scratch rebuilds",
            case.name
        );

        let mut e = BenchEntry::named(
            &case.name,
            "cactus-maintain",
            opts.threads,
            case.graph.n(),
            case.graph.m(),
        );
        e.lambda = maintained.last().expect("non-empty trace").0;
        e.wall_s = maint_s;
        e.reps = trace.len();
        e.rounds = rebuilds;
        report.push(e);
        // Repair row: the same run's repair counters (pushes = repairs,
        // raises = fallbacks, rounds = rebuilds).
        let mut e = BenchEntry::named(
            &case.name,
            "cactus-repair",
            opts.threads,
            case.graph.n(),
            case.graph.m(),
        );
        e.lambda = maintained.last().expect("non-empty trace").0;
        e.wall_s = maint_s;
        e.reps = trace.len();
        e.pq_pushes = stats.cactus_repairs;
        e.pq_raises = stats.repair_fallbacks;
        e.rounds = rebuilds;
        report.push(e);
        // Rebuild-only maintainer (the A/B control).
        let mut e = BenchEntry::named(
            &case.name,
            "cactus-rebuild-only",
            opts.threads,
            case.graph.n(),
            case.graph.m(),
        );
        e.lambda = no_repair.last().expect("non-empty trace").0;
        e.wall_s = no_repair_s;
        e.reps = trace.len();
        e.rounds = off_stats.cactus_rebuilds;
        report.push(e);
        let mut e = BenchEntry::named(
            &case.name,
            "cactus-rebuild",
            opts.threads,
            case.graph.n(),
            case.graph.m(),
        );
        e.lambda = rebuilt.last().expect("non-empty trace").0;
        e.wall_s = rebuild_s;
        e.reps = trace.len();
        report.push(e);

        let repair_share =
            stats.cactus_repairs as f64 / (stats.cactus_repairs + rebuilds).max(1) as f64;
        table.row(vec![
            case.name.clone(),
            cactus.lambda().to_string(),
            cactus.count_min_cuts().to_string(),
            format!("{build_s:.5}"),
            format!("{maint_s:.5}"),
            format!("{no_repair_s:.5}"),
            format!("{rebuild_s:.5}"),
            format!("{:.0}%", repair_share * 100.0),
            format!("{:.2}", no_repair_s / maint_s.max(1e-9)),
        ]);

        // On the clustered families at small+ scale, repair must be the
        // winning policy by a clear margin — this is the PR's headline
        // acceptance bar (tiny traces are too short to amortise).
        if scale != Scale::Tiny && case.name.starts_with("two_communities") {
            assert!(
                no_repair_s / maint_s.max(1e-9) >= 1.5,
                "{}: repair-on must beat rebuild-only by ≥1.5× ({:.3}s vs {:.3}s)",
                case.name,
                maint_s,
                no_repair_s
            );
        }
    }

    report.push(paper_shaped_build(scale));

    // Across the whole workload, the majority of structure-crossing
    // updates must resolve via local repair, not rebuild.
    let ratio = total_repairs as f64 / (total_repairs + total_rebuilds).max(1) as f64;
    println!(
        "\nrepair ratio: {total_repairs} repairs / {total_rebuilds} rebuilds = {:.0}%",
        ratio * 100.0
    );
    assert!(
        ratio >= 0.5,
        "repair ratio {ratio:.2} below the 50% acceptance bar"
    );

    table.emit("cactus");
    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write baseline: {e}"),
    }
    println!("maintained (λ, #cuts) identical to a from-scratch rebuild after every update ✓");
}
