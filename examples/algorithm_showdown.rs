//! Runs every registered solver — the paper's optimised variants, its
//! exact comparators and the VieCut heuristic — on one instance and
//! prints a ranking table, a miniature of the paper's Figure 4.
//!
//! The solver list is *enumerated from the registry*, so a newly
//! registered algorithm shows up here with no code change.
//!
//! Run with: `cargo run --release --example algorithm_showdown`
//! (set SHOWDOWN_N to change the instance size; default 2^12 vertices;
//! set SHOWDOWN_ALL=1 to include the very slow Gomory–Hu comparator)

use sm_mincut::graph::generators::{barabasi_albert, random_hyperbolic_graph, RhgParams};
use sm_mincut::graph::kcore::k_core_lcc;
use sm_mincut::{CsrGraph, Guarantee, Session, SolveOptions, SolverRegistry};

use rand::rngs::SmallRng;
use rand::SeedableRng;

fn instances() -> Vec<(&'static str, CsrGraph)> {
    let n: usize = std::env::var("SHOWDOWN_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 12);
    let mut rng = SmallRng::seed_from_u64(5);
    let rhg = random_hyperbolic_graph(&RhgParams::paper(n, 16.0), &mut rng);
    let ba = barabasi_albert(n, 8, &mut rng);
    // BA with attach 8 has degeneracy 8; the 8-core is the deepest
    // non-empty core (the whole hub-heavy graph).
    let (core, _) = k_core_lcc(&ba, 8);
    assert!(core.n() > 2, "showdown instance must be non-trivial");
    vec![("rhg(power-law-5)", rhg), ("social-k-core", core)]
}

fn kind(g: Guarantee) -> &'static str {
    match g {
        Guarantee::Exact => "exact",
        Guarantee::UpperBound => "heuristic",
    }
}

fn main() {
    // Gomory-Hu builds n-1 max-flow trees — orders of magnitude slower
    // on the default 2^12-vertex instances (which is the paper's point
    // about flow-based methods). Opt in with SHOWDOWN_ALL=1.
    let skip_slow = std::env::var("SHOWDOWN_ALL").is_err();
    // Every parallel layer runs at the default width: all hardware threads.
    let opts = SolveOptions::new().seed(9);

    for (name, g) in instances() {
        println!("\n=== {name}: n = {}, m = {} ===", g.n(), g.m());
        let session = Session::new(&g).options(opts.clone());
        let mut rows: Vec<(String, &'static str, u64, f64)> = Vec::new();
        let mut exact_value = None;
        for entry in SolverRegistry::global().entries() {
            if skip_slow && entry.canonical == "GomoryHu" {
                continue;
            }
            let outcome = session
                .run(entry.canonical)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.canonical));
            assert!(
                outcome.cut.verify(&g),
                "{} returned a bad witness",
                entry.canonical
            );
            let guarantee = entry.caps().guarantee;
            if guarantee.is_exact() {
                match exact_value {
                    None => exact_value = Some(outcome.cut.value),
                    Some(v) => assert_eq!(v, outcome.cut.value, "{} disagrees", entry.canonical),
                }
            }
            rows.push((
                outcome.stats.algorithm.clone(),
                kind(guarantee),
                outcome.cut.value,
                outcome.stats.total_seconds,
            ));
        }
        let best = rows
            .iter()
            .filter(|r| r.1 == "exact")
            .map(|r| r.3)
            .fold(f64::INFINITY, f64::min);
        rows.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap());
        println!(
            "{:<30} {:>12} {:>8} {:>10} {:>8}",
            "algorithm", "kind", "λ", "time(ms)", "vs best"
        );
        for (name, kind, value, secs) in rows {
            println!(
                "{name:<30} {kind:>12} {value:>8} {:>10.2} {:>7.1}x",
                secs * 1e3,
                secs / best
            );
        }
        println!("exact minimum cut λ = {}", exact_value.unwrap());
    }
}
