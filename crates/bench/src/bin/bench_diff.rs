//! Diffs two `BENCH_<name>.json` baselines: the regression detector of
//! the performance protocol (ROADMAP "Performance").
//!
//! ```text
//! bench-diff OLD.json NEW.json [--solver PREFIX] [--min-geomean X]
//! ```
//!
//! Rows are joined by `(instance, solver, threads)`; every joined pair
//! prints old/new wall seconds and the speedup, then the geometric mean
//! over the joined set (and per-solver sub-geomeans when more than one
//! solver matched). λ must agree on every joined pair — a mismatch is a
//! correctness regression, not a perf delta, and always fails the run.
//!
//! * `--solver PREFIX` restricts the join to solvers starting with
//!   `PREFIX` (e.g. `--solver scan/` matches both scan micro rows).
//! * `--min-geomean X` turns the report into a gate: exit non-zero
//!   unless the geomean speedup over the joined rows is ≥ X. Without it
//!   the run is informational (CI uses that mode at tiny scale, where
//!   wall times are noise).
//!
//! Every joined 1-thread row whose PQ-operation totals moved prints a
//! `warning: PQ-op drift` line, followed by a summary count: one thread
//! makes a solve deterministic at every graph size (every parallel layer
//! runs inline at the solve's width; `crates/core/tests/thread_width.rs`
//! asserts it), so its operation stream moves only when the scan order
//! did. Rows at ≥ 2 threads race by design and are not compared. Every
//! row whose key is in only one of the two files prints a `warning:
//! unmatched row` line, followed by a count: such a row joins nothing,
//! so no λ or timing of it is compared. Like the metadata warnings below,
//! drift and unmatched rows never change the exit code.
//!
//! Cross-machine baselines are meaningless: both files must come from
//! the same machine (the committed `results/` protocol regenerates the
//! old baseline from its tagged commit on the current machine first).
//! The tool warns when the recorded `hardware_threads` or `simd_tier`
//! (the CPU's vector level) differ: either means a different machine.

use std::process::ExitCode;

use mincut_bench::report::{LoadedEntry, LoadedReport};
use mincut_bench::table::Table;

struct Args {
    old: String,
    new: String,
    solver_prefix: Option<String>,
    min_geomean: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut solver_prefix = None;
    let mut min_geomean = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--solver" => {
                solver_prefix = Some(it.next().ok_or("--solver needs a value")?);
            }
            "--min-geomean" => {
                let v = it.next().ok_or("--min-geomean needs a value")?;
                min_geomean = Some(
                    v.parse::<f64>()
                        .map_err(|e| format!("--min-geomean: {e}"))?,
                );
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => positional.push(a),
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: bench-diff OLD.json NEW.json [--solver PREFIX] [--min-geomean X]".to_string(),
        );
    }
    Ok(Args {
        old: positional.remove(0),
        new: positional.remove(0),
        solver_prefix,
        min_geomean,
    })
}

fn geomean(speedups: &[f64]) -> f64 {
    (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (old, new) = match (LoadedReport::load(&args.old), LoadedReport::load(&args.new)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for r in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("error: {r}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== bench-diff: {} ({}, scale {}) -> {} ({}, scale {}) ==\n",
        args.old, old.name, old.scale, args.new, new.name, new.scale
    );
    if old.hardware_threads != new.hardware_threads {
        eprintln!(
            "warning: baselines record different hardware_threads ({} vs {}) — \
             cross-machine wall times do not compare",
            old.hardware_threads, new.hardware_threads
        );
    }
    // Reports written before the field existed record no tier; only warn
    // when both sides carry one and they disagree.
    if !old.simd_tier.is_empty() && !new.simd_tier.is_empty() && old.simd_tier != new.simd_tier {
        eprintln!(
            "warning: baselines record different simd_tier ({} vs {}) — \
             cross-machine wall times do not compare",
            old.simd_tier, new.simd_tier
        );
    }

    let matches = |e: &LoadedEntry| {
        args.solver_prefix
            .as_deref()
            .is_none_or(|p| e.solver.starts_with(p))
    };
    let mut table = Table::new(&[
        "instance", "solver", "thr", "old_s", "new_s", "speedup", "lambda",
    ]);
    let mut joined: Vec<(String, f64)> = Vec::new();
    let mut lambda_mismatches = 0usize;
    let (mut single_thread_rows, mut drifted) = (0usize, 0usize);
    for (oe, ne) in old.join(&new).filter(|(oe, _)| matches(oe)) {
        if oe.lambda != ne.lambda {
            eprintln!(
                "error: λ mismatch on {}/{}/{}t: {} -> {}",
                oe.instance, oe.solver, oe.threads, oe.lambda, ne.lambda
            );
            lambda_mismatches += 1;
        }
        single_thread_rows += usize::from(oe.threads == 1);
        if oe.pq_op_drift(ne) {
            eprintln!(
                "warning: PQ-op drift on {}/{}/1t: {:?} -> {:?}",
                oe.instance,
                oe.solver,
                oe.pq_ops(),
                ne.pq_ops()
            );
            drifted += 1;
        }
        // Degenerate timings (a zero from clock granularity) would poison
        // the geomean; clamp to a nanosecond.
        let speedup = oe.wall_s.max(1e-9) / ne.wall_s.max(1e-9);
        table.row(vec![
            oe.instance.clone(),
            oe.solver.clone(),
            oe.threads.to_string(),
            format!("{:.6}", oe.wall_s),
            format!("{:.6}", ne.wall_s),
            format!("{speedup:.3}"),
            ne.lambda.to_string(),
        ]);
        joined.push((oe.solver.clone(), speedup));
    }
    table.emit("diff");
    let mut unmatched = 0usize;
    for (path, mine, theirs) in [(&args.old, &old, &new), (&args.new, &new, &old)] {
        for e in mine.unmatched(theirs).filter(|e| matches(e)) {
            eprintln!(
                "warning: unmatched row {}/{}/{}t, only in {path}",
                e.instance, e.solver, e.threads
            );
            unmatched += 1;
        }
    }

    if joined.is_empty() {
        eprintln!("\nerror: no rows joined (check --solver and the two files)");
        return ExitCode::FAILURE;
    }
    let mut solvers: Vec<String> = joined.iter().map(|(s, _)| s.clone()).collect();
    solvers.sort();
    solvers.dedup();
    if solvers.len() > 1 {
        println!();
        for s in &solvers {
            let sub: Vec<f64> = joined
                .iter()
                .filter(|(sv, _)| sv == s)
                .map(|&(_, sp)| sp)
                .collect();
            println!(
                "geomean [{s}]: {:.3}x over {} rows",
                geomean(&sub),
                sub.len()
            );
        }
    }
    let all: Vec<f64> = joined.iter().map(|&(_, s)| s).collect();
    let g = geomean(&all);
    println!("\ngeomean speedup: {g:.3}x over {} joined rows", all.len());
    if drifted > 0 {
        eprintln!("warning: PQ-op drift on {drifted} of {single_thread_rows} joined 1-thread rows");
    } else {
        println!("PQ-op totals identical on all {single_thread_rows} joined 1-thread rows");
    }
    if unmatched > 0 {
        eprintln!("warning: {unmatched} unmatched rows, in one file only");
    }

    if lambda_mismatches > 0 {
        eprintln!("\nFAIL: {lambda_mismatches} λ mismatches — correctness regression");
        return ExitCode::FAILURE;
    }
    if let Some(bar) = args.min_geomean {
        if g < bar {
            eprintln!("\nFAIL: geomean {g:.3}x below the required {bar:.2}x");
            return ExitCode::FAILURE;
        }
        println!("PASS: geomean {g:.3}x >= {bar:.2}x");
    }
    ExitCode::SUCCESS
}
