//! Batch-serving throughput: `MinCutService` vs. a serial `Session` loop.
//!
//! Runs the 64-instance batch corpus (`SMC_SCALE` sized) three ways and
//! reports wall-clock and relative throughput:
//!
//! 1. **serial** — one `Session::run` per instance, submission order;
//! 2. **batch p ∈ {1, 2, 4}** — the same jobs through a fresh
//!    [`MinCutService`] with 1/2/4 self-scheduling workers (the corpus
//!    holds distinct graphs, so every job solves);
//! 3. **resubmit** — the whole batch twice through one service, the
//!    second time served entirely from the fingerprint cut cache.
//!
//! Values are asserted bit-identical between every mode — the bench
//! doubles as the differential harness for the serving layer. NOTE on a
//! single-core machine the batch/serial ratio hovers around 1 (no
//! parallelism to win); the ≤ 0.6× target of the roadmap applies to
//! multi-core hosts.

use std::sync::Arc;
use std::time::Instant;

use mincut_bench::instances::{batch_corpus, Scale};
use mincut_bench::table::Table;
use mincut_core::{BatchJob, MinCutService, ServiceConfig, Session, SolveOptions};

const SOLVER: &str = "noi-viecut";
const SEED: u64 = 7;

fn main() {
    let scale = Scale::from_env();
    let corpus = batch_corpus(scale);
    let opts = SolveOptions::new().seed(SEED).witness(false).threads(1);
    println!(
        "== Batch serving throughput: {} instances (scale {scale:?}, solver {SOLVER}) ==\n",
        corpus.len()
    );

    // Serial reference: one Session per instance, in order.
    let t0 = Instant::now();
    let serial: Vec<u64> = corpus
        .iter()
        .map(|inst| {
            Session::new(&inst.graph)
                .options(opts.clone())
                .run(SOLVER)
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name))
                .cut
                .value
        })
        .collect();
    let t_serial = t0.elapsed().as_secs_f64();

    let jobs: Vec<BatchJob> = corpus
        .iter()
        .map(|inst| {
            BatchJob::new(Arc::new(inst.graph.clone()), SOLVER)
                .options(opts.clone())
                .label(inst.name.clone())
        })
        .collect();

    let mut table = Table::new(&["mode", "workers", "seconds", "vs_serial", "cache_hits"]);
    table.row(vec![
        "serial".into(),
        "1".into(),
        format!("{t_serial:.4}"),
        "1.00".into(),
        "-".into(),
    ]);

    for workers in [1usize, 2, 4] {
        let service = MinCutService::new(ServiceConfig::new().concurrency(workers));
        let t0 = Instant::now();
        let report = service.run_batch(&jobs);
        let secs = t0.elapsed().as_secs_f64();
        assert!(report.all_ok(), "batch run failed");
        for (inst, (row, &expected)) in corpus.iter().zip(report.jobs.iter().zip(&serial)) {
            assert_eq!(
                row.status.outcome().unwrap().cut.value,
                expected,
                "batch value diverged from serial on {}",
                inst.name
            );
        }
        table.row(vec![
            "batch".into(),
            workers.to_string(),
            format!("{secs:.4}"),
            format!("{:.2}", secs / t_serial),
            report.stats.cache_hits.to_string(),
        ]);
    }

    // Cache demonstration: submit twice through one caching service.
    let service = MinCutService::new(ServiceConfig::new().concurrency(4));
    let _ = service.run_batch(&jobs); // warm
    let t0 = Instant::now();
    let report = service.run_batch(&jobs); // served from cache
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.stats.cache_hits,
        jobs.len(),
        "a resubmitted batch must be served entirely from the cut cache"
    );
    for (row, &expected) in report.jobs.iter().zip(&serial) {
        assert_eq!(row.status.outcome().unwrap().cut.value, expected);
    }
    table.row(vec![
        "resubmit (cached)".into(),
        "4".into(),
        format!("{secs:.4}"),
        format!("{:.2}", secs / t_serial),
        report.stats.cache_hits.to_string(),
    ]);

    table.emit("batch_throughput");
    println!("\ncache: {:?}", service.cache_stats());
    println!("batch stats: {}", report.stats.to_json());
}
