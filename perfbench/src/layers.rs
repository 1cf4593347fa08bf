//! The traced run: calls each module's public entry point inside a
//! `bench/*` span opened here, reads the counters the program already
//! returns, and aggregates the program's own spans by self time.
//!
//! The solve layers run on the workload's graph. The stream layers
//! (cactus, flow, dynamic, service) run on the seed's `rhg_stream`
//! input, so every workload reports every layer; for `rhg_stream` that
//! input is its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use sm_mincut::algorithms::SolveContext;
use sm_mincut::obs::{self, ArgValue, TraceEvent};
use sm_mincut::{
    CactusBuilder, CsrGraph, EdgeWeight, ReductionPipeline, Session, SolveOptions, SolverStats,
    TraceOp,
};

use crate::cpu::process_cpu_s;
use crate::inputs::{request_options, Workload};
use crate::profile::{self, Row};
use crate::stream::{self, Kind, Replay};

/// One traced run's output: metric name → value, plus failure counts.
#[derive(Default)]
pub struct LayerReport {
    pub metrics: Vec<(String, f64)>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub table: String,
}

impl LayerReport {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one checked outcome.
    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// A graph input: its pack and reference λ.
pub struct Input<'a> {
    pub pack: &'a Path,
    pub lambda: EdgeWeight,
}

pub struct StreamInput<'a> {
    pub graph: Input<'a>,
    pub ops: &'a [TraceOp],
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _sp = obs::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs an exact solver and checks its λ against the reference.
fn solve(
    g: &CsrGraph,
    solver: &str,
    opts: SolveOptions,
    lambda: EdgeWeight,
) -> Result<SolverStats, String> {
    let out = Session::new(g)
        .options(opts)
        .run(solver)
        .map_err(|e| e.to_string())?;
    if out.cut.value != lambda {
        return Err(format!(
            "{solver}: lambda {} != reference {lambda}",
            out.cut.value
        ));
    }
    Ok(out.stats)
}

/// The `[start, end]` window of the last event called `name`.
fn window(events: &[TraceEvent], name: &str) -> (u64, u64) {
    events
        .iter()
        .rev()
        .find(|e| e.name == name)
        .map_or((0, 0), |e| (e.ts_us, e.ts_us + e.dur_us))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[((v.len() - 1) as f64 * q).round() as usize]
}

fn kind_samples(r: &Replay, kind: Kind) -> Vec<f64> {
    r.ops.iter().filter(|o| o.0 == kind).map(|o| o.1).collect()
}

pub fn run(
    w: Workload,
    main: Input<'_>,
    st: StreamInput<'_>,
    chrome_out: &Path,
) -> Result<LayerReport, String> {
    let mut rep = LayerReport::default();
    let opts = request_options();

    // Untraced baselines first: the request of the workload, and one
    // replay of the stream (its op latencies are reported untraced).
    obs::set_tracing(false);
    let plain = stream::setup(st.graph.pack)?;
    let plain_replay = stream::replay(&plain, st.ops);
    drop(plain);
    let untraced_request_s = match w {
        Workload::RhgStream => plain_replay.wall_s,
        _ => {
            let g = stream::load(main.pack)?;
            let (r, s) = timed("bench/request", || {
                solve(&g, w.solver(), opts.clone(), main.lambda)
            });
            rep.check("untraced request", r.map(|_| ()));
            s
        }
    };
    rep.check(
        "untraced replay",
        match plain_replay.failed {
            0 => Ok(()),
            k => Err(format!("{k} op(s) failed")),
        },
    );
    rep.put(
        "stream.insert_us_p50",
        1e6 * median(kind_samples(&plain_replay, Kind::Insert)),
    );
    rep.put(
        "stream.query_us_p50",
        1e6 * median(kind_samples(&plain_replay, Kind::Read)),
    );
    let deletes = kind_samples(&plain_replay, Kind::Delete);
    rep.put("stream.delete_ms_p50", 1e3 * median(deletes.clone()));
    rep.put("stream.delete_ms_p90", 1e3 * percentile(deletes, 0.9));

    obs::set_tracing(true);
    obs::take_events();

    // mincut-graph::pack
    let mut loads = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        stream::load(main.pack)?;
        loads.push(t.elapsed().as_secs_f64());
    }
    rep.put("ingest.load_ms", 1e3 * median(loads));
    let g = stream::load(main.pack)?;

    // The request itself, traced.
    let traced_request_s = match w {
        Workload::RhgStream => 0.0, // measured with the stream layers below
        _ => {
            let (r, s) = timed("bench/request", || {
                solve(&g, w.solver(), opts.clone(), main.lambda)
            });
            rep.check("traced request", r.map(|_| ()));
            s
        }
    };

    // mincut-core::reduce
    let mut stats = SolverStats::default();
    let (outcome, reduce_s) = timed("bench/reduce", || {
        ReductionPipeline::standard().run(&g, None, &mut SolveContext::new(&mut stats))
    });
    let outcome = outcome.map_err(|e| format!("reduction pipeline: {e}"))?;
    rep.put("reduce.s", reduce_s);
    for pass in [
        "components",
        "degree-bound",
        "heavy-edge",
        "padberg-rinaldi",
    ] {
        let s = outcome
            .passes
            .iter()
            .filter(|p| p.name == pass)
            .map(|p| p.seconds)
            .sum();
        rep.put(&format!("reduce.{}_s", pass.replace('-', "_")), s);
    }
    let rounds = outcome.passes.iter().map(|p| p.rounds).max().unwrap_or(0);
    rep.put("reduce.rounds", rounds as f64);
    rep.put(
        "reduce.removed_ratio",
        1.0 - outcome.kernel.n() as f64 / g.n() as f64,
    );
    rep.check(
        "reduce bound",
        if outcome.lambda_hat >= main.lambda {
            Ok(())
        } else {
            Err(format!("lambda_hat {} below lambda", outcome.lambda_hat))
        },
    );

    // mincut-core::viecut (an upper bound: its gap to λ is the metric)
    let raw = || request_options().no_reductions();
    let (r, s) = timed("bench/viecut", || {
        Session::new(&g).options(raw()).run("viecut")
    });
    rep.put("viecut.s", s);
    match r {
        Ok(o) => rep.put("viecut.gap", o.cut.value.saturating_sub(main.lambda) as f64),
        Err(e) => rep.check("viecut", Err(e.to_string())),
    }

    // mincut-core::noi + capforest
    let (r, s) = timed("bench/noi", || solve(&g, "noi", raw(), main.lambda));
    rep.put("noi.s", s);
    let st_noi = r.clone().unwrap_or_default();
    rep.check("noi", r.map(|_| ()));
    rep.put("noi.rounds", st_noi.rounds as f64);
    rep.put("noi.pq_ops", st_noi.pq_ops.total() as f64);

    // mincut-core::parallel
    let (r1, t1) = timed("bench/parcut_t1", || {
        solve(&g, "parcut", raw().threads(1), main.lambda)
    });
    rep.check("parcut t1", r1.map(|_| ()));
    let c0 = process_cpu_s();
    let (r2, t2) = timed("bench/parcut_t2", || {
        solve(&g, "parcut", raw().threads(2), main.lambda)
    });
    let cpu2 = process_cpu_s() - c0;
    rep.check("parcut t2", r2.map(|_| ()));
    rep.put("parcut.t1_s", t1);
    rep.put("parcut.t2_s", t2);
    rep.put("parcut.speedup", t1 / t2);
    rep.put("parcut.cpu_per_wall", cpu2 / t2);
    drop(g);

    // mincut-core::cactus on the stream graph
    let sg = stream::load(st.graph.pack)?;
    let (cactus, s) = timed("bench/cactus_build", || {
        CactusBuilder::new()
            .options(opts.clone())
            .build_with_lambda(&sg, st.graph.lambda)
    });
    let cactus = cactus.map_err(|e| format!("cactus build: {e}"))?;
    rep.put("cactus.build_s", s);
    rep.put("cactus.cuts", cactus.count_min_cuts() as f64);
    drop((cactus, sg));

    // mincut-core::dynamic + service + flow: one traced replay.
    let hosted = stream::setup(st.graph.pack)?;
    let (traced_replay, _) = timed("bench/replay", || stream::replay(&hosted, st.ops));
    let d = hosted
        .service
        .dynamic_stats(hosted.handle)
        .map_err(|e| e.to_string())?;
    let cache = hosted.service.cache_stats();
    rep.check("traced replay and final state", {
        match traced_replay.failed {
            0 => stream::check_final(&hosted, st.graph.pack, st.ops),
            k => Err(format!("{k} op(s) failed")),
        }
    });
    rep.put("dynamic.resolves", d.resolves as f64);
    rep.put("dynamic.resolve_s", d.resolve_seconds);
    rep.put("dynamic.absorbed", d.incremental as f64);
    let attempts = d.cactus_repairs + d.repair_fallbacks;
    rep.put(
        "cactus.repair_ratio",
        if attempts == 0 {
            1.0
        } else {
            d.cactus_repairs as f64 / attempts as f64
        },
    );
    rep.put("cactus.rebuilds", d.cactus_rebuilds as f64);
    rep.put("service.cache_hits", cache.hits as f64);
    rep.put("service.cache_misses", cache.misses as f64);

    obs::set_tracing(false);
    let (events, threads) = obs::take_events();
    let (r0, r1) = window(&events, "bench/replay");
    let replay_rows = profile::aggregate(&events, r0, r1);
    rep.put("flow.dinic_s", profile::total_s(&replay_rows, "flow/dinic"));

    // mincut-graph::contract and the unattributed share, inside the
    // traced request (for rhg_stream: the traced replay).
    let (q0, q1, traced_s) = match w {
        Workload::RhgStream => (r0, r1, traced_replay.wall_s),
        _ => {
            let (a, b) = window(&events, "bench/request");
            (a, b, traced_request_s)
        }
    };
    let request_rows = profile::aggregate(&events, q0, q1);
    rep.put(
        "contract.s",
        profile::total_s(&request_rows, "contract/round"),
    );
    let mut paths: BTreeMap<&str, u64> = ["seq-matrix", "seq-hash", "seq-sort", "parallel"]
        .into_iter()
        .map(|p| (p, 0))
        .collect();
    for e in events
        .iter()
        .filter(|e| e.name == "contract/round" && e.ts_us >= q0 && e.ts_us + e.dur_us <= q1)
    {
        if let Some(ArgValue::Str(p)) = e.arg("path") {
            if let Some(c) = paths.get_mut(p.as_str()) {
                *c += 1;
            }
        }
    }
    for (p, c) in paths {
        rep.put(&format!("contract.rounds_{p}"), c as f64);
    }
    rep.put(
        "solve.unattributed_s",
        profile::self_s(&request_rows, "solve"),
    );
    rep.put("obs.trace_overhead", traced_s / untraced_request_s - 1.0);

    let all: BTreeMap<&'static str, Row> = profile::aggregate(&events, 0, u64::MAX);
    rep.table = profile::table(&all);
    std::fs::write(chrome_out, obs::chrome_trace_json(&events, &threads))
        .map_err(|e| format!("cannot write {}: {e}", chrome_out.display()))?;
    Ok(rep)
}
