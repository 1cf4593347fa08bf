//! `smc-perfbench` — the in-process half of the benchmark. `run.py`
//! drives it; each subcommand prints one JSON object on stdout.
//!
//! ```text
//! smc-perfbench gen    --workload W --size full|tiny --seed N --dir D
//! smc-perfbench stream --dir D --lambda L --seconds T
//! smc-perfbench layers --workload W --dir D --lambda L
//!                      --stream-dir S --stream-lambda L2 --chrome FILE
//! smc-perfbench env
//! ```
//!
//! `gen` writes `graph.smcpack` (plus `trace.txt` for `rhg_stream`) into
//! D and prints n, m, the reference λ and the stored fingerprint.
//! `stream` registers and replays the trace of D until T seconds have
//! passed, then checks the final state. `layers` is the traced
//! per-layer run; it also writes the Chrome trace to FILE.

mod cpu;
mod inputs;
mod layers;
mod profile;
mod stream;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use inputs::{Size, Workload};
use sm_mincut::{parse_trace, write_pack_file, EdgeWeight, TraceOp};

fn die(msg: &str) -> ! {
    eprintln!("smc-perfbench: {msg}");
    exit(1)
}

/// `--key value` flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> String {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .cloned()
            .unwrap_or_else(|| die(&format!("missing {key}")))
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> T {
        self.get(key)
            .parse()
            .unwrap_or_else(|_| die(&format!("bad {key}")))
    }

    fn workload(&self) -> Workload {
        Workload::parse(&self.get("--workload")).unwrap_or_else(|| die("unknown --workload"))
    }
}

fn json_floats(v: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = v.into_iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

fn gen(a: &Args) {
    let (w, dir) = (a.workload(), PathBuf::from(a.get("--dir")));
    let size = Size::parse(&a.get("--size")).unwrap_or_else(|| die("unknown --size"));
    let seed: u64 = a.parse("--seed");
    let t0 = Instant::now();
    let g = inputs::graph(w, size, seed);
    let lambda = inputs::reference_lambda(&g).unwrap_or_else(|e| die(&e));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&e.to_string()));
    let mut ops = 0;
    if w == Workload::RhgStream {
        let trace = inputs::stream_trace(&g, lambda, inputs::trace_len(size), seed)
            .unwrap_or_else(|e| die(&e));
        ops = trace.len();
        inputs::write_trace(&trace, &dir.join("trace.txt")).unwrap_or_else(|e| die(&e.to_string()));
    }
    write_pack_file(&g, &dir.join("graph.smcpack")).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{{\"n\":{},\"m\":{},\"lambda\":{lambda},\"fingerprint\":\"{:016x}\",\"ops\":{ops},\"gen_s\":{}}}",
        g.n(),
        g.m(),
        g.fingerprint(),
        t0.elapsed().as_secs_f64()
    );
}

fn read_ops(dir: &Path) -> Vec<TraceOp> {
    let n = stream::load(&dir.join("graph.smcpack"))
        .unwrap_or_else(|e| die(&e))
        .n();
    let f = std::fs::File::open(dir.join("trace.txt")).unwrap_or_else(|e| die(&e.to_string()));
    parse_trace(std::io::BufReader::new(f), n).unwrap_or_else(|e| die(&e.to_string()))
}

fn stream_cmd(a: &Args) {
    let dir = PathBuf::from(a.get("--dir"));
    let seconds: f64 = a.parse("--seconds");
    let lambda: EdgeWeight = a.parse("--lambda");
    let pack = dir.join("graph.smcpack");
    let ops = read_ops(&dir);
    let (mut setups, mut replays) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let t0 = Instant::now();
    let mut last = None;
    // Rounds of set-up + full replay until the time is up; at least two
    // replays, and at least three set-ups so set-up time is a median.
    while replays.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let h = stream::setup(&pack).unwrap_or_else(|e| die(&e));
        setups.push(h.setup_s);
        attempted += 1;
        if h.lambda != lambda {
            failed += 1;
            eprintln!("initial lambda {} != reference {lambda}", h.lambda);
        }
        let r = stream::replay(&h, &ops);
        attempted += r.ops.len();
        failed += r.failed;
        replays.push(r);
        last = Some(h);
    }
    while setups.len() < 3 {
        setups.push(stream::setup(&pack).unwrap_or_else(|e| die(&e)).setup_s);
    }
    let rss = cpu::peak_rss_mb();
    let h = last.expect("at least one round ran");
    attempted += 1;
    if let Err(e) = stream::check_final(&h, &pack, &ops) {
        failed += 1;
        eprintln!("final state check failed: {e}");
    }
    let samples = |k: Option<stream::Kind>| {
        json_floats(
            replays
                .iter()
                .flat_map(|r| r.ops.iter())
                .filter(|o| k.is_none_or(|k| o.0 == k))
                .map(|o| o.1),
        )
    };
    println!(
        "{{\"setup_s\":{},\"replay_s\":{},\"cpu_s\":{},\"ops_per_replay\":{},\
         \"insert_s\":{},\"delete_s\":{},\"read_s\":{},\"op_s\":{},\
         \"peak_rss_mb\":{rss},\"attempted\":{attempted},\"failed\":{failed}}}",
        json_floats(setups),
        json_floats(replays.iter().map(|r| r.wall_s)),
        json_floats(replays.iter().map(|r| r.cpu_s)),
        ops.len(),
        samples(Some(stream::Kind::Insert)),
        samples(Some(stream::Kind::Delete)),
        samples(Some(stream::Kind::Read)),
        samples(None),
    );
}

fn layers_cmd(a: &Args) {
    let w = a.workload();
    let (dir, sdir) = (
        PathBuf::from(a.get("--dir")),
        PathBuf::from(a.get("--stream-dir")),
    );
    let (pack, spack) = (dir.join("graph.smcpack"), sdir.join("graph.smcpack"));
    let ops = read_ops(&sdir);
    let main = layers::Input {
        pack: &pack,
        lambda: a.parse("--lambda"),
    };
    let st = layers::StreamInput {
        graph: layers::Input {
            pack: &spack,
            lambda: a.parse("--stream-lambda"),
        },
        ops: &ops,
    };
    let rep = layers::run(w, main, st, Path::new(&a.get("--chrome"))).unwrap_or_else(|e| die(&e));
    eprint!("{}", rep.table);
    for e in &rep.errors {
        eprintln!("check failed: {e}");
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!(
        "{{\"metrics\":{{{}}},\"attempted\":{},\"failed\":{}}}",
        metrics.join(","),
        rep.attempted,
        rep.failed
    );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let a = Args(argv.collect());
    match cmd.as_str() {
        "gen" => gen(&a),
        "stream" => stream_cmd(&a),
        "layers" => layers_cmd(&a),
        "env" => println!(
            "{{\"simd_tier\":\"{}\"}}",
            sm_mincut::ds::simd::active_tier().name()
        ),
        _ => die("usage: smc-perfbench gen|stream|layers|env [--flag value]..."),
    }
}
