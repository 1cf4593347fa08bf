//! `mincut` — command-line exact minimum cut solver.
//!
//! The `-a` flag resolves through [`SolverRegistry`], the single source
//! of algorithm names: run `mincut --list` to see every registered
//! solver with its aliases and guarantees. `--stats` prints the run's
//! [`SolverStats`](sm_mincut::SolverStats) telemetry as one JSON
//! object on stdout.
//!
//! `--batch <MANIFEST>` switches to batch serving mode: the manifest
//! lists one graph file per line (optionally followed by a solver name),
//! the whole batch runs through [`MinCutService`] — concurrent workers,
//! fingerprint result cache, shared λ̂ bounds — and one JSON object per
//! job is emitted on stdout (JSON-lines), with the aggregate
//! [`BatchStats`](sm_mincut::BatchStats) report on stderr.
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, parse, solver error,
//! failed verification, any failed batch job), 2 usage error.
//! Diagnostics go to stderr; only results (`lambda …`, `side …`,
//! `cutedge …`, the `--stats` JSON, batch JSON-lines) go to stdout.

use std::io::BufRead;
use std::process::exit;
use std::sync::Arc;

use sm_mincut::algorithms::json_string as json_str;
use sm_mincut::algorithms::Reductions;
use sm_mincut::graph::io::{read_edge_list, read_metis, GraphIoError};
use sm_mincut::{
    parse_trace, BatchJob, Cactus, CactusBuilder, CsrGraph, ErrorPolicy, JobStatus, MinCutError,
    MinCutService, ServiceConfig, Session, SolveOptions, SolverRegistry, TraceOp,
};

struct Options {
    path: String,
    batch: Option<String>,
    stream: Option<String>,
    algorithm: String,
    opts: SolveOptions,
    /// Whether -t/--threads was given (batch mode re-splits the default).
    threads_set: bool,
    jobs: usize,
    fail_fast: bool,
    cactus: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    print_side: bool,
    print_edges: bool,
    print_stats: bool,
}

fn usage() -> ! {
    eprint!("{}", help_text());
    exit(2)
}

fn help_text() -> String {
    let mut names = String::new();
    for e in SolverRegistry::global().entries() {
        names.push_str(&format!(
            "    {:<18} {:<34} {}\n",
            e.aliases.first().copied().unwrap_or(e.canonical),
            e.canonical,
            e.summary
        ));
    }
    format!(
        "\
mincut - exact minimum cut solver (Henzinger-Noe-Schulz, IPDPS 2019)

USAGE: mincut [OPTIONS] <GRAPH>
       mincut [OPTIONS] --batch <MANIFEST>
       mincut [OPTIONS] --stream <TRACE> <GRAPH>
       mincut pack <GRAPH> [-o FILE]

ARGS:
  <GRAPH>  METIS file (*.graph, *.metis), binary pack (*.smcpack), or
           edge list; '-' = stdin edge list. Packs load zero-copy via
           mmap — write one with `mincut pack` (defaults to the input
           path with an .smcpack extension); every mode (--batch
           manifests, --stream, --cactus) accepts them transparently

OPTIONS:
  -a, --algorithm <NAME>  solver name: CLI spelling, paper name, or a
                          queue-pinned spelling like noi-bstack-viecut
                          (default noi-viecut)
  -q, --queue <KIND>      bstack | bqueue | heap (default heap)
  -t, --threads <N>       width of every parallel layer: ParCut's scan
                          workers, label propagation and Padberg-Rinaldi
                          edge classification (the last two only on
                          graphs of 2^20 arcs or more; contraction is
                          sequential); 1 runs the solve single-threaded
                          and deterministic (default: all cores)
  -s, --seed <N>          RNG seed (default 42)
      --budget-ms <N>     fail if a solve exceeds N milliseconds
                          (in batch mode: wall-clock budget of the batch)
      --no-reduce         skip the kernelization pipeline (reductions are
                          on by default and never change exact results)
      --stats             print the SolverStats report as JSON on stdout
                          (with per-pass kernelization lines on stderr)
      --cactus            build the cactus of ALL minimum cuts and print
                          its JSON summary (lambda, min-cut count, node /
                          cycle / bridge structure) instead of one cut;
                          with --stream, maintain it across the trace and
                          answer qc/qs queries (not available in --batch)
      --trace-out <FILE>  record spans across the run and write a Chrome
                          trace-event JSON file (open in Perfetto or
                          chrome://tracing); implies tracing on — without
                          this flag, SMC_TRACE=on records to memory only
      --metrics-out <FILE> write the metrics-registry snapshot on exit:
                          Prometheus text if FILE ends in .prom or .txt,
                          JSON otherwise
      --side              print one side of the optimal cut
      --edges             print the cut edge set
      --list              list registered solvers and exit
  -h, --help              show this help

BATCH MODE:
      --batch <MANIFEST>  run every graph listed in MANIFEST through the
                          MinCutService (one `path [solver]` per line,
                          `#`/`%` comments); emits one JSON object per
                          job on stdout and the BatchStats on stderr
                          (--stats adds per-job telemetry to each row;
                          --side/--edges are single-graph only; unless
                          -t is given, cores are split between workers)
  -j, --jobs <N>          batch worker threads (default: all cores)
      --fail-fast         skip remaining batch jobs after a failure

STREAM MODE:
      --stream <TRACE>    maintain the minimum cut of <GRAPH> across the
                          edge updates in TRACE — one op per line:
                          `i u v w` insert, `d u v` delete, `q` query,
                          and with --cactus also `qc` (count all minimum
                          cuts) and `qs u v` (a minimum cut separating u
                          from v, read off the maintained cactus)
                          (0-based vertices, `#`/`%` comments) —
                          through the service's dynamic API; emits one
                          JSON object per op on stdout with the
                          maintained lambda, and the DynamicStats on
                          stderr (--side/--edges are single-graph only;
                          -a must name an exact solver, not viecut)

SOLVERS (cli name, paper name, description):
{names}"
    )
}

fn parse_args() -> Options {
    let mut opts = Options {
        path: String::new(),
        batch: None,
        stream: None,
        algorithm: "noi-viecut".into(),
        opts: SolveOptions::new().seed(42),
        threads_set: false,
        jobs: 0,
        fail_fast: false,
        cactus: false,
        trace_out: None,
        metrics_out: None,
        print_side: false,
        print_edges: false,
        print_stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                exit(2)
            })
        };
        match a.as_str() {
            "-h" | "--help" => {
                print!("{}", help_text());
                exit(0)
            }
            "--list" => {
                for e in SolverRegistry::global().entries() {
                    println!(
                        "{:<22} aliases: {:<28} guarantee: {:?}",
                        e.canonical,
                        e.aliases.join(", "),
                        e.caps().guarantee
                    );
                }
                exit(0)
            }
            "-a" | "--algorithm" => opts.algorithm = value("--algorithm"),
            "-q" | "--queue" => {
                let v = value("--queue");
                match v.parse() {
                    Ok(pq) => opts.opts.pq = pq,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(2)
                    }
                }
            }
            "-t" | "--threads" => match value("--threads").parse() {
                Ok(t) if t >= 1 => {
                    opts.opts.threads = t;
                    opts.threads_set = true;
                }
                _ => {
                    eprintln!("error: --threads needs a positive integer");
                    exit(2)
                }
            },
            "-s" | "--seed" => match value("--seed").parse() {
                Ok(s) => opts.opts.seed = s,
                Err(_) => {
                    eprintln!("error: --seed needs an integer");
                    exit(2)
                }
            },
            "--budget-ms" => match value("--budget-ms").parse::<u64>() {
                Ok(ms) => opts.opts.time_budget = Some(std::time::Duration::from_millis(ms)),
                Err(_) => {
                    eprintln!("error: --budget-ms needs a non-negative integer");
                    exit(2)
                }
            },
            "--no-reduce" => opts.opts.reductions = Reductions::None,
            "--batch" => opts.batch = Some(value("--batch")),
            "--stream" => opts.stream = Some(value("--stream")),
            "-j" | "--jobs" => match value("--jobs").parse() {
                Ok(j) => opts.jobs = j,
                Err(_) => {
                    eprintln!("error: --jobs needs a non-negative integer");
                    exit(2)
                }
            },
            "--fail-fast" => opts.fail_fast = true,
            "--cactus" => opts.cactus = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--stats" => opts.print_stats = true,
            "--side" => opts.print_side = true,
            "--edges" => opts.print_edges = true,
            _ if a.starts_with('-') && a != "-" => {
                eprintln!("error: unknown option {a}");
                usage()
            }
            _ => {
                if !opts.path.is_empty() {
                    eprintln!("error: multiple graph arguments");
                    usage()
                }
                opts.path = a;
            }
        }
    }
    if opts.batch.is_some() && !opts.path.is_empty() {
        eprintln!("error: --batch and a <GRAPH> argument are mutually exclusive");
        usage()
    }
    if opts.batch.is_some() && opts.stream.is_some() {
        eprintln!("error: --batch and --stream are mutually exclusive");
        usage()
    }
    if (opts.batch.is_some() || opts.stream.is_some()) && (opts.print_side || opts.print_edges) {
        eprintln!(
            "error: --side/--edges are only available in single-graph mode (use --stats for telemetry)"
        );
        usage()
    }
    if opts.batch.is_none() && (opts.jobs != 0 || opts.fail_fast) {
        eprintln!("error: --jobs/--fail-fast only apply to --batch mode");
        usage()
    }
    if opts.cactus && opts.batch.is_some() {
        eprintln!("error: --cactus is not available in --batch mode");
        usage()
    }
    if opts.cactus && (opts.print_side || opts.print_edges) {
        eprintln!("error: --cactus replaces the single-cut output; drop --side/--edges");
        usage()
    }
    if opts.stream.is_some() && opts.path.is_empty() {
        eprintln!("error: --stream needs a <GRAPH> argument to start from");
        usage()
    }
    if opts.batch.is_none() && opts.path.is_empty() {
        eprintln!("error: missing graph argument");
        usage()
    }
    opts
}

/// Writes the observability artifacts (`--trace-out`, `--metrics-out`)
/// and exits. Every exit after the arguments and the solver name are
/// checked funnels through here so traces and metrics survive failures
/// too — that is when they matter.
fn finish(cli: &Options, code: i32) -> ! {
    if let Some(path) = &cli.trace_out {
        match sm_mincut::obs::export_chrome_trace(path) {
            Ok(n) => eprintln!("trace: wrote {n} event(s) to {path}"),
            Err(e) => {
                eprintln!("error: cannot write trace to {path}: {e}");
                exit(1)
            }
        }
    }
    if let Some(path) = &cli.metrics_out {
        let snap = sm_mincut::obs::metrics().snapshot();
        let text = if path.ends_with(".prom") || path.ends_with(".txt") {
            snap.to_prometheus()
        } else {
            snap.to_json() + "\n"
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            exit(1)
        }
        eprintln!("metrics: wrote snapshot to {path}");
    }
    exit(code)
}

fn try_load_graph(path: &str) -> Result<CsrGraph, String> {
    // `.smcpack` files are accepted everywhere a graph file is: the
    // zero-copy mmap loader replaces the text parse entirely.
    if path != "-" && sm_mincut::is_pack_path(std::path::Path::new(path)) {
        return sm_mincut::load_pack(std::path::Path::new(path))
            .map_err(|e| format!("failed to load pack {path}: {e}"));
    }
    let parsed: Result<CsrGraph, GraphIoError> = if path == "-" {
        let stdin = std::io::stdin();
        read_edge_list(stdin.lock(), None)
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let reader = std::io::BufReader::new(file);
        if path.ends_with(".graph") || path.ends_with(".metis") {
            read_metis(reader)
        } else {
            read_edge_list(reader, None)
        }
    };
    parsed.map_err(|e| format!("failed to parse {path}: {e}"))
}

fn load_graph(cli: &Options) -> CsrGraph {
    try_load_graph(&cli.path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        finish(cli, 1)
    })
}

/// `mincut pack <GRAPH> [-o FILE]`: convert any accepted graph input
/// into a zero-copy `.smcpack`. Exit codes match the main tool: 0 ok,
/// 1 runtime failure, 2 usage error. Never returns.
fn run_pack_mode(args: &[String]) -> ! {
    let mut input: Option<&str> = None;
    let mut output: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!(
                    "usage: mincut pack <GRAPH> [-o FILE]\n\
                     writes GRAPH (METIS, edge list, or pack) as a binary .smcpack\n\
                     (default output: the input path with an .smcpack extension)"
                );
                exit(0)
            }
            "-o" | "--output" => match it.next() {
                Some(v) => output = Some(v.clone()),
                None => {
                    eprintln!("error: -o needs a value");
                    exit(2)
                }
            },
            flag if flag.starts_with('-') && flag != "-" => {
                eprintln!("error: unknown pack option {flag}");
                exit(2)
            }
            positional => {
                if input.is_some() {
                    eprintln!("error: pack takes exactly one input graph");
                    exit(2)
                }
                input = Some(positional);
            }
        }
    }
    let Some(input) = input else {
        eprintln!("error: pack needs an input graph\nusage: mincut pack <GRAPH> [-o FILE]");
        exit(2)
    };
    let output = output.unwrap_or_else(|| {
        std::path::Path::new(input)
            .with_extension(sm_mincut::PACK_EXTENSION)
            .to_string_lossy()
            .into_owned()
    });
    if output == input {
        // Repacking in place would truncate the file the loaded graph's
        // mmap sections still borrow.
        eprintln!("error: output {output} is the input file; pick another path with -o");
        exit(2)
    }
    let g = match try_load_graph(input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    };
    if let Err(e) = sm_mincut::write_pack_file(&g, std::path::Path::new(&output)) {
        eprintln!("error: cannot write pack {output}: {e}");
        exit(1)
    }
    let bytes = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    eprintln!("pack: {input} -> {output}");
    println!(
        "packed n={} m={} fingerprint={:016x} bytes={bytes}",
        g.n(),
        g.m(),
        g.fingerprint()
    );
    exit(0)
}

/// One manifest entry: a graph that loaded into a batch job, a load
/// failure reported in place, or an entry skipped by `--fail-fast`.
enum Entry {
    Job { file: String, job_index: usize },
    Unreadable { file: String, error: String },
    NotLoaded { file: String },
}

/// Batch serving mode: parse the manifest, run everything through
/// [`MinCutService`], emit JSON-lines. Never returns.
fn run_batch_mode(cli: &Options, manifest_path: &str) -> ! {
    let manifest = std::fs::File::open(manifest_path).unwrap_or_else(|e| {
        eprintln!("error: cannot open manifest {manifest_path}: {e}");
        finish(cli, 1)
    });
    let mut job_opts = cli.opts.clone();
    // Batch output only reports λ — --side/--edges are rejected up
    // front — so skip the per-round witness tracking every solver would
    // otherwise pay for (bounds still share sideless between same-graph
    // jobs).
    job_opts.witness = false;
    let mut entries: Vec<Entry> = Vec::new();
    let mut jobs: Vec<BatchJob> = Vec::new();
    let mut poisoned = false;
    for (no, line) in std::io::BufReader::new(manifest).lines().enumerate() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: reading manifest {manifest_path}: {e}");
            finish(cli, 1)
        });
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let file = tok.next().expect("non-empty line").to_string();
        let solver = tok.next().unwrap_or(cli.algorithm.as_str()).to_string();
        if let Some(extra) = tok.next() {
            eprintln!(
                "error: manifest line {}: unexpected token {extra:?}",
                no + 1
            );
            finish(cli, 2)
        }
        // Under --fail-fast an earlier unreadable entry poisons the
        // rest of the manifest, mirroring the service's job policy.
        if poisoned {
            entries.push(Entry::NotLoaded { file });
            continue;
        }
        match try_load_graph(&file) {
            Ok(g) => {
                let job = BatchJob::new(Arc::new(g), solver)
                    .options(job_opts.clone())
                    .label(file.clone());
                entries.push(Entry::Job {
                    file,
                    job_index: jobs.len(),
                });
                jobs.push(job);
            }
            Err(error) => {
                poisoned = cli.fail_fast;
                entries.push(Entry::Unreadable { file, error });
            }
        }
    }

    // Unless -t was given, split the cores between the *effective*
    // batch workers (the service caps them at the job count) so
    // parallel solver phases inside concurrent jobs don't oversubscribe
    // the machine workers × cores threads deep — and a short manifest
    // still uses the whole machine per job.
    if !cli.threads_set {
        let cores = sm_mincut::ds::par::hardware_threads();
        let workers = (if cli.jobs == 0 { cores } else { cli.jobs }).min(jobs.len().max(1));
        let threads = (cores / workers).max(1);
        for job in &mut jobs {
            job.opts.threads = threads;
        }
    }

    let mut config = ServiceConfig::new()
        .concurrency(cli.jobs)
        .error_policy(if cli.fail_fast {
            ErrorPolicy::FailFast
        } else {
            ErrorPolicy::Continue
        });
    // In batch mode --budget-ms bounds the whole batch, not one job.
    if let Some(budget) = cli.opts.time_budget {
        config = config.batch_budget(budget);
    }
    let service = MinCutService::new(config);
    let report = service.run_batch(&jobs);

    let mut any_failed = false;
    for (row, entry) in entries.iter().enumerate() {
        match entry {
            Entry::Unreadable { file, error } => {
                any_failed = true;
                println!(
                    "{{\"index\":{row},\"file\":{},\"status\":\"error\",\"error\":{}}}",
                    json_str(file),
                    json_str(error)
                );
            }
            Entry::NotLoaded { file } => {
                any_failed = true;
                println!(
                    "{{\"index\":{row},\"file\":{},\"status\":\"skipped\",\
                     \"reason\":\"fail-fast: an earlier manifest entry was unreadable\"}}",
                    json_str(file)
                );
            }
            Entry::Job { file, job_index } => {
                let job = &report.jobs[*job_index];
                match &job.status {
                    JobStatus::Solved(o) | JobStatus::Cached(o) => {
                        let stats = if cli.print_stats {
                            format!(",\"stats\":{}", o.stats.to_json())
                        } else {
                            String::new()
                        };
                        println!(
                            "{{\"index\":{row},\"file\":{},\"solver\":{},\"status\":\"ok\",\
                             \"lambda\":{},\"cached\":{},\"seconds\":{:.6}{stats}}}",
                            json_str(file),
                            json_str(&job.solver),
                            o.cut.value,
                            job.status.from_cache(),
                            job.seconds
                        )
                    }
                    JobStatus::Failed(e) => {
                        any_failed = true;
                        println!(
                            "{{\"index\":{row},\"file\":{},\"solver\":{},\"status\":\"error\",\
                             \"error\":{}}}",
                            json_str(file),
                            json_str(&job.solver),
                            json_str(&e.to_string())
                        );
                    }
                    JobStatus::Skipped { reason } => {
                        any_failed = true;
                        println!(
                            "{{\"index\":{row},\"file\":{},\"status\":\"skipped\",\"reason\":{}}}",
                            json_str(file),
                            json_str(reason)
                        );
                    }
                }
            }
        }
    }
    eprintln!("batch: {}", report.stats.to_json());
    finish(cli, if any_failed { 1 } else { 0 })
}

/// Dynamic stream mode: replay an edge-update trace against the graph
/// through the service's dynamic API, one JSON line of maintained λ per
/// operation. Never returns.
fn run_stream_mode(cli: &Options, trace_path: &str) -> ! {
    let g = load_graph(cli);
    eprintln!("graph: n = {}, m = {}", g.n(), g.m());
    let trace = std::fs::File::open(trace_path).unwrap_or_else(|e| {
        eprintln!("error: cannot open trace {trace_path}: {e}");
        finish(cli, 1)
    });
    let ops = match parse_trace(std::io::BufReader::new(trace), g.n()) {
        Ok(ops) => ops,
        Err(e) => {
            sm_mincut::obs::flight().record("cli", format!("trace {trace_path} rejected: {e}"));
            sm_mincut::obs::flight().dump_to_stderr("trace parse rejection");
            eprintln!("error: failed to parse {trace_path}: {e}");
            finish(cli, 1)
        }
    };

    let service = MinCutService::new(ServiceConfig::new());
    let registered = if cli.cactus {
        service.register_dynamic_with_cactus(g, &cli.algorithm, cli.opts.clone())
    } else {
        service.register_dynamic(g, &cli.algorithm, cli.opts.clone())
    };
    let handle = match registered {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot register the stream graph: {e}");
            sm_mincut::obs::flight().dump_to_stderr("stream registration failure");
            finish(cli, 1)
        }
    };

    let fail = |index: usize, e: MinCutError| -> ! {
        println!(
            "{{\"index\":{index},\"status\":\"error\",\"error\":{}}}",
            json_str(&e.to_string())
        );
        eprintln!("error: update {index} failed: {e}");
        sm_mincut::obs::flight().dump_to_stderr("dynamic update failure");
        finish(cli, 1)
    };
    for (index, op) in ops.iter().enumerate() {
        let report = match service.dynamic_update(handle, op) {
            Ok(r) => r,
            Err(e) => fail(index, e),
        };
        let op_fields = match *op {
            TraceOp::Insert { u, v, w } => format!("\"op\":\"i\",\"u\":{u},\"v\":{v},\"w\":{w}"),
            TraceOp::Delete { u, v } => format!("\"op\":\"d\",\"u\":{u},\"v\":{v}"),
            TraceOp::Query => "\"op\":\"q\"".into(),
            // The cactus queries carry their answers in the JSON row;
            // without --cactus, dynamic_update already failed above.
            TraceOp::QueryCount => {
                let (cactus, _) = service
                    .dynamic_cactus(handle)
                    .unwrap_or_else(|e| fail(index, e));
                format!("\"op\":\"qc\",\"count\":{}", cactus.count_min_cuts())
            }
            TraceOp::QuerySeparating { u, v } => {
                let cut = match service
                    .min_cuts_separating_many(handle, &[(u, v)])
                    .unwrap_or_else(|e| fail(index, e))
                    .pop()
                    .flatten()
                {
                    Some(side) => Cactus::side_to_json(&side),
                    None => "null".into(),
                };
                format!("\"op\":\"qs\",\"u\":{u},\"v\":{v},\"cut\":{cut}")
            }
        };
        println!(
            "{{\"index\":{index},{op_fields},\"epoch\":{},\"lambda\":{},\"resolved\":{}}}",
            report.epoch, report.lambda, report.resolved
        );
    }

    let stats = service
        .dynamic_stats(handle)
        .expect("handle registered above");
    eprintln!("stream: {}", stats.to_json());
    finish(cli, 0)
}

/// Single-graph cactus mode: build the cactus of all minimum cuts
/// (solving λ through the chosen solver first) and print its JSON
/// summary on stdout. Never returns.
fn run_cactus_mode(cli: &Options, g: &CsrGraph) -> ! {
    let builder = CactusBuilder::new()
        .solver(&cli.algorithm)
        .options(cli.opts.clone());
    let cactus = match builder.build(g) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cactus construction failed: {e}");
            sm_mincut::obs::flight().dump_to_stderr("cactus construction failure");
            finish(cli, 1)
        }
    };
    let s = cactus.stats();
    eprintln!(
        "cactus: {} min cuts, {} nodes, {} cycles, {} bridges, kernel n {} \
         (solve {:.3} s, enumerate {:.3} s, build {:.3} s)",
        cactus.count_min_cuts(),
        cactus.num_nodes(),
        cactus.num_cycles(),
        cactus.num_bridges(),
        s.kernel_n,
        s.solve_seconds,
        s.enumerate_seconds,
        s.build_seconds
    );
    println!("{}", cactus.to_json());
    finish(cli, 0)
}

fn main() {
    // The `pack` subcommand has its own tiny argument grammar; dispatch
    // before the flag parser sees the positional.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("pack") {
        run_pack_mode(&raw[1..]);
    }

    let cli = parse_args();

    // --trace-out forces span collection on; otherwise the SMC_TRACE
    // knob decides (events stay in memory unless a later mode exports).
    if cli.trace_out.is_some() {
        sm_mincut::obs::set_tracing(true);
    } else {
        sm_mincut::obs::init_from_env();
    }

    // Resolve the solver before the (possibly large) graph load so name
    // typos fail fast, as a usage error.
    if let Err(e) = SolverRegistry::global().resolve(&cli.algorithm) {
        eprintln!("error: {e}");
        eprintln!("hint: run `mincut --list` for all registered solvers");
        exit(2)
    }

    if let Some(manifest) = &cli.batch {
        run_batch_mode(&cli, manifest);
    }
    if let Some(trace) = &cli.stream {
        run_stream_mode(&cli, trace);
    }

    let g = load_graph(&cli);
    eprintln!("graph: n = {}, m = {}", g.n(), g.m());

    if cli.cactus {
        run_cactus_mode(&cli, &g);
    }

    let session = Session::new(&g).options(cli.opts.clone());
    let outcome = match session.run(&cli.algorithm) {
        Ok(o) => o,
        Err(e @ MinCutError::TooFewVertices { .. }) => {
            eprintln!("error: {e}");
            finish(&cli, 1)
        }
        Err(e) => {
            eprintln!("error: solver failed: {e}");
            sm_mincut::obs::flight().dump_to_stderr("solver failure");
            finish(&cli, 1)
        }
    };

    eprintln!(
        "algorithm: {} ({:.3} s)",
        outcome.stats.algorithm, outcome.stats.total_seconds
    );
    // A λ on stdout is an answer: print it only once its witness holds.
    if !outcome.cut.verify(&g) {
        eprintln!("internal error: witness failed verification");
        finish(&cli, 1)
    }
    println!("lambda {}", outcome.cut.value);
    if cli.print_stats {
        // Per-pass kernelization lines (diagnostics → stderr; the JSON on
        // stdout carries the same numbers machine-readably).
        for p in &outcome.stats.reductions {
            eprintln!(
                "reduce[{}]: -{} vertices, -{} edges in {} round(s) ({:.6} s)",
                p.name, p.vertices_removed, p.edges_removed, p.rounds, p.seconds
            );
        }
        if !outcome.stats.reductions.is_empty() {
            eprintln!(
                "kernel: n = {}, m = {} (from n = {}, m = {})",
                outcome.stats.kernel_n,
                outcome.stats.kernel_m,
                g.n(),
                g.m()
            );
        }
        println!("{}", outcome.stats.to_json());
    }
    let side = outcome.cut.side.expect("verified witness present");
    if cli.print_side {
        let members: Vec<String> = (0..g.n())
            .filter(|&v| side[v])
            .map(|v| v.to_string())
            .collect();
        println!("side {}", members.join(" "));
    }
    if cli.print_edges {
        for (u, v, w) in g.edges() {
            if side[u as usize] != side[v as usize] {
                println!("cutedge {u} {v} {w}");
            }
        }
    }
    finish(&cli, 0)
}
