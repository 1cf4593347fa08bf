#!/usr/bin/env python3
"""Paper-scale benchmark of sm-mincut: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload rhg_solve --seed 1 --seconds 20 --trace 0

It builds the `mincut` binary, the `trace-check` bin and the in-process
helper `smc-perfbench` (this directory's Cargo package) in release mode,
generates the seed's inputs once into `.bench_cache/`, measures for
`--seconds` seconds, checks every answer, prints one `metric` line per
metric and, as the last line of stdout, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Every result is also saved with its environment stamp under
`.bench_results/`; `--compare OLD NEW` diffs two saved results and warns
when their stamps differ. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rhg_solve", "social_parcut", "rhg_stream")
# Gated metrics, reported by every workload: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("ingest.load_ms", "ms"),
    ("reduce.s", "s"),
    ("reduce.components_s", "s"),
    ("reduce.degree_bound_s", "s"),
    ("reduce.heavy_edge_s", "s"),
    ("reduce.padberg_rinaldi_s", "s"),
    ("reduce.rounds", "count"),
    ("reduce.removed_ratio", "ratio"),
    ("viecut.s", "s"),
    ("viecut.gap", "weight"),
    ("noi.s", "s"),
    ("noi.rounds", "count"),
    ("noi.pq_ops", "count"),
    ("parcut.t1_s", "s"),
    ("parcut.t2_s", "s"),
    ("parcut.speedup", "ratio"),
    ("parcut.cpu_per_wall", "ratio"),
    ("contract.s", "s"),
    ("contract.rounds_seq-matrix", "count"),
    ("contract.rounds_seq-hash", "count"),
    ("contract.rounds_seq-sort", "count"),
    ("contract.rounds_parallel", "count"),
    ("cactus.build_s", "s"),
    ("cactus.cuts", "count"),
    ("cactus.repair_ratio", "ratio"),
    ("cactus.rebuilds", "count"),
    ("flow.dinic_s", "s"),
    ("dynamic.resolves", "count"),
    ("dynamic.resolve_s", "s"),
    ("dynamic.absorbed", "count"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("stream.insert_us_p50", "us"),
    ("stream.delete_ms_p50", "ms"),
    ("stream.delete_ms_p90", "ms"),
    ("stream.query_us_p50", "us"),
    ("obs.trace_overhead", "ratio"),
    ("solve.unattributed_s", "s"),
]
# A process that runs longer than this is killed and the run stops, so a
# hung program cannot hold the benchmark past its deadline.
REQUEST_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 10
HELPER_TIMEOUT_S = 170
# Extra exec-to-loaded probes per solve run, so set-up time is a median
# of many samples.
SETUP_PROBES = 20


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    """The benchmark cannot run at all (no source tree, build failed)."""


def build():
    """Builds the three binaries; returns their paths."""
    for need in ("Cargo.toml", os.path.join("src", "bin", "mincut.rs")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Fatal(f"{need} not found: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "-q"]
    for args in (
        ["--bin", "mincut"],
        ["-p", "mincut-bench", "--bin", "trace-check"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cargo + args, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            raise Fatal("cargo build " + " ".join(args) + " failed")
    return {b: os.path.join(target, "release", b) for b in ("mincut", "trace-check", "smc-perfbench")}


def helper(bins, *args, echo_stderr=True):
    """Runs smc-perfbench; returns its JSON result line and its stderr."""
    try:
        p = subprocess.run(
            [bins["smc-perfbench"], *map(str, args)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=HELPER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise Fatal(f"smc-perfbench {args[0]} timed out after {HELPER_TIMEOUT_S} s")
    if echo_stderr and p.stderr:
        log(p.stderr.rstrip())
    if p.returncode:
        raise Fatal(f"smc-perfbench {args[0]} failed ({p.returncode}): {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def inputs(bins, workload, size, seed):
    """The seed's inputs, generated once into .bench_cache/. Returns
    (directory, meta, error): error is set when the generated input
    differs from what perfbench/inputs.json pins, so a generator change
    fails the run instead of being measured silently."""
    cache = os.path.join(ROOT, ".bench_cache")
    d = os.path.join(cache, f"{workload}-{size}-s{seed}")
    meta_path = os.path.join(d, "meta.json")
    if not os.path.exists(meta_path):
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        meta, _ = helper(bins, "gen", "--workload", workload, "--size", size, "--seed", seed, "--dir", tmp)
        trace = os.path.join(tmp, "trace.txt")
        if os.path.exists(trace):
            with open(trace, "rb") as f:
                meta["trace_sha256"] = hashlib.sha256(f.read()).hexdigest()[:16]
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
        # Keep the two newest seeds per workload: full-size packs are
        # ~100 MB each.
        mine = [os.path.join(cache, e) for e in os.listdir(cache) if e.startswith(f"{workload}-{size}-s")]
        for old in sorted(mine, key=os.path.getmtime)[:-2]:
            shutil.rmtree(old, ignore_errors=True)
    with open(meta_path) as f:
        meta = json.load(f)
    error = None
    with open(os.path.join(HERE, "inputs.json")) as f:
        pin = json.load(f).get(workload, {}).get(size)
    if pin is not None:
        # Every seed shares one structure; the fingerprint, which covers
        # the vertex labels, is pinned for the listed seeds.
        want = {k: pin[k] for k in ("n", "m", "lambda")}
        for key, table in (("fingerprint", "fingerprints"), ("trace_sha256", "traces")):
            if str(seed) in pin.get(table, {}):
                want[key] = pin[table][str(seed)]
        got = {k: meta[k] for k in want}
        if got != want:
            error = f"{workload} seed {seed} input {got} differs from pinned {want}"
    return d, meta, error


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else median(xs)


def start(bins, workload, pack):
    args = [bins["mincut"], "-t", "2"]
    if workload == "social_parcut":
        args += ["-a", "parcut"]
    t0 = time.perf_counter()
    p = subprocess.Popen(args + [pack], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return p, t0


def setup_probe(bins, workload, pack):
    """Seconds from exec to the `graph: n = ...` line, after which the
    probe is killed: the set-up cost alone, cheap enough to repeat."""
    p, t0 = start(bins, workload, pack)
    killer = threading.Timer(PROBE_TIMEOUT_S, p.kill)
    killer.start()
    line = p.stderr.readline()
    setup = time.perf_counter() - t0
    killer.cancel()
    p.kill()
    p.communicate()
    return setup if line.startswith("graph: n =") else None


def solve_once(bins, workload, pack, lam):
    """One `mincut` process: returns (ok, setup_s, wall_s, cpu_s, rss_mb)."""
    p, t0 = start(bins, workload, pack)
    killer = threading.Timer(REQUEST_TIMEOUT_S, p.kill)
    killer.start()
    setup, err = None, []
    for line in p.stderr:
        if setup is None and line.startswith("graph: n ="):
            setup = time.perf_counter() - t0
        err.append(line)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    ok = p.returncode == 0 and f"lambda {lam}\n" in out and setup is not None
    if not ok:
        log(f"request failed (exit {p.returncode}): {out.strip()} {''.join(err).strip()[-300:]}")
    return ok, setup or wall, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_solve(bins, workload, d, meta, seconds):
    pack = os.path.join(d, "graph.smcpack")
    rows = []
    t_end = time.perf_counter() + seconds
    while len(rows) < 3 or time.perf_counter() < t_end:
        rows.append(solve_once(bins, workload, pack, meta["lambda"]))
        if not rows[-1][0]:
            break  # a broken program is not measured further
    ok, setup, wall, cpu, rss = zip(*rows)
    probes = [setup_probe(bins, workload, pack) for _ in range(SETUP_PROBES if all(ok) else 0)]
    failed = ok.count(False) + probes.count(None)
    setup = list(setup) + [s for s in probes if s is not None]
    e2e = {
        "setup_s": median(setup),
        "request_cpu_ms": 1e3 * sum(cpu) / len(cpu),
        "requests_per_s": len(wall) / sum(wall),
        "peak_rss_mb": median(rss),
    }
    named = [
        ("solve_s_p50", median(wall), "s", f"n={len(wall)}"),
        ("solve_cpu_s_p50", median(cpu), "s", f"n={len(cpu)}"),
        ("setup_s", e2e["setup_s"], "s", f"n={len(setup)}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
        ("failed_ratio", failed / (len(rows) + len(probes)), "ratio", f"{failed}/{len(rows) + len(probes)}"),
    ]
    return e2e, named, len(rows) + len(probes), failed


def run_stream(bins, d, meta, seconds):
    r, _ = helper(bins, "stream", "--dir", d, "--lambda", meta["lambda"], "--seconds", seconds)
    ops = r["ops_per_replay"] * len(r["replay_s"])
    e2e = {
        "setup_s": median(r["setup_s"]),
        "request_cpu_ms": 1e3 * sum(r["cpu_s"]) / ops,
        "requests_per_s": ops / sum(r["replay_s"]),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    named = [
        ("setup_s", e2e["setup_s"], "s", f"n={len(r['setup_s'])}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
        ("stream_ops_per_s", e2e["requests_per_s"], "1/s", f"ops={ops}"),
        ("op_us_p50", 1e6 * median(r["op_s"]), "us", f"n={len(r['op_s'])}"),
        ("insert_us_p50", 1e6 * median(r["insert_s"]), "us", f"n={len(r['insert_s'])}"),
        ("delete_ms_p50", 1e3 * median(r["delete_s"]), "ms", f"n={len(r['delete_s'])}"),
        ("delete_ms_p90", 1e3 * p90(r["delete_s"]), "ms", f"n={len(r['delete_s'])}"),
        ("query_us_p50", 1e6 * median(r["read_s"]), "us", f"n={len(r['read_s'])}"),
        ("failed_ratio", r["failed"] / r["attempted"], "ratio", f"{r['failed']}/{r['attempted']}"),
    ]
    return e2e, named, r["attempted"], r["failed"]


def run_layers(bins, workload, size, seed, d, meta):
    """The traced run; returns (metrics, attempted, failed)."""
    sd, smeta, serr = inputs(bins, "rhg_stream", size, seed)
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    chrome = os.path.join(ROOT, ".bench_results", f"{workload}-s{seed}.trace.json")
    r, table = helper(
        bins, "layers", "--workload", workload, "--dir", d, "--lambda", meta["lambda"],
        "--stream-dir", sd, "--stream-lambda", smeta["lambda"], "--chrome", chrome,
        echo_stderr=False,
    )
    print(table.rstrip())
    # One more check each: trace-check on the Chrome trace, and the
    # stream input against its pin.
    attempted, failed = r["attempted"] + 2, r["failed"]
    check = subprocess.run([bins["trace-check"], chrome], cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if check.returncode:
        failed += 1
        log(f"trace-check rejected {chrome}")
    if serr:
        log(serr)
        failed += 1
    return r["metrics"], attempted, failed


def stamp(bins):
    tier, _ = helper(bins, "env")
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "simd_tier": tier["simd_tier"],
        "cpu_model": model,
        "commit": commit,
    }


def compare(old_path, new_path):
    """Prints per-metric changes between two saved results; warns when
    the environment stamps differ (commits are expected to)."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("nproc", "simd_tier", "cpu_model"):
        if old["stamp"].get(key) != new["stamp"].get(key):
            log(f"warning: {key} differs ({old['stamp'].get(key)} vs {new['stamp'].get(key)}); "
                "timings are not comparable")
    if old["workload"] != new["workload"]:
        log(f"warning: comparing workload {old['workload']} with {new['workload']}")
    print(f"commits: {old['stamp']['commit']} -> {new['stamp']['commit']}")
    a, b = old["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(a) & set(b)):
        x, y = a[name]["value"], b[name]["value"]
        change = f"{(y / x - 1) * 100:+.1f}%" if x else "n/a"
        print(f"{name:32} {x:14.6g} -> {y:14.6g} {a[name]['unit']:6} {change}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny only exercises the code paths (self-test)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="diff two results saved under .bench_results/")
    a = ap.parse_args()
    if a.compare:
        compare(*a.compare)
        return 0
    if not a.workload:
        ap.error("--workload is required")
    try:
        bins = build()
        env = stamp(bins)
        print("env: " + json.dumps(env))
        d, meta, input_error = inputs(bins, a.workload, a.size, a.seed)
        print(f"input: {a.workload} seed {a.seed}: n = {meta['n']}, m = {meta['m']}, "
              f"lambda = {meta['lambda']}, fingerprint {meta['fingerprint']}")
        if a.trace:
            values, attempted, failed = run_layers(bins, a.workload, a.size, a.seed, d, meta)
            table = PER_LAYER
        else:
            if a.workload == "rhg_stream":
                values, named, attempted, failed = run_stream(bins, d, meta, a.seconds)
            else:
                values, named, attempted, failed = run_solve(bins, a.workload, d, meta, a.seconds)
            for name, value, unit, note in named:
                print(f"metric {name} = {value:.6g} {unit} {note}".rstrip())
            table = END_TO_END
    except Fatal as e:
        log(f"error: {e}")
        return 1
    attempted += 1
    if input_error:
        log(f"error: {input_error}")
        failed += 1
    missing = [n for n, _ in table if n not in values]
    if missing:
        log(f"error: metrics not measured: {missing}")
        failed += 1
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in table}
    for n, u in table:
        print(f"{'layer' if a.trace else 'e2e'} {n} = {metrics[n]['value']:.6g} {u}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    saved = os.path.join(out_dir, f"{a.workload}-{a.size}-s{a.seed}-trace{a.trace}.json")
    with open(saved, "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "stamp": env, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
