#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the limits the benchmark must keep, runs
the helper's unit tests, runs every workload at `--size tiny` with and
without tracing and checks each result line, and checks that the
benchmark fails without printing a result when the repository's
sources are missing. Takes about a minute after the first build.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, b.keys()
    assert 1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int)
    assert [w["name"] for w in b["workloads"]] == list(run.WORKLOADS)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(m["name"] for m in b["end_to_end"] + b["per_layer"])) == len(b["end_to_end"]) + len(b["per_layer"])
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert [(m["name"], m["unit"]) for m in b["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in b["per_layer"]] == run.PER_LAYER
    return b


def run_workload(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, p.stderr[-2000:]
    table = run.PER_LAYER if trace else run.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == table
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        assert trace or m["value"] > 0, (name, m)
    return result


def check_fails_without_sources():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "tmp*", "__pycache__"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rhg_solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
        assert p.returncode != 0 and '"correct"' not in p.stdout, (p.returncode, p.stdout)


def main():
    check_benchmark_json()
    print("BENCHMARK.json: ok")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, check=True,
    )
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            r = run_workload(workload, trace)
            print(f"{workload} --trace {trace}: ok ({r['attempted']} checked)")
    check_fails_without_sources()
    print("without sources: fails without a result, ok")


if __name__ == "__main__":
    main()
