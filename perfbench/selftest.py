#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself, in well under a minute.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the same chain, output checks
and tracer as the real benchmark, and fails (exit 1) unless:
- every run is correct, with no failed operation, and reports every metric
  of BENCHMARK.json as a finite, non-zero number (the tracing overhead may
  be zero or negative);
- the traced run records spans in all six layers, and two traced runs give
  identical call counts and counters;
- the benchmark exits non-zero, printing no result, in a directory holding
  only BENCHMARK.json and perfbench/ (no walkmf sources).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY = {
    "dense-pipeline": dict(n=60, edges=300, centers=20_000, embed_dim=8),
    "walk-train": dict(n=40, edges=160, centers=20_000, embed_dim=8),
}
LAYERS = ("cli", *run.tracer.LAYERS)


def check_record(record: dict, names: list[str]) -> list[str]:
    result = record["result"]
    problems = [f"failure: {f}" for f in record["failures"]]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"result {result['correct']}, {result['failed']}/{result['attempted']}")
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metric names differ from the benchmark's list")
    problems += [f"{name} is {m['value']}" for name, m in result["metrics"].items()
                 if not math.isfinite(m["value"])
                 or (m["value"] == 0 and name != "cli.trace_overhead_s")]
    return problems


def selftest_workload(name: str) -> list[str]:
    w = replace(run.WORKLOADS[name], train_centers=100, train_dim=8, **TINY[name])
    work = run.WORK / "selftest" / name
    problems = check_record(run.run_workload(w, 1, 0, False, work),
                            [m for m, _ in run.END_TO_END])
    traced = [run.run_workload(w, 1, 0, True, work) for _ in range(2)]
    for record in traced:
        problems += check_record(record, [m for m, _ in run.PER_LAYER])
    calls = traced[0]["calls_per_command"][0]
    seen = {span.split(".")[0] for per_command in calls.values() for span in per_command}
    problems += [f"no {layer} spans" for layer in LAYERS if layer not in seen]
    for key in ("calls_per_command", "counters_per_command"):
        if traced[0][key] != traced[1][key]:
            problems.append(f"{key} differ between two traced runs")
    return [f"{name}: {p}" for p in problems]


def selftest_bare_directory() -> list[str]:
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {lines[-1:]}"]
    return []


def main() -> int:
    problems = selftest_bare_directory()
    for name in run.WORKLOADS:
        problems += selftest_workload(name)
    for problem in problems:
        print(problem)
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
