#!/usr/bin/env python3
"""walkmf benchmark: run a workload's chain of CLI commands and report metrics.

    python3 perfbench/run.py --workload dense-pipeline --seed 1 --seconds 55 --trace 0

Run from the root of a walkmf checkout; the commands import walkmf from its
`src/`. The run generates the workload's inputs from --seed, then repeats
passes over the chain `exact`, `sample`, `compare`, `embed`, `train` until
--seconds have passed. Each command is a separate `python -m walkmf`
subprocess, run one at a time (a closed loop with one client); BLAS keeps its
default thread count. Every output is checked.

The VM the benchmark is tuned on switches between a fast and a slow speed
every few seconds, and the share of slow time drifts from minute to
minute, as other tenants load the host. So a time is the mean over the
run's passes, which weighs fast and slow spells by their length, and
before every process it times, the benchmark times a fixed pure-Python
loop in its own process (the speed probe). Every end-to-end time is
reported at the reference speed: the mean wall time times
REFERENCE_PROBE_S / (the run's mean probe time). The program never runs
while a probe does, so it cannot move the probe. The measured means stay
in the record.

The workloads and the metric names and units come from BENCHMARK.json next
to `perfbench/`; the workload parameters are below.

--trace 0 reports the end-to-end metrics. --trace 1 alternates an untraced
pass with a traced pass, in which each command runs in-process under
`tracer.py`, and reports the per-layer metrics. The last stdout line is the
JSON result; the full record (environment, speed probes, input digests,
every sample and span) is written under `.perfbench_work/results/`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
import tracer
from inputs import directed_edges, sha256_of, undirected_edges, write_edge_list

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

COMMANDS = ("exact", "sample", "compare", "embed", "train")
WORKERS = 2  # every sample call splits its walk, so merge_counts runs everywhere
EPOCHS = 5  # the CLI default, passed explicitly so the positives count is known
SETUP_REPEATS = 3  # set-up probes per pass, so they sample the whole run
COMMAND_TIMEOUT_S = 150
PROBE_KEYS = 250_000  # dictionary updates per speed probe, over 65,536 distinct keys
# speed_probe() on the 2-vCPU VM the bounds were set on, in its fast state.
REFERENCE_PROBE_S = 0.044


@dataclass(frozen=True)
class Workload:
    name: str
    directed: bool
    n: int
    edges: int
    window: int
    negatives: int
    centers: int  # `sample -L` in the timed chain
    embed_dim: int
    train_centers: int  # `sample -L` made in set-up; its counts feed `train`
    train_dim: int


WORKLOADS = {w.name: w for w in (
    Workload("dense-pipeline", directed=False, n=800, edges=4000, window=5, negatives=5,
             centers=150_000, embed_dim=64, train_centers=100, train_dim=32),
    Workload("walk-train", directed=True, n=300, edges=1200, window=5, negatives=5,
             centers=4_000_000, embed_dim=32, train_centers=3000, train_dim=32),
)}
if sorted(WORKLOADS) != sorted(w["name"] for w in SPEC["workloads"]):
    raise SystemExit("perfbench: run.py and BENCHMARK.json name different workloads")

# Per-layer timings: inclusive time of each public function, summed over the chain.
TIMED_FUNCTIONS = {
    "graphs": ("load_edge_list", "check_connectivity", "transition_matrix",
               "stationary_distribution"),
    "sampling": ("generate_walk", "extract_pairs", "merge_counts", "write_counts_csv",
                 "read_counts_csv", "empirical_conditional"),
    "targets": ("walk_probability_matrix", "sgns_target_exact", "sgns_target_from_counts",
                "compare_matrices", "write_matrix_csv"),
    "factorization": ("factorize", "singular_values", "reconstruction_error",
                      "write_embedding_matrix"),
    "sgns": ("train_sgns", "sgns_objective"),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], cwd: Path, timeout: float = COMMAND_TIMEOUT_S) -> Sample:
    """Run one process to completion through launch.py; its wall time and
    its own peak RSS. On timeout the whole process group is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(cwd / "stderr.log", "ab") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py"), *argv], cwd=cwd,
                                env=env, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            return Sample(timeout, 0.0, 0.0, exit_code=-signal.SIGKILL)
        except BaseException:  # interrupted or terminated: leave no process behind
            _kill_group(proc)
            raise
    if proc.returncode:
        return Sample(0.0, 0.0, 0.0, exit_code=proc.returncode)
    return Sample(**json.loads(out))


def _kill_group(proc: subprocess.Popen, limit_s: float = 10.0) -> None:
    """Kill the launcher and the command under it, and wait until both are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def walkmf(*args) -> list[str]:
    return [sys.executable, "-m", "walkmf", *map(str, args)]


def chain(w: Workload, seed: int) -> dict[str, list[str]]:
    graph = ["-i", "graph.txt"] + (["--directed"] if w.directed else [])
    common = graph + ["-t", w.window]
    return {
        "exact": ["exact", *common, "--target", "sgns", "-k", w.negatives, "-o", "out/exact"],
        "sample": ["sample", *common, "-L", w.centers, "--seed", seed,
                   "--workers", WORKERS, "-o", "out/sample"],
        "compare": ["compare", *common, "-k", w.negatives,
                    "--counts", "out/sample/counts.csv", "-o", "out/compare"],
        "embed": ["embed", *common, "--target", "sgns", "-k", w.negatives,
                  "-d", w.embed_dim, "-o", "out/embed"],
        "train": ["train", "--counts", "setup/counts.csv", "-d", w.train_dim,
                  "-k", w.negatives, "--epochs", EPOCHS, "--seed", seed, "-o", "out/train"],
    }


def probe_keys() -> list[int]:
    return random.Random(0).choices(range(1 << 16), k=PROBE_KEYS)


def speed_probe(keys: list[int]) -> float:
    """Wall time of a fixed pure-Python loop: counting keys in a dictionary
    of a few MB, the kind of work that dominates most walkmf commands. A
    dictionary this size slows down in the VM's slow spells about as much as
    the commands do; one that fits in a core's own cache slows less."""
    start = time.perf_counter()
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


SETUP_PROBE = (
    "import sys\n"
    "from walkmf.graphs import load_edge_list, require_connected\n"
    "require_connected(load_edge_list(sys.argv[1], directed=sys.argv[2] == '1'))\n"
)


def guarded(check, *args) -> list[str]:
    """A check's failures; output it cannot parse is a failure too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


class Run:
    """One benchmark run of one workload: set-up, passes, checks, metrics."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = w, seed, work
        self.argv = {name: [str(a) for a in argv] for name, argv in chain(w, seed).items()}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[Sample]] = defaultdict(list)
        self.quality: dict[str, float] = {}
        self.first_outputs: dict[str, dict[str, str]] = {}
        self.traces: list[dict] = []  # one {command: trace} per traced pass
        self.chain_walls: dict[bool, list[float]] = defaultdict(list)  # per pass, checks excluded
        self.setup_samples: list[float] = []
        self.probe_keys = probe_keys()
        self.probe_samples: list[float] = []  # speed_probe() before each untraced process

    def record(self, what: str, failures: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{what}: {message}" for message in failures)
        return not failures

    def set_up(self) -> dict:
        w, work = self.w, self.work
        shutil.rmtree(work, ignore_errors=True)
        (work / "setup").mkdir(parents=True)
        start = time.perf_counter()
        make = directed_edges if w.directed else undirected_edges
        digests = {"graph.txt": write_edge_list(make(w.n, w.edges, self.seed), work / "graph.txt")}
        sample = run_child(walkmf("sample", "-i", "graph.txt", *(["--directed"] if w.directed else []),
                                  "-t", w.window, "-L", w.train_centers, "--seed", self.seed,
                                  "-o", "setup"), work)
        if self.record("setup sample", [f"exit {sample.exit_code}"] if sample.exit_code else []):
            self.record("setup sample output", guarded(
                checks.check_counts, work / "setup", w.n, w.directed, w.window, w.train_centers))
        if not self.failures:
            for name in ("counts.csv", "counts.json"):
                digests[f"setup/{name}"] = sha256_of(work / "setup" / name)
            self.train_counts, _ = checks.read_counts(work / "setup", w.n)
            self.train_positives = EPOCHS * int(self.train_counts.sum())
        self.prepare_s = time.perf_counter() - start
        return digests

    def probe_setup(self) -> None:
        """Time fresh processes that import walkmf and load and check the graph."""
        for _ in range(SETUP_REPEATS):
            self.probe_samples.append(speed_probe(self.probe_keys))
            probe = run_child([sys.executable, "-c", SETUP_PROBE, "graph.txt",
                               "1" if self.w.directed else "0"], self.work)
            if self.record("setup probe", [f"exit {probe.exit_code}"] if probe.exit_code else []):
                self.setup_samples.append(probe.wall_s)

    def check(self, command: str) -> list[str]:
        """Check a command's outputs in full the first time it runs; later
        runs must reproduce them byte for byte (seeded runs are identical)."""
        out = self.work / "out" / command
        if not out.is_dir():
            return ["no output directory"]
        digests = {p.name: sha256_of(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}
        if command in self.first_outputs:
            if digests != self.first_outputs[command]:
                return ["outputs differ from the command's first run"]
            return []
        failures = guarded(self.check_content, command, out)
        if not failures:
            self.first_outputs[command] = digests
        return failures

    def check_content(self, command: str, out: Path) -> list[str]:
        w = self.w
        if command == "exact":
            return checks.check_exact(out, w.n)
        if command == "sample":
            return checks.check_counts(out, w.n, w.directed, w.window, w.centers)
        if command == "compare":
            return checks.check_compare(out)
        if command == "embed":
            failures, self.quality["embed_rel_error"] = checks.check_embed(
                out, self.work / "out" / "exact" / "target.csv", w.n, w.embed_dim)
            return failures
        failures, self.quality["train_objective_gap"] = checks.check_train(
            out, self.train_counts, w.negatives, w.train_dim, EPOCHS)
        return failures

    def one_pass(self, traced: bool) -> None:
        traces = {}
        chain_wall = 0.0
        for command in COMMANDS:
            if traced:
                spans = self.work / "out" / f"{command}.trace.json"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                        *self.argv[command]]
            else:
                argv = walkmf(*self.argv[command])
                self.probe_samples.append(speed_probe(self.probe_keys))
            sample = run_child(argv, self.work)
            chain_wall += sample.wall_s
            label = f"{'traced ' if traced else ''}{command}"
            if sample.exit_code:
                self.record(label, [f"exit {sample.exit_code}"])
                continue
            if not self.record(label, self.check(command)):
                continue
            if traced:
                traces[command] = tracer.summarise(json.loads(spans.read_text()))
                traces[command]["peak_rss_mb"] = sample.peak_rss_mb
            else:
                self.samples[command].append(sample)
        self.chain_walls[traced].append(chain_wall)
        if traced:
            self.traces.append(traces)

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until the next one would end after `seconds` (at least one);
        each starts with the set-up probes."""
        deadline = time.perf_counter() + seconds
        while not self.failures:
            pass_start = time.perf_counter()
            self.probe_setup()
            self.one_pass(traced=False)
            if trace:
                self.one_pass(traced=True)
            now = time.perf_counter()
            if now + (now - pass_start) > deadline:
                return

    def wall_times(self) -> dict[str, float]:
        """Mean wall time of each command, set-up and the whole chain, as measured."""
        mean = {c: statistics.fmean(s.wall_s for s in self.samples[c])
                for c in COMMANDS if self.samples[c]}
        times = {f"{c}_s": t for c, t in mean.items()}
        times["setup_s"] = statistics.fmean(self.setup_samples)
        times["pipeline_s"] = sum(mean.values())
        return times

    def speed_scale(self) -> float:
        """REFERENCE_PROBE_S over the run's mean probe: below 1 when the
        machine ran slower than the reference."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probe_samples)

    def end_to_end(self) -> dict[str, float]:
        scale = self.speed_scale()
        metrics = {name: t * scale for name, t in self.wall_times().items()}
        metrics["peak_rss_mb"] = max(statistics.median(s.peak_rss_mb for s in self.samples[c])
                                     for c in COMMANDS if self.samples[c])
        metrics.update(self.quality)
        return metrics

    def per_layer(self) -> dict[str, float]:
        per_pass = [layer_metrics(traces) for traces in self.traces]
        seen = set().union(*per_pass)
        metrics = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
                   for name, _ in PER_LAYER if name in seen}
        metrics["cli.trace_overhead_s"] = (statistics.median(self.chain_walls[True])
                                           - statistics.median(self.chain_walls[False]))
        out = self.work / "out"
        counts = out / "sample" / "counts.csv"
        metrics["sampling.pairs"] = json.loads((out / "sample" / "counts.json").read_text())["total"]
        with open(counts, "rb") as fh:
            metrics["sampling.nonzero_pairs"] = sum(1 for _ in fh) - 1
        metrics["sampling.counts_csv_bytes"] = counts.stat().st_size
        metrics["targets.matrix_csv_bytes"] = sum(p.stat().st_size for p in (out / "exact").glob("*.csv"))
        metrics["sgns.positives"] = self.train_positives
        metrics["sampling.walk_steps_per_s"] = _rate(metrics["sampling.walk_steps"],
                                                     metrics["sampling.generate_walk_s"])
        metrics["sgns.positives_per_s"] = _rate(metrics["sgns.positives"],
                                                metrics["sgns.train_sgns_s"])
        return metrics


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the chain."""
    out = defaultdict(float)
    for command, summary in traces.items():
        for name, seconds in summary["inclusive_s"].items():
            out[f"{name}_s"] += seconds
        for layer, seconds in summary["layer_self_s"].items():
            if layer != "cli":
                out[f"{layer}.self_s"] += seconds
        out[f"cli.{command}.self_s"] = summary["layer_self_s"].get("cli", 0.0)
        out[f"cli.{command}.peak_rss_mb"] = summary["peak_rss_mb"]
        calls = summary["calls"]
        out["targets.walk_probability_matrix_calls"] += calls.get("targets.walk_probability_matrix", 0)
        out["sgns.objective_evals"] += calls.get("sgns.sgns_objective", 0)
        for name, value in summary["counters"].items():
            out[name] += value
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() if (ROOT / ".git").exists() else None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
    }


def blas_threads():
    """OpenBLAS's own thread count, or None when the symbol is not found."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, measure and check one run; returns the full record."""
    run_start = time.perf_counter()
    record = {"workload": asdict(w), "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    run = Run(w, seed, work)
    record["input_sha256"] = run.set_up()
    record["prepare_s"] = run.prepare_s
    if not run.failures:
        run.measure(seconds, trace)
    record["commands"] = run.argv
    record["samples"] = {c: [asdict(s) for s in run.samples[c]] for c in COMMANDS}
    record["cpu_s"] = {c: statistics.median(s.cpu_s for s in run.samples[c])
                       for c in COMMANDS if run.samples[c]}
    record["setup_samples_s"] = run.setup_samples
    record["probe_samples_s"] = run.probe_samples
    record["machine"] = {"probe_mean_s": statistics.fmean(run.probe_samples),
                         "speed_scale": run.speed_scale()} if run.probe_samples else {}
    record["failures"] = run.failures
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    if not run.failures:
        metrics = run.per_layer() if trace else run.end_to_end()
        record["measured_wall_s"] = run.wall_times()
        missing = [name for name, _ in wanted if name not in metrics]
        if missing:
            raise SystemExit(f"perfbench: the run measured no {', '.join(missing)}")
        if trace:
            record["inclusive_s_per_command"] = [{c: t["inclusive_s"] for c, t in p.items()}
                                                 for p in run.traces]
            record["calls_per_command"] = [{c: t["calls"] for c, t in p.items()} for p in run.traces]
            record["counters_per_command"] = [{c: t["counters"] for c, t in p.items()}
                                              for p in run.traces]
    record["result"] = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in wanted},
    }
    record["wall_s"] = time.perf_counter() - run_start
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "walkmf" / "cli.py").is_file():
        print(f"perfbench: no walkmf sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    record = run_workload(w, args.seed, args.seconds, bool(args.trace), WORK / w.name)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    result = record["result"]
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for key, value in record["machine"].items():
        print(f"machine.{key} {value:.4f}")
    for name, value in record.get("measured_wall_s", {}).items():
        print(f"measured.{name} {value:.6g} s")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
