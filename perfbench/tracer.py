"""Span tracer for the traced benchmark run.

Run as a script, it executes one walkmf CLI command in-process with every
public function of the layer modules wrapped, then writes the spans:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json exact -i graph.txt ...

A function is wrapped wherever it is bound: in the module that defines it,
in `walkmf.cli`, in the `walkmf` package and in every sibling module that
imported it, so nested calls (`sgns_target_exact` -> `walk_probability_matrix`
-> `transition_matrix`) become child spans. Nothing under `src/` changes.
Spans stay in memory and are written once, when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("graphs", "sampling", "targets", "factorization", "sgns")


def _walk_steps(bound, result):
    return {"sampling.walk_steps": len(result) - 1}


def _matmul_flops(bound, result):
    # t-1 dense n x n products per call, 2 n^3 flops each (computed, not measured).
    graph, window = list(bound.arguments.values())[:2]
    return {"targets.matmul_flops": 2 * graph.n ** 3 * (window - 1)}


# Counters derived from a call's arguments or result, recorded at its wrapper.
HOOKS = {
    "sampling.generate_walk": _walk_steps,
    "targets.walk_probability_matrix": _matmul_flops,
}


class Tracer:
    """Records (name, start, end, parent) spans and counters in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook:
                self.counters.update(hook(signature.bind(*args, **kwargs), result))
            return result

        return traced

    def install(self):
        """Wrap every public layer function wherever walkmf binds it, and
        count full SVDs at numpy's entry point."""
        import numpy as np
        import walkmf
        import walkmf.cli

        modules = {layer: importlib.import_module(f"walkmf.{layer}") for layer in LAYERS}
        hosts = [walkmf, walkmf.cli, *modules.values()]
        for layer, module in modules.items():
            functions = [(attr, fn) for attr, fn in vars(module).items()
                         if not attr.startswith("_") and inspect.isfunction(fn)
                         and fn.__module__ == module.__name__]
            for attr, fn in functions:
                traced = self.wrap(f"{layer}.{attr}", fn)
                for host in hosts:
                    for host_attr, value in list(vars(host).items()):
                        if value is fn:
                            setattr(host, host_attr, traced)

        svd = np.linalg.svd

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            self.counters["factorization.svd_calls"] += 1
            return svd(*args, **kwargs)

        np.linalg.svd = counted_svd

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def summarise(trace: dict) -> dict:
    """Per-function inclusive time and calls, per-layer self time, and the
    root (command) span's self time, from one command's spans."""
    spans = trace["spans"]
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        layer_self[name.split(".")[0]] += (end - start) - children[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:  # count a recursive call's time once
            inclusive[name] += end - start
    root = spans[0]
    return {
        "inclusive_s": dict(inclusive),
        "calls": dict(calls),
        "layer_self_s": dict(layer_self),
        "command_s": root[2] - root[1],
        "counters": trace["counters"],
    }


def main(argv: list[str]) -> int:
    out_path, cli_argv = Path(argv[0]), argv[1:]
    import walkmf.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.call(f"cli.{cli_argv[0]}", walkmf.cli.main, cli_argv)
    out_path.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
