"""Every seeded output holds the same bytes on one core, on all cores and on rerun.

Each row of _ROWS runs as a `python -m walkmf` child three times, each in
table order: under a one-core affinity mask, unrestricted, and as `rerun` of
the one-core manifest. OpenBLAS sizes its thread pool to the affinity mask,
and its sums round differently with more threads, so every child keeps BLAS
on one thread: what differs between the runs is how walkmf splits its work.
"""

import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from graphgen import random_connected_graph
from walkmf import serialize_edge_list

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                reason="needs os.sched_setaffinity")

_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
_WALKMF = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-m", "walkmf"]
# Narrows its own mask to one core, then becomes the walkmf command it is given.
_ONE_CORE = [sys.executable, "-c", "import os, sys; os.sched_setaffinity(0, "
             "{min(os.sched_getaffinity(0))}); os.execv(sys.argv[1], sys.argv[1:])"]

# (name, argv): {g} is the graph, {cycle} the cycle and {out} the run's own
# directory, so that a row reads the counts its own run's `sample` wrote.
_ROWS = (
    # 520 nodes: exact's 270k-value matrices are past parallel._SPLIT_VALUES.
    ("exact", "exact -i {g} --target sgns --zero-policy mask"),
    ("exact-truncate", "exact -i {g} --target sgns"),
    ("exact-json", "exact -i {g} --target softmax --zero-policy mask --format json"),
    ("embed", "embed -i {g} --target sgns -d 32"),
    ("embed-left", "embed -i {g} --target sgns -d 32 --split left"),
    # The general SVD route: softmax targets are not symmetric.
    ("embed-softmax", "embed -i {g} --target softmax -d 32"),
    ("sample", "sample -i {g} --workers 2 -L 200000 --seed 3"),
    # Three workers on two cores: the third walk runs in a second round.
    ("sample-rounds", "sample -i {g} --workers 3 -L 300000 --seed 3"),
    # 1.25M steps a worker: a full 2^20-step guessed chunk and a 0.2M-step one.
    ("sample-long", "sample -i {g} --workers 2 -L 2500000 --seed 3"),
    # A directed 301-cycle: the walk stops guessing within its first chunk.
    ("sample-cycle", "sample -i {cycle} --directed -L 1500000 --seed 3"),
    ("compare", "compare -i {g} --counts {out}/sample/counts.csv"),
    ("train", "train --counts {out}/sample/counts.csv -d 16 --epochs 2 --seed 5"),
    # No Adam step: the report compares the initial embeddings' dot products.
    ("train-epochs0", "train --counts {out}/sample/counts.csv -d 16 --epochs 0 --seed 5"),
    # 300 centres see fewer than the 520 nodes: train on a partly observed block.
    ("sample-short", "sample -i {g} -L 300 --seed 3"),
    ("train-short", "train --counts {out}/sample-short/counts.csv -d 16 --epochs 2 --seed 5"),
    ("compare-long", "compare -i {g} --counts {out}/sample-long/counts.csv"),
    ("train-long", "train --counts {out}/sample-long/counts.csv -d 16 --epochs 2 --seed 5"),
)


def _run(argv: list):
    result = subprocess.run(argv, env=_ENV, capture_output=True, text=True)
    assert result.returncode == 0, f"{' '.join(argv)}\n{result.stderr}"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Runs the table on one core beside all cores, then reruns each one-core manifest."""
    work = tmp_path_factory.mktemp("bytes")
    graph = serialize_edge_list(random_connected_graph(520, seed=11, extra_edges=2080))
    (work / "g.edges").write_text(graph)
    (work / "cycle.edges").write_text("".join(f"{i} {(i + 1) % 301}\n" for i in range(301)))

    def table(cores: str):
        paths = {"g": work / "g.edges", "cycle": work / "cycle.edges", "out": work / cores}
        for name, argv in _ROWS:
            _run([*(_ONE_CORE if cores == "one" else []), *_WALKMF,
                  *(arg.format(**paths) for arg in argv.split()), "-o", str(work / cores / name)])

    def rerun(name: str):
        _run([*_WALKMF, "rerun", "--manifest", str(work / "one" / name / "manifest.json"),
              "-o", str(work / "rerun" / name)])

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(table, ("one", "all")))
        list(pool.map(rerun, [name for name, _ in _ROWS]))
    return work


@pytest.mark.parametrize("name", [name for name, _ in _ROWS])
def test_same_bytes_on_one_core_on_all_cores_and_on_rerun(work, name):
    files = sorted(path.name for path in (work / "one" / name).iterdir())
    for run in ("all", "rerun"):
        assert sorted(path.name for path in (work / run / name).iterdir()) == files
        for file in set(files) - {"manifest.json"}:
            assert ((work / run / name / file).read_bytes()
                    == (work / "one" / name / file).read_bytes()), f"{run}/{name}/{file}"


def _savetxt_bytes(path: Path) -> bytes:
    """np.savetxt's bytes for a .csv's values, or an embedding file's under its header."""
    buffer = io.BytesIO()
    if path.suffix == ".csv":
        np.savetxt(buffer, np.loadtxt(path, delimiter=",", ndmin=2), fmt="%.17g", delimiter=",")
        return buffer.getvalue()
    head, newline, _ = path.read_bytes().partition(b"\n")
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    np.savetxt(buffer, rows, fmt=["%d"] + ["%.17g"] * (rows.shape[1] - 1), delimiter=" ")
    return head + newline + buffer.getvalue()


def test_text_outputs_hold_savetxt_bytes(work):
    paths = [path for pattern in ("exact*/*.csv", "embed*/embeddings_*", "train*/embeddings_*")
             for path in sorted((work / "one").glob(pattern))]
    assert len(paths) == 21  # exact's 4 CSVs, exact-truncate's 3, w and h of 7 rows
    for path in paths:
        assert path.read_bytes() == _savetxt_bytes(path), path


def test_mask_marks_exactly_the_target_nans(work):
    read = lambda name: np.loadtxt(work / "one" / "exact" / f"{name}.csv", delimiter=",")
    assert np.array_equal(read("target_mask"), np.isnan(read("target")))
