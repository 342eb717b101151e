"""Each command's expensive calls, counted and pinned.

ROADMAP's design aim computes each closed form once per run. Every command
runs here in-process on a small graph, on one core so that a worker's
calls are made, and counted, in this process. Each row of _BUDGETS gives a
command's count of one counted function and the reason it is made that
often; a counted function a row does not name is not called at all. A call
with hermitian=True is counted apart, under the name "...(hermitian=True)".
"""

from collections import Counter

import numpy as np
import pytest

import walkmf.cli
import walkmf.factorization
import walkmf.graphs
import walkmf.parallel
import walkmf.sampling
import walkmf.sgns
import walkmf.targets
from graphgen import random_connected_graph, random_strongly_connected_digraph
from walkmf import serialize_edge_list

_LAYERS = (walkmf.cli, walkmf.factorization, walkmf.graphs, walkmf.parallel, walkmf.sampling,
           walkmf.sgns, walkmf.targets)

# (name in _BUDGETS, the object that holds it, its attribute there).
_COUNTED = (
    ("walk_probability_matrix", walkmf.targets, "walk_probability_matrix"),
    ("transition_matrix", walkmf.graphs, "transition_matrix"),
    ("np.matmul", np, "matmul"),
    ("np.linalg.svd", np.linalg, "svd"),
    ("np.linalg.eigh", np.linalg, "eigh"),
    ("stationary_distribution", walkmf.graphs, "stationary_distribution"),
    ("_count_components", walkmf.graphs, "_count_components"),
    ("sgns._block", walkmf.sgns, "_block"),
    ("factorization._symmetry", walkmf.factorization, "_symmetry"),
    ("np.loadtxt", np, "loadtxt"),
)

_WINDOW = 5
_GRAPH = ["-i", "GRAPH", "-t", str(_WINDOW)]
_COUNTS = ["--counts", "COUNTS"]
_DIGRAPH = ["-i", "DIGRAPH", "--directed", "-t", str(_WINDOW)]
_DICOUNTS = ["--counts", "DICOUNTS"]

_ONE_A = (1, "one transition matrix, for the walk matrix; undirected pi needs none")
_ONE_A_DIRECTED = (1, "one transition matrix, for the walk matrix and pi's solve")
_POWERS = (_WINDOW - 1, "the walk matrix's powers P^2 .. P^t")
_PI_CHECKS = (1, "stationary_distribution checks connectivity")

_BUDGETS = {
    "exact": (["exact", *_GRAPH, "--target", "sgns"], {
        "walk_probability_matrix": (1, "one walk matrix, for walk_matrix.csv and the target"),
        "transition_matrix": _ONE_A,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "one pi, for the sgns target and stationary.csv"),
        "_count_components": _PI_CHECKS,
    }),
    "exact-softmax": (["exact", *_GRAPH, "--target", "softmax"], {
        "walk_probability_matrix": (1, "one walk matrix, for walk_matrix.csv and the target"),
        "transition_matrix": _ONE_A,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "pi for stationary.csv"),
        "_count_components": _PI_CHECKS,
    }),
    "exact-directed": (["exact", *_DIGRAPH, "--target", "sgns"], {
        "walk_probability_matrix": (1, "one walk matrix, for walk_matrix.csv and the target"),
        "transition_matrix": _ONE_A_DIRECTED,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "one pi, for the sgns target and stationary.csv"),
        "_count_components": _PI_CHECKS,
    }),
    "sample": (["sample", *_GRAPH, "-L", "2000", "--workers", "2", "--seed", "1"], {
        "stationary_distribution": (1, "a stationary start solves pi once for every worker"),
        "_count_components": (3, "stationary_distribution, then generate_walk in each worker"),
    }),
    "compare": (["compare", *_GRAPH, *_COUNTS], {
        "walk_probability_matrix": (1, "one walk matrix, for the conditional and the target"),
        "transition_matrix": _ONE_A,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "one pi, for the frequencies and the target"),
        "_count_components": _PI_CHECKS,
        "np.loadtxt": (1, "read_counts_csv reads the counts once"),
    }),
    "compare-directed": (["compare", *_DIGRAPH, *_DICOUNTS], {
        "walk_probability_matrix": (1, "one walk matrix, for the conditional and the target"),
        "transition_matrix": _ONE_A_DIRECTED,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "one pi, for the frequencies and the target"),
        "_count_components": _PI_CHECKS,
        "np.loadtxt": (1, "read_counts_csv reads the counts once"),
    }),
    "embed-sgns": (["embed", *_GRAPH, "--target", "sgns", "-d", "4"], {
        "walk_probability_matrix": (1, "one walk matrix, for the target"),
        "transition_matrix": _ONE_A,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "pi for the sgns target"),
        "_count_components": _PI_CHECKS,
        "np.linalg.eigh": (1, "factorize takes the symmetric target's eigenpairs"),
        "np.linalg.svd(hermitian=True)": (1, "singular_values' eigenvalue-only driver"),
        "factorization._symmetry": (3, "symmetrize_in_place, factorize and singular_values"),
    }),
    "embed-sgns-directed": (["embed", *_DIGRAPH, "--target", "sgns", "-d", "4"], {
        "walk_probability_matrix": (1, "one walk matrix, for the target"),
        "transition_matrix": _ONE_A_DIRECTED,
        "np.matmul": _POWERS,
        "stationary_distribution": (1, "pi for the sgns target"),
        "_count_components": _PI_CHECKS,
        "np.linalg.svd": (2, "a directed target is not symmetric: factorize, then the spectrum"),
        "factorization._symmetry": (3, "symmetrize_in_place, factorize and singular_values"),
    }),
    "embed-softmax": (["embed", *_GRAPH, "-d", "4"], {
        "walk_probability_matrix": (1, "one walk matrix, for the target"),
        "transition_matrix": _ONE_A,
        "np.matmul": _POWERS,
        "_count_components": (1, "an undirected graph is checked without pi"),
        "np.linalg.svd": (2, "factorize, then singular_values' full spectrum"),
        "factorization._symmetry": (3, "symmetrize_in_place, factorize and singular_values"),
    }),
    "train": (["train", *_COUNTS, "-d", "4", "--epochs", "1"], {
        "np.matmul": (41, "40 Adam steps and one epoch-end objective, on the block's products"),
        "sgns._block": (2, "the epoch-0 sgns_objective, then one block for training and reports"),
        "np.loadtxt": (1, "read_counts_csv reads the counts once"),
    }),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A graph and a digraph, and counts `sample` wrote from each at _WINDOW."""
    work = tmp_path_factory.mktemp("budget")
    paths = {}
    for name, graph, flags in (("GRAPH", random_connected_graph(30, seed=7), []),
                               ("DIGRAPH", random_strongly_connected_digraph(30, seed=7),
                                ["--directed"])):
        paths[name] = str(work / f"{name}.edges")
        (work / f"{name}.edges").write_text(serialize_edge_list(graph))
        assert walkmf.cli.main(["sample", "-i", paths[name], *flags, "-t", str(_WINDOW),
                                "-L", "3000", "-o", str(work / name)]) == 0
    return {**paths, "COUNTS": str(work / "GRAPH" / "counts.csv"),
            "DICOUNTS": str(work / "DIGRAPH" / "counts.csv")}


def _count_calls(monkeypatch) -> dict:
    """Wrap every counted function wherever a walkmf layer binds it; the
    returned dict counts the calls by name."""
    calls = Counter()
    for name, owner, attribute in _COUNTED:
        original = getattr(owner, attribute)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name + ("(hermitian=True)" if kwargs.get("hermitian") else "")] += 1
            return _original(*args, **kwargs)

        for holder in (owner, *_LAYERS):
            if getattr(holder, attribute, None) is original:
                monkeypatch.setattr(holder, attribute, counted)
    return calls


@pytest.mark.parametrize("command", _BUDGETS)
def test_each_command_makes_its_pinned_calls(command, inputs, tmp_path, monkeypatch):
    argv, budget = _BUDGETS[command]
    monkeypatch.setattr(walkmf.parallel, "available_cores", lambda: 1)
    calls = _count_calls(monkeypatch)
    argv = [inputs.get(arg, arg) for arg in argv]
    assert walkmf.cli.main([*argv, "-o", str(tmp_path / "out")]) == 0
    pinned = {name: count for name, (count, _) in budget.items()}
    assert {name: count for name, count in calls.items() if count} == pinned
