"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from graphgen import complete, cycle, path3, random_connected_graph, triangle
from walkmf import (
    CooccurrenceCounts,
    SamplerConfig,
    TrainConfig,
    dot_matrix,
    empirical_conditional,
    empirical_frequency,
    expected_neighbor_counts,
    sample_counts,
    sgns_objective,
    sgns_objective_gradient,
    train_sgns,
    transition_matrix,
    truncated_svd,
    walk_probability_matrix,
    write_counts_csv,
    write_counts_sidecar,
)
from walkmf import EmbeddingPair, factorize, reconstruction_error, softmax_target
from walkmf.cli import main
from walkmf.targets import read_matrix_csv

SAMPLE_LENGTH = 1_000_000

# Five fixed random connected undirected graphs with n <= 10. Minimum degree 2
# keeps every node visited often enough for the stated tolerances.
SUITE_SEEDS = (101, 102, 103, 104, 105)
SUITE_SIZES = (6, 7, 8, 9, 10)


def suite_graphs():
    return [random_connected_graph(n, seed, extra_edges=n, min_degree=2)
            for n, seed in zip(SUITE_SIZES, SUITE_SEEDS)]


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {description}")
        return wrapper
    return decorate


def _walk_matrix_oracle(g, window):
    mat = transition_matrix(g)
    return sum(np.linalg.matrix_power(mat, s) for s in range(1, window + 1)) / window


def _row_softmax(mat):
    shifted = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


@criterion(1, "closed-form walk matrix and log target on the path graph (cmd exact)")
def test_criterion_01_closed_form_oracle(tmp_path):
    start = time.perf_counter()
    graph_file = tmp_path / "path.edges"
    graph_file.write_text("0 1\n1 2\n")
    out = tmp_path / "out"
    assert main(["exact", "-i", str(graph_file), "-t", "2", "--bias", "zero",
                 "-o", str(out)]) == 0

    expected_rows = np.tile([0.25, 0.5, 0.25], (3, 1))
    oracle = _walk_matrix_oracle(path3(), 2)
    assert np.max(np.abs(oracle - expected_rows)) < 1e-15  # oracle agrees first

    walk = read_matrix_csv(out / "walk_matrix.csv")
    assert np.max(np.abs(walk - expected_rows)) < 1e-12
    target = read_matrix_csv(out / "target.csv")
    assert np.max(np.abs(target - np.log(expected_rows))) < 1e-12
    assert time.perf_counter() - start < 1.0


@criterion(2, "node frequencies at L=1e6 match degree/(2|E|) within 0.01")
def test_criterion_02_frequency_identity():
    start = time.perf_counter()
    for index, g in enumerate(suite_graphs()):
        counts = sample_counts(g, SamplerConfig(window=2, centers=SAMPLE_LENGTH, seed=index))
        freq = empirical_frequency(counts)
        exact = g.degrees / g.degrees.sum()
        assert np.max(np.abs(freq - exact)) < 0.01, f"graph {index}"
    assert time.perf_counter() - start < 30.0


@criterion(3, "windowed conditionals at L=1e6 match (A+...+A^t)/t within 0.01")
def test_criterion_03_walk_probability_identity():
    start = time.perf_counter()
    for index, g in enumerate(suite_graphs()):
        for window in (1, 2, 5):
            counts = sample_counts(
                g, SamplerConfig(window=window, centers=SAMPLE_LENGTH, seed=10 * index + window))
            emp = empirical_conditional(counts)
            exact = walk_probability_matrix(g, window).probs
            keep = exact >= 0.01
            assert np.max(np.abs(emp - exact)[keep]) < 0.01, f"graph {index}, window {window}"
    assert time.perf_counter() - start < 120.0


@criterion(4, "sampled 2t-normalized counts match 2t*P within 2% relative")
def test_criterion_04_expected_neighbor_identity():
    cases = [(g, 1, 400 + i) for i, g in enumerate(suite_graphs())] + [(path3(), 2, 90)]
    for g, window, seed in cases:
        counts = sample_counts(g, SamplerConfig(window=window, centers=SAMPLE_LENGTH, seed=seed))
        # #(v,c) / (#(v)/2t) = 2t * empirical conditional
        emp = 2 * window * empirical_conditional(counts)
        exact = expected_neighbor_counts(walk_probability_matrix(g, window))
        keep = exact >= 0.05
        relative = np.abs(emp - exact)[keep] / exact[keep]
        assert np.max(relative) < 0.02, f"seed {seed}"


@criterion(5, "per-pair objective peaks at PMI - log k (100 random count sets)")
def test_criterion_05_sgns_critical_point():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        counts = CooccurrenceCounts(rng.integers(1, 40, size=(n, n)))
        k = int(rng.integers(1, 6))
        v, c = (int(x) for x in rng.integers(0, n, size=2))
        joint = int(counts.dense[v, c])
        noise_mass = k * counts.node_counts[v] * counts.context_counts[c] / counts.total
        pmi = math.log(joint * counts.total
                       / (counts.node_counts[v] * counts.context_counts[c]))
        x_star = pmi - math.log(k)

        def ell(x):
            return joint * _log_sigmoid(x) + noise_mass * _log_sigmoid(-x)

        step = 1e-4
        derivative = (ell(x_star + step) - ell(x_star - step)) / (2 * step)
        assert abs(derivative) < 1e-6
        assert ell(x_star) > ell(x_star + 0.1) and ell(x_star) > ell(x_star - 0.1)


@criterion(6, "SGNS training on uniform triangle counts reaches log(3/2) +- 0.1")
def test_criterion_06_training_convergence():
    start = time.perf_counter()
    mat = np.full((3, 3), 100, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    counts = CooccurrenceCounts(mat)
    cfg = TrainConfig(dim=3, negatives=1, epochs=200, learning_rate=0.05, seed=1)
    result = train_sgns(counts, cfg)
    off = dot_matrix(result.embeddings)[~np.eye(3, dtype=bool)]
    assert np.mean(np.abs(off - math.log(1.5))) <= 0.1
    assert time.perf_counter() - start < 10.0


@criterion(7, "analytic objective gradients match finite differences (1e-5 relative)")
def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        counts = CooccurrenceCounts(rng.integers(1, 30, size=(n, n)))
        pair = EmbeddingPair(w=rng.normal(scale=0.6, size=(n, d)),
                             h=rng.normal(scale=0.6, size=(n, d)))
        grad_w, grad_h = sgns_objective_gradient(counts, pair, k)

        step = 1e-6
        for grad, which in ((grad_w, "w"), (grad_h, "h")):
            fd = np.zeros_like(grad)
            for i in range(n):
                for j in range(d):
                    up_w, up_h = pair.w.copy(), pair.h.copy()
                    dn_w, dn_h = pair.w.copy(), pair.h.copy()
                    (up_w if which == "w" else up_h)[i, j] += step
                    (dn_w if which == "w" else dn_h)[i, j] -= step
                    fd[i, j] = (
                        sgns_objective(counts, EmbeddingPair(w=up_w, h=up_h), k)
                        - sgns_objective(counts, EmbeddingPair(w=dn_w, h=dn_h), k)
                    ) / (2 * step)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)


@criterion(8, "row softmax of either biased target reproduces P within 1e-10")
def test_criterion_08_softmax_bias_invariance():
    all_positive = [(path3(), 2), (triangle(), 2), (complete(4), 2), (cycle(5), 2)]
    for g, window in all_positive:
        p = walk_probability_matrix(g, window)
        assert p.probs.min() > 0, "case must have all-positive entries"
        for bias in ("zero", "log2t"):
            target = softmax_target(p, bias_mode=bias, zero_policy="floor")
            assert np.max(np.abs(_row_softmax(target.values) - p.probs)) < 1e-10


@criterion(9, "truncated SVD matches the Gram-eigenvalue oracle and Eckart-Young")
def test_criterion_09_factorizer():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mat = rng.normal(size=(6, 6))
        _, s, _ = truncated_svd(mat, d=6)
        oracle = np.sqrt(np.clip(np.linalg.eigvalsh(mat.T @ mat), 0.0, None))[::-1]
        assert np.max(np.abs(s - oracle)) < 1e-8

        errors = [reconstruction_error(mat, factorize(mat, d)) for d in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8 * np.linalg.norm(mat)


@criterion(10, "every CLI command rerun from its manifest is byte-identical")
def test_criterion_10_manifest_reproducibility(tmp_path):
    graph_file = tmp_path / "path.edges"
    graph_file.write_text("0 1\n1 2\n")
    mat = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.int64)
    counts = CooccurrenceCounts(mat)
    counts_csv = tmp_path / "counts.csv"
    write_counts_csv(counts, counts_csv)
    write_counts_sidecar(counts, tmp_path / "counts.json")

    runs = {
        "exact": ["exact", "-i", str(graph_file), "-t", "2", "-o", str(tmp_path / "r_exact")],
        "sample": ["sample", "-i", str(graph_file), "-t", "2", "-L", "2000", "--seed", "6",
                   "--workers", "3", "-o", str(tmp_path / "r_sample")],
        "compare": ["compare", "-i", str(graph_file), "--counts", str(counts_csv),
                    "-t", "2", "-k", "1", "-o", str(tmp_path / "r_compare")],
        "embed": ["embed", "-i", str(graph_file), "-t", "2", "-d", "3",
                  "-o", str(tmp_path / "r_embed")],
        "train": ["train", "--counts", str(counts_csv), "-d", "2", "-k", "2",
                  "--epochs", "3", "--seed", "9", "-o", str(tmp_path / "r_train")],
    }
    for name, argv in runs.items():
        assert main(argv) == 0, name
        out_dir = tmp_path / f"r_{name}"
        redo_dir = tmp_path / f"redo_{name}"
        assert main(["rerun", "--manifest", str(out_dir / "manifest.json"),
                     "-o", str(redo_dir)]) == 0, name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        for output in manifest["outputs"]:
            assert (redo_dir / output).read_bytes() == (out_dir / output).read_bytes(), (
                f"{name}: {output} differs on rerun")
