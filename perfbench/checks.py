"""Output checks for each walkmf command in a benchmark chain.

Each check reads the files a command wrote and returns a list of failure
messages (empty when every check passes), plus the values the benchmark
reports from those outputs. The checks recompute what they can with plain
NumPy instead of calling walkmf (spectra, reconstruction errors, objectives),
so a defect in the library cannot hide itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12  # walk-matrix rows and pi must sum to 1 within this
FREQUENCY_TOL = 0.01  # max |empirical frequency - pi|, as in acceptance 02
ECKART_YOUNG_RTOL = 1e-9  # frobenius error vs tail-spectrum norm


def read_counts(out_dir: Path, n: int) -> tuple[np.ndarray, dict]:
    """Dense count matrix from counts.csv, and the sidecar counts.json."""
    rows = np.loadtxt(out_dir / "counts.csv", delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    mat = np.zeros((n, n), dtype=np.int64)
    mat[rows[:, 0], rows[:, 1]] = rows[:, 2]
    sidecar = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
    return mat, sidecar


def check_counts(out_dir: Path, n: int, directed: bool, window: int, centers: int) -> list[str]:
    mat, sidecar = read_counts(out_dir, n)
    failures = []
    expected = (1 if directed else 2) * window * centers
    if sidecar["total"] != expected:
        failures.append(f"sidecar total {sidecar['total']} != {expected}")
    if int(mat.sum()) != expected:
        failures.append(f"counts.csv total {int(mat.sum())} != {expected}")
    if not np.array_equal(mat.sum(axis=1), sidecar["node_counts"]):
        failures.append("node_counts disagree with counts.csv row sums")
    if not np.array_equal(mat.sum(axis=0), sidecar["context_counts"]):
        failures.append("context_counts disagree with counts.csv column sums")
    if not directed and not np.array_equal(mat, mat.T):
        failures.append("undirected counts are not symmetric")
    return failures


def check_exact(out_dir: Path, n: int) -> list[str]:
    walk = np.loadtxt(out_dir / "walk_matrix.csv", delimiter=",", ndmin=2)
    pi = np.loadtxt(out_dir / "stationary.csv", ndmin=1)
    target = np.loadtxt(out_dir / "target.csv", delimiter=",", ndmin=2)
    failures = []
    if walk.shape != (n, n) or target.shape != (n, n) or pi.shape != (n,):
        return [f"shapes {walk.shape}, {target.shape}, {pi.shape} do not match n={n}"]
    row_error = float(np.abs(walk.sum(axis=1) - 1.0).max())
    if row_error > PROB_TOL or walk.min() < 0:
        failures.append(f"walk-matrix rows miss 1 by {row_error:.3g}")
    if abs(float(pi.sum()) - 1.0) > PROB_TOL or pi.min() < 0:
        failures.append(f"stationary distribution sums to {float(pi.sum())!r}")
    if not np.all(np.isfinite(target)):
        failures.append("target has non-finite entries")
    return failures


def check_compare(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "comparison.json").read_text(encoding="utf-8"))
    max_abs = report["frequency_vs_stationary"]["max_abs"]
    if not max_abs <= FREQUENCY_TOL:
        return [f"frequency_vs_stationary.max_abs {max_abs:.3g} > {FREQUENCY_TOL}"]
    return []


def read_embeddings(path: Path, n: int, dim: int) -> np.ndarray:
    """An n x dim matrix from a word2vec text file whose rows are ids 0..n-1."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    if header != [str(n), str(dim)]:
        raise ValueError(f"{path.name} header {header} != [{n}, {dim}]")
    rows = np.loadtxt(path, skiprows=1, ndmin=2)
    if rows.shape != (n, dim + 1) or not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError(f"{path.name} does not hold rows 0..{n - 1} of {dim} numbers")
    return rows[:, 1:]


def check_embed(out_dir: Path, target_csv: Path, n: int, dim: int) -> tuple[list[str], float]:
    """Eckart-Young, recomputed: the target (the same one `exact` wrote) has
    the reported spectrum, the embeddings' error is the reported one, and it
    equals the norm of the spectrum past `dim`."""
    report = json.loads((out_dir / "reconstruction.json").read_text(encoding="utf-8"))
    target = np.loadtxt(target_csv, delimiter=",", ndmin=2)
    spectrum = np.linalg.svd(target, compute_uv=False)
    w = read_embeddings(out_dir / "embeddings_w.txt", n, dim)
    h = read_embeddings(out_dir / "embeddings_h.txt", n, dim)
    error = float(np.linalg.norm(target - w @ h.T))
    tail = float(np.sqrt(np.sum(spectrum[dim:] ** 2)))
    norm = float(np.linalg.norm(target))
    # Relative to the tail; a tail below 1e-6 of the target norm is rounding
    # noise (rank <= d), where both numbers are ~1e-16 of the norm.
    scale = ECKART_YOUNG_RTOL * max(tail, 1e-6 * norm)
    failures = []
    reported = np.asarray(report["singular_values"])
    if reported.shape != spectrum.shape or np.abs(reported - spectrum).max() > ECKART_YOUNG_RTOL * spectrum[0]:
        failures.append("reported singular values differ from the target's")
    if abs(error - tail) > scale:
        failures.append(f"embedding error {error!r} != tail-spectrum norm {tail!r}")
    if abs(report["frobenius_error"] - error) > scale:
        failures.append(f"reported error {report['frobenius_error']!r} != recomputed {error!r}")
    return failures, error / norm


def sgns_objective(mat: np.ndarray, w: np.ndarray, h: np.ndarray, negatives: int) -> float:
    """The exact SGNS objective: sum over (v, c) of #(v,c) log s(x) +
    k #(v)#(c)/|D| log s(-x), x the (v, c) dot product."""
    pos = mat.astype(float)
    neg = negatives * np.outer(mat.sum(axis=1), mat.sum(axis=0)) / mat.sum()
    x = w @ h.T
    return float(np.sum(-pos * np.logaddexp(0.0, -x) - neg * np.logaddexp(0.0, x)))


def sgns_upper_bound(mat: np.ndarray, negatives: int) -> float:
    """Sum of per-pair maxima of the exact SGNS objective (no embedding can
    exceed it): at x* = log(#(v,c)|D| / (k #(v)#(c))) the pair term is
    #(v,c) log s(x*) + k #(v)#(c)/|D| log s(-x*)."""
    total = mat.sum()
    pos = mat.astype(float)
    neg = negatives * np.outer(mat.sum(axis=1), mat.sum(axis=0)) / total
    hit = pos > 0
    x_star = np.log(pos[hit] / neg[hit])
    return float(np.sum(-pos[hit] * np.logaddexp(0.0, -x_star)
                        - neg[hit] * np.logaddexp(0.0, x_star)))


def check_train(out_dir: Path, mat: np.ndarray, negatives: int, dim: int,
                epochs: int) -> tuple[list[str], float]:
    """Training must improve the exact objective and stay below its bound,
    and the logged final objective must be that of the written embeddings;
    returns the gap (bound - final) / |bound|."""
    with open(out_dir / "training_log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    objective = [float(row["objective"]) for row in rows]
    if len(objective) != epochs + 1:
        return [f"training log has {len(objective)} rows, expected {epochs + 1}"], float("nan")
    w = read_embeddings(out_dir / "embeddings_w.txt", mat.shape[0], dim)
    h = read_embeddings(out_dir / "embeddings_h.txt", mat.shape[0], dim)
    first, final = objective[0], objective[-1]
    recomputed = sgns_objective(mat, w, h, negatives)
    upper_bound = sgns_upper_bound(mat, negatives)
    failures = []
    # Both sums hold the same terms in another order; allow their rounding.
    if abs(final - recomputed) > 1e-9 * abs(recomputed):
        failures.append(f"logged final objective {final!r} != recomputed {recomputed!r}")
    if not final > first:
        failures.append(f"final objective {final!r} not above epoch-0 objective {first!r}")
    if final > upper_bound + 1e-12 * abs(upper_bound):
        failures.append(f"final objective {final!r} exceeds the upper bound {upper_bound!r}")
    return failures, (upper_bound - final) / abs(upper_bound)
