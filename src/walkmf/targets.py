"""Closed-form target matrices for walk co-occurrence statistics.

`walk_probability_matrix` averages the first `t` transition-matrix powers;
its elementwise log (optionally biased by log 2t) is the softmax target, and
the log ratio of pair statistics to marginals, shifted by log k, is the
negative-sampling target. Log of zero is resolved by an explicit zero policy
so every target is factorizable (or carries a mask).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, transition_matrix
from .parallel import write_rows
from .sampling import CooccurrenceCounts

ZERO_POLICIES = ("floor", "truncate", "mask")
BIAS_MODES = ("zero", "log2t")
DEFAULT_EPSILON = 1e-12
_DENOM_BLOCK = 1 << 16  # entries of the SGNS denominator made at a time


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """Average t-step visit probabilities: (A + A^2 + ... + A^t) / t."""

    probs: np.ndarray
    window: int


@dataclass(frozen=True, eq=False)
class TargetMatrix:
    """A log-domain matrix to factorize, with the policy that made it finite.

    `mask` is present only under the mask policy and is True exactly where
    the underlying probability or count was zero. Rows flagged absent
    (a node with no observations) are NaN under every policy.
    """

    values: np.ndarray
    kind: str  # "softmax" | "sgns"
    zero_policy: str
    epsilon: float
    bias_mode: Optional[str] = None  # softmax targets
    shift: Optional[int] = None  # sgns targets: the negative-sample count k
    window: Optional[int] = None
    mask: Optional[np.ndarray] = None

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "zero_policy": self.zero_policy,
            "epsilon": self.epsilon,
            "bias_mode": self.bias_mode,
            "shift_k": self.shift,
            "window": self.window,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Entrywise difference summary over comparable entries."""

    max_abs: float
    mean_abs: float
    compared: int
    excluded: int

    def to_dict(self) -> dict:
        return asdict(self)


def walk_probability_matrix(g: Graph, window: int,
                            transition: Optional[np.ndarray] = None) -> WalkMatrix:
    """Accumulate (A + A^2 + ... + A^t)/t by iterated multiplication, from
    `transition` = A = transition_matrix(g) if the caller has built it."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    mat = transition_matrix(g) if transition is None else transition
    acc = mat.copy()
    power = mat
    for _ in range(window - 1):
        power = power @ mat
        acc += power
    return WalkMatrix(probs=acc / window, window=window)


def _check_policy(zero_policy: str, epsilon: float) -> None:
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"zero_policy must be one of {ZERO_POLICIES}, got {zero_policy!r}")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def _log_with_policy(raw: np.ndarray, zero_policy: str, epsilon: float) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Elementwise log of a non-negative matrix with zeros resolved by policy,
    computed in place: `raw`, an array the caller owns, is overwritten and
    returned as the values.

    floor: zero entries become log(epsilon). truncate: entries are clamped
    below at 0 (zeros land at 0). mask: zero entries are NaN and flagged in
    the returned mask. Besides `raw`, the only temporaries are two boolean
    masks and one array of the positive entries.
    """
    positive = raw > 0
    logs = raw[positive]
    np.log(logs, out=logs)
    raw[positive] = logs
    del logs
    zero = ~positive
    if zero_policy == "floor":
        raw[zero] = np.log(epsilon)
        return raw, None
    if zero_policy == "truncate":
        raw[zero] = 0.0
        np.maximum(raw, 0.0, out=raw)
        return raw, None
    raw[zero] = np.nan
    return raw, zero


def softmax_target(p: WalkMatrix, bias_mode: str = "zero", zero_policy: str = "floor",
                   epsilon: float = DEFAULT_EPSILON) -> TargetMatrix:
    """Log of the walk probability matrix, optionally biased by log(2t).

    bias 'zero' gives log P_ij (log average walk probability); 'log2t' gives
    log(2t * P_ij) (log expected appearances of j in the 2t-wide window
    around i). The row softmax of either variant reproduces P exactly, since
    a per-row additive constant cancels.
    """
    if bias_mode not in BIAS_MODES:
        raise ValueError(f"bias_mode must be one of {BIAS_MODES}, got {bias_mode!r}")
    _check_policy(zero_policy, epsilon)
    # _log_with_policy writes into raw, so p.probs itself must not be passed.
    raw = p.probs.copy() if bias_mode == "zero" else 2.0 * p.window * p.probs
    values, mask = _log_with_policy(raw, zero_policy, epsilon)
    return TargetMatrix(values=values, kind="softmax", zero_policy=zero_policy,
                        epsilon=epsilon, bias_mode=bias_mode, window=p.window, mask=mask)


def expected_neighbor_counts(p: WalkMatrix) -> np.ndarray:
    """Expected appearances of node j within the 2t-window around each
    occurrence of node i: 2t * P_ij."""
    return 2.0 * p.window * p.probs


def sgns_target_from_counts(counts: CooccurrenceCounts, k: int = 1,
                            zero_policy: str = "truncate",
                            epsilon: float = DEFAULT_EPSILON) -> TargetMatrix:
    """Pointwise mutual information of the counts, shifted down by log k.

    Entry (i, j) is log(#(i,j) * |D| / (#(i) * #(j))) - log k where the pair
    count is positive; zero-count pairs follow the zero policy (the default,
    truncate, is the usual positive-PMI convention). Rows for nodes that were
    never observed are NaN.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_policy(zero_policy, epsilon)
    if counts.total == 0:
        raise ValueError("counts are empty")
    raw = counts.dense.astype(float)
    raw *= counts.total
    # The denominator k #(i) #(j), formed in floats (the int64 product can
    # wrap), is made a block of rows at a time, so raw is the only n x n
    # array built here.
    rows_per_block = max(1, _DENOM_BLOCK // counts.n)
    for lo in range(0, counts.n, rows_per_block):
        rows = slice(lo, lo + rows_per_block)
        denom = k * np.outer(counts.node_counts[rows].astype(float), counts.context_counts)
        np.divide(raw[rows], denom, out=raw[rows], where=denom > 0)
    values, mask = _log_with_policy(raw, zero_policy, epsilon)
    absent = counts.node_counts == 0
    values[absent, :] = np.nan
    return TargetMatrix(values=values, kind="sgns", zero_policy=zero_policy,
                        epsilon=epsilon, shift=k, mask=mask)


def sgns_target_exact(p: WalkMatrix, pi: np.ndarray, k: int = 1, zero_policy: str = "truncate",
                      epsilon: float = DEFAULT_EPSILON) -> TargetMatrix:
    """Infinite-sample limit of the shifted-PMI target, from the walk matrix
    P and the stationary distribution pi of the same graph.

    As the walk length grows, #(i,j)/|D| approaches pi_i * P_ij while the
    marginals approach pi_i and pi_j, so the PMI entry converges to
    log(P_ij / pi_j) - log k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_policy(zero_policy, epsilon)
    raw = p.probs / (k * pi[None, :])
    values, mask = _log_with_policy(raw, zero_policy, epsilon)
    return TargetMatrix(values=values, kind="sgns", zero_policy=zero_policy,
                        epsilon=epsilon, shift=k, window=p.window, mask=mask)


def compare_matrices(x: np.ndarray, y: np.ndarray,
                     mask: Optional[np.ndarray] = None) -> ComparisonReport:
    """Max/mean absolute difference over entries where both sides are finite
    and not masked out (mask True = excluded)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    valid = np.isfinite(x) & np.isfinite(y)
    if mask is not None:
        if mask.shape != x.shape:
            raise ValueError(f"mask shape {mask.shape} does not match {x.shape}")
        valid &= ~mask
    compared = int(valid.sum())
    excluded = x.size - compared
    if compared == 0:
        return ComparisonReport(max_abs=0.0, mean_abs=0.0, compared=0, excluded=excluded)
    diff = x[valid]
    diff -= y[valid]
    np.abs(diff, out=diff)
    return ComparisonReport(max_abs=float(diff.max()), mean_abs=float(diff.mean()),
                            compared=compared, excluded=excluded)


def _write_csv_rows(mat: np.ndarray, path) -> None:
    """What np.savetxt(path, mat, fmt="%.17g", delimiter=",") writes, byte
    for byte, with the rows formatted on all cores (parallel.write_rows)."""
    row = ",".join(["%.17g"] * mat.shape[1]) + "\n"

    def format_rows(lo: int, hi: int) -> str:
        return (row * (hi - lo)) % tuple(mat[lo:hi].ravel().tolist())

    write_rows(path, mat.shape[0], format_rows, mat.shape[1])


def write_matrix_csv(mat: np.ndarray, path) -> None:
    _write_csv_rows(np.atleast_2d(mat), path)


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_vector_csv(vec: np.ndarray, path) -> None:
    _write_csv_rows(np.asarray(vec).reshape(-1, 1), path)


def read_vector_csv(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=1)


def write_matrix_json(mat: np.ndarray, path, metadata: Optional[dict] = None) -> None:
    payload = {"metadata": metadata or {}, "matrix": np.asarray(mat).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_matrix_json(path) -> tuple[np.ndarray, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return np.asarray(payload["matrix"], dtype=float), payload.get("metadata", {})
