"""Closed-form target matrices for walk co-occurrence statistics.

`walk_probability_matrix` averages the first `t` transition-matrix powers;
its elementwise log (optionally biased by log 2t) is the softmax target, and
the log ratio of pair statistics to marginals, shifted by log k, is the
negative-sampling target. Log of zero is resolved by an explicit zero policy
so every target is factorizable (or carries a mask).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, transition_matrix
from .sampling import CooccurrenceCounts

ZERO_POLICIES = ("floor", "truncate", "mask")
BIAS_MODES = ("zero", "log2t")
DEFAULT_EPSILON = 1e-12


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
        return {
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "compared": self.compared,
            "excluded": self.excluded,
        }


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
    """Elementwise log of a non-negative matrix with zeros resolved by policy.

    floor: zero entries become log(epsilon). truncate: entries are clamped
    below at 0 (zeros land at 0). mask: zero entries are NaN and flagged in
    the returned mask.
    """
    positive = raw > 0
    logs = np.full(raw.shape, -np.inf)
    logs[positive] = np.log(raw[positive])
    if zero_policy == "floor":
        return np.where(positive, logs, np.log(epsilon)), None
    if zero_policy == "truncate":
        return np.maximum(logs, 0.0), None
    return np.where(positive, logs, np.nan), ~positive


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
    raw = p.probs if bias_mode == "zero" else 2.0 * p.window * p.probs
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
    joint = counts.dense.astype(float)
    denom = k * np.outer(counts.node_counts, counts.context_counts).astype(float)
    raw = np.divide(joint * counts.total, denom, out=np.zeros_like(joint), where=denom > 0)
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
    diff = np.abs(x[valid] - y[valid])
    return ComparisonReport(max_abs=float(diff.max()), mean_abs=float(diff.mean()),
                            compared=compared, excluded=excluded)


def write_matrix_csv(mat: np.ndarray, path) -> None:
    np.savetxt(path, np.atleast_2d(mat), fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_vector_csv(vec: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(vec).ravel(), fmt="%.17g")


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
