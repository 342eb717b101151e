"""Skip-gram negative-sampling embeddings trained on aggregated pair counts.

The objective is the count-weighted expectation form of SGNS, which
`sgns_objective` evaluates exactly:

    sum over (v, c) of #(v,c) log sigma(x) + k #(v) #(c)/|D| log sigma(-x)

with x the (v, c) dot product. Each term with #(v,c) > 0 peaks at the
shifted PMI x* = log(#(v,c) |D| / (k #(v) #(c))), so near the optimum the
dot products factorize the shifted PMI matrix of the counts. Every term is
weighted by #(v,c) or k #(v) #(c)/|D|, so the objective, its gradient,
training, the upper bound and the dot products' comparison with the
shifted PMI all run over observed centers x observed contexts only: their
cost scales with the nodes the counts saw, not with n^2.

`train_sgns` maximizes that objective directly, by deterministic
full-batch Adam on the observed block. It does not replay word2vec's
sampled updates; it optimizes the objective those updates estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .factorization import EmbeddingPair
from .sampling import CooccurrenceCounts
from .targets import ComparisonReport, compare_matrices

LR_FLOOR_RATIO = 1e-4  # linear decay ends at this fraction of the initial rate
STEPS_PER_EPOCH = 40  # full-batch steps between two objective log entries
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
MAX_INIT_SCALE = sys.float_info.max / 2


@dataclass(frozen=True)
class TrainConfig:
    dim: int
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 0
    init_scale: Optional[float] = None  # defaults to 0.5/dim

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        # Written so that nan fails too, and an int beyond any float.
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # uniform(-s, s) needs its width 2s to be a finite float.
        if self.init_scale is not None and not 0 < self.init_scale <= MAX_INIT_SCALE:
            raise ValueError(f"init_scale must be > 0 and at most {MAX_INIT_SCALE!r}, "
                             f"got {self.init_scale}")

    @property
    def resolved_init_scale(self) -> float:
        return self.init_scale if self.init_scale is not None else 0.5 / self.dim


@dataclass(frozen=True, eq=False)
class TrainResult:
    embeddings: EmbeddingPair
    objective_per_epoch: list[float]  # index 0 = before training
    upper_bound: float  # sgns_objective_upper_bound of the counts
    vs_shifted_pmi: ComparisonReport  # dot_vs_shifted_pmi of the counts and embeddings

    @property
    def final_objective(self) -> float:
        return self.objective_per_epoch[-1]


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _check_covers(counts: CooccurrenceCounts, pair: EmbeddingPair) -> None:
    if pair.w.shape[0] != counts.n or pair.h.shape[0] != counts.n:
        raise ValueError(
            f"embeddings cover {pair.w.shape[0]}/{pair.h.shape[0]} nodes, counts cover {counts.n}"
        )


def _block(counts: CooccurrenceCounts, negatives: int) -> tuple[np.ndarray, ...]:
    """Observed centers `rows`, observed contexts `cols`, and the weights
    pos = #(v,c) and neg = k #(v) #(c)/|D| on rows x cols. Both weights of a
    term vanish unless #(v) > 0 and #(c) > 0, so every term that counts lies
    in this block; rows and cols are sorted, so the block's nonzero pairs
    come in row-major order, which is np.nonzero's order on the counts."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    rows, cols = np.flatnonzero(counts.node_counts), np.flatnonzero(counts.context_counts)
    pos = counts.dense[rows[:, None], cols].astype(float)
    # In floats: k #(v) #(c) can pass 2^63 where every factor fits in int64.
    neg = negatives * counts.node_counts[rows, None].astype(float) * counts.context_counts[cols]
    neg /= counts.total
    return rows, cols, pos, neg


def _block_gradient(pos: np.ndarray, weight: np.ndarray, w: np.ndarray, h: np.ndarray,
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The objective's gradient at the block embeddings (w, h), with
    weight = pos + neg. x receives w h^T, then the residual
    pos - weight sigma(x), the derivative in x of
    pos log sigma(x) + neg log sigma(-x).

    sigma(x) = (1 + tanh(x/2))/2 cannot overflow and costs half as much as
    exp(log sigma(x)); working in place in x spares a fresh block-sized
    array per operation, which the trainer would pay on every step.
    """
    np.matmul(w, h.T, out=x)
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= weight
    x *= 0.5
    np.subtract(pos, x, out=x)
    return x @ h, x.T @ w


def sgns_objective(counts: CooccurrenceCounts, pair: EmbeddingPair, negatives: int) -> float:
    """The module's objective, evaluated exactly (no sampling) over observed
    centers x observed contexts; log sigma(-x) = log sigma(x) - x takes one
    log-sigmoid per term."""
    _check_covers(counts, pair)
    rows, cols, pos, neg = _block(counts, negatives)
    return _block_objective(pos + neg, neg, pair.w[rows] @ pair.h[cols].T)


def _block_objective(weight: np.ndarray, neg: np.ndarray, x: np.ndarray) -> float:
    """sgns_objective over a block of dot products x, with weight = pos + neg."""
    return float(np.sum(weight * _log_sigmoid(x) - neg * x))


def sgns_objective_gradient(counts: CooccurrenceCounts, pair: EmbeddingPair,
                            negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of sgns_objective with respect to (w, h); rows of
    nodes the counts never observed are zero. train_sgns does not call it:
    it steps with _block_gradient on its own block, the helper this
    function calls too."""
    _check_covers(counts, pair)
    rows, cols, pos, neg = _block(counts, negatives)
    grad_w = np.zeros(pair.w.shape)
    grad_h = np.zeros(pair.h.shape)
    grad_w[rows], grad_h[cols] = _block_gradient(pos, pos + neg, pair.w[rows], pair.h[cols],
                                                 np.empty(pos.shape))
    return grad_w, grad_h


def _shifted_pmi(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, float]:
    """The shifted PMI x* = log(pos/neg) at the nonzero pairs' weights pos > 0
    and neg, and the upper bound: each pair's term at its x*, summed. Callers
    drop the block's weights first, so the terms' temporaries are pair-sized."""
    x_star = np.log(pos / neg)
    return x_star, float(np.sum(pos * _log_sigmoid(x_star) + neg * _log_sigmoid(-x_star)))


def sgns_objective_upper_bound(counts: CooccurrenceCounts, negatives: int) -> float:
    """Sum of the per-pair scalar maxima; no embedding can do better.

    For each pair with a positive count the scalar term peaks at
    x* = log(#(v,c) |D| / (k #(v) #(c))), the shifted PMI; zero-count pairs
    approach 0 from below as x -> -inf, so only the block's nonzero pairs
    are visited.
    """
    _, _, pos, neg = _block(counts, negatives)
    hit = pos > 0
    pos, neg = pos[hit], neg[hit]
    return _shifted_pmi(pos, neg)[1]


def dot_vs_shifted_pmi(counts: CooccurrenceCounts, pair: EmbeddingPair,
                       negatives: int) -> ComparisonReport:
    """Dot products against the shifted PMI over the nonzero pairs, the
    entries where it is finite; `excluded` counts the other n^2 - compared."""
    _check_covers(counts, pair)
    rows, cols, pos, neg = _block(counts, negatives)
    hit = pos > 0
    x_star = np.log(pos[hit] / neg[hit])
    del pos, neg  # before the block's dot products, which take as much again
    report = compare_matrices((pair.w[rows] @ pair.h[cols].T)[hit], x_star)
    return replace(report, excluded=counts.n * counts.n - report.compared)


def dot_matrix(pair: EmbeddingPair) -> np.ndarray:
    """The product w h^T whose entries training drives toward the shifted PMI."""
    return pair.w @ pair.h.T


# Overflow can only come from a step size or initial scale too large for
# the counts; it makes the objective non-finite, which train_sgns reports.
@np.errstate(over="ignore", invalid="ignore")
def train_sgns(counts: CooccurrenceCounts, cfg: TrainConfig) -> TrainResult:
    """Full-batch Adam ascent on sgns_objective; deterministic given cfg.

    w and h start from the uniform initialization seeded by cfg.seed. Only
    the rows of observed centers and observed contexts carry weight, so
    only they are trained; the others keep their initial values. Each epoch
    runs STEPS_PER_EPOCH steps of Adam (Kingma & Ba, arXiv:1412.6980), each
    on _block_gradient of the block it holds, the helper that
    sgns_objective_gradient also calls. The step size decays linearly over
    all steps from cfg.learning_rate to LR_FLOOR_RATIO of it. The exact
    objective is recorded before training, by sgns_objective, and after
    every epoch, from the block being trained. A ValueError names the
    first epoch whose objective is not finite. The same block gives the
    bits of sgns_objective_upper_bound and of dot_vs_shifted_pmi.
    """
    n, k = counts.n, cfg.negatives
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.resolved_init_scale
    w = rng.uniform(-scale, scale, size=(n, cfg.dim))
    h = rng.uniform(-scale, scale, size=(n, cfg.dim))
    pair = EmbeddingPair(w=w, h=h)
    history = []

    def log(objective: float) -> None:
        if not math.isfinite(objective):
            raise ValueError(f"the SGNS objective is {objective} at epoch {len(history)}; "
                             "learning_rate or init_scale is too large for these counts")
        history.append(objective)

    log(sgns_objective(counts, pair, k))

    rows, cols, pos, neg = _block(counts, k)
    weight = pos + neg
    x = np.empty(weight.shape)  # the block's dot products, then its residual
    block = (w[rows], h[cols])
    first = tuple(np.zeros_like(b) for b in block)
    second = tuple(np.zeros_like(b) for b in block)
    total_steps = cfg.epochs * STEPS_PER_EPOCH
    for step in range(total_steps):
        wb, hb = block
        grads = _block_gradient(pos, weight, wb, hb, x)
        rate = cfg.learning_rate * max(1.0 - step / total_steps, LR_FLOOR_RATIO)
        first_bias = 1.0 - ADAM_BETA1 ** (step + 1)
        second_bias = 1.0 - ADAM_BETA2 ** (step + 1)
        for b, g, m, s in zip(block, grads, first, second):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            s *= ADAM_BETA2
            s += (1.0 - ADAM_BETA2) * g * g
            b += rate * (m / first_bias) / (np.sqrt(s / second_bias) + ADAM_EPSILON)
        if (step + 1) % STEPS_PER_EPOCH == 0:
            log(_block_objective(weight, neg, np.matmul(wb, hb.T, out=x)))

    if not total_steps:  # otherwise x holds the dot products the last epoch logged
        np.matmul(block[0], block[1].T, out=x)
    w[rows], h[cols] = block
    del weight  # before the reports, which keep only the nonzero pairs
    hit = pos > 0
    x, pos, neg = x[hit], pos[hit], neg[hit]
    x_star, upper_bound = _shifted_pmi(pos, neg)
    report = compare_matrices(x, x_star)
    return TrainResult(embeddings=pair, objective_per_epoch=history, upper_bound=upper_bound,
                       vs_shifted_pmi=replace(report, excluded=n * n - report.compared))
