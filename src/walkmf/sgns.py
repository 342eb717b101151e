"""Skip-gram negative-sampling trainer over aggregated pair counts.

Positives are drawn with probability proportional to their counts and
negatives from the context-frequency noise distribution, so the stochastic
updates optimize the same objective that `sgns_objective` evaluates exactly
(the count-weighted expectation form). Keeping the exact evaluation separate
from the sampled optimization lets tests measure ascent without SGD noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .factorization import EmbeddingPair
from .sampling import CooccurrenceCounts

LR_FLOOR_RATIO = 1e-4  # linear decay ends at this fraction of the initial rate
_DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    dim: int
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0
    init_scale: Optional[float] = None  # defaults to 0.5/dim

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale}")

    @property
    def resolved_init_scale(self) -> float:
        return self.init_scale if self.init_scale is not None else 0.5 / self.dim

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "negatives": self.negatives,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "init_scale": self.init_scale,
        }


@dataclass(frozen=True, eq=False)
class TrainResult:
    embeddings: EmbeddingPair
    objective_per_epoch: list[float]  # index 0 = before training

    @property
    def final_objective(self) -> float:
        return self.objective_per_epoch[-1]


def noise_distribution(counts: CooccurrenceCounts) -> np.ndarray:
    """Context sampling law for negatives: #(c)/|D|."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    return counts.context_counts / counts.total


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _weight_matrices(counts: CooccurrenceCounts, negatives: int) -> tuple[np.ndarray, np.ndarray]:
    pos = counts.dense.astype(float)
    neg = negatives * np.outer(counts.node_counts, counts.context_counts) / counts.total
    return pos, neg


def sgns_objective(counts: CooccurrenceCounts, pair: EmbeddingPair, negatives: int) -> float:
    """Exact expectation form of the objective (no sampling):

    sum over all (v, c) of #(v,c) log sigma(x) + k #(v) #(c)/|D| log sigma(-x)
    with x the (v, c) dot product.
    """
    if pair.w.shape[0] != counts.n or pair.h.shape[0] != counts.n:
        raise ValueError(
            f"embeddings cover {pair.w.shape[0]}/{pair.h.shape[0]} nodes, counts cover {counts.n}"
        )
    pos, neg = _weight_matrices(counts, negatives)
    x = pair.w @ pair.h.T
    return float(np.sum(pos * _log_sigmoid(x) + neg * _log_sigmoid(-x)))


def sgns_objective_gradient(counts: CooccurrenceCounts, pair: EmbeddingPair,
                            negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of sgns_objective with respect to (w, h)."""
    pos, neg = _weight_matrices(counts, negatives)
    x = pair.w @ pair.h.T
    sig = np.exp(_log_sigmoid(x))
    residual = pos * (1.0 - sig) - neg * sig
    return residual @ pair.h, residual.T @ pair.w


def sgns_objective_upper_bound(counts: CooccurrenceCounts, negatives: int) -> float:
    """Sum of the per-pair scalar maxima; no embedding can do better.

    For each pair with a positive count the scalar term peaks at
    x* = log(#(v,c) |D| / (k #(v) #(c))); zero-count pairs approach 0 from
    below as x -> -inf.
    """
    pos, neg = _weight_matrices(counts, negatives)
    hit = pos > 0
    x_star = np.log(pos[hit] / neg[hit])
    return float(np.sum(pos[hit] * _log_sigmoid(x_star) + neg[hit] * _log_sigmoid(-x_star)))


def dot_matrix(pair: EmbeddingPair) -> np.ndarray:
    """The product w h^T whose entries training drives toward the shifted PMI."""
    return pair.w @ pair.h.T


def train_sgns(counts: CooccurrenceCounts, cfg: TrainConfig) -> TrainResult:
    """SGD on sampled positives and negatives; deterministic given cfg.seed.

    One epoch draws |D| positive pairs (proportional to their counts) and k
    negatives per positive from the noise distribution. The learning rate
    decays linearly over all steps to LR_FLOOR_RATIO of its initial value.
    The exact objective is recorded before training and after every epoch.
    """
    if counts.total == 0:
        raise ValueError("counts are empty")
    n = counts.n
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.resolved_init_scale
    w = rng.uniform(-scale, scale, size=(n, cfg.dim))
    h = rng.uniform(-scale, scale, size=(n, cfg.dim))

    pos_v, pos_c = np.nonzero(counts.dense)  # the positives, in (v, c) order
    pos_weight = counts.dense[pos_v, pos_c] / counts.total
    noise = noise_distribution(counts)

    pair = EmbeddingPair(w=w, h=h)
    history = [sgns_objective(counts, pair, cfg.negatives)]

    steps_per_epoch = counts.total
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    lr0 = cfg.learning_rate
    k = cfg.negatives
    step = 0
    for _ in range(cfg.epochs):
        done = 0
        while done < steps_per_epoch:
            chunk = min(_DRAW_CHUNK, steps_per_epoch - done)
            picks = rng.choice(len(pos_v), size=chunk, p=pos_weight)
            negs = rng.choice(n, size=(chunk, k), p=noise)
            for row in range(chunk):
                lr = lr0 * max(1.0 - step / total_steps, LR_FLOOR_RATIO)
                v = pos_v[picks[row]]
                snapshot = w[v].copy()
                acc = np.zeros(cfg.dim)
                targets = (pos_c[picks[row]], *negs[row])
                for slot, c in enumerate(targets):
                    x = float(snapshot @ h[c])
                    g = (1.0 if slot == 0 else 0.0) - _sigmoid(x)
                    acc += g * h[c]
                    h[c] += lr * g * snapshot
                w[v] += lr * acc
                step += 1
            done += chunk
        history.append(sgns_objective(counts, pair, cfg.negatives))

    return TrainResult(embeddings=pair, objective_per_epoch=history)
