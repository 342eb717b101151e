"""Skip-gram negative-sampling trainer over aggregated pair counts.

Positives are drawn with probability proportional to their counts and
negatives from the context-frequency noise distribution, so the stochastic
updates optimize the same objective that `sgns_objective` evaluates exactly
(the count-weighted expectation form). Keeping the exact evaluation separate
from the sampled optimization lets tests measure ascent without SGD noise.
Every term of that objective is weighted by #(v,c) or k #(v) #(c)/|D|, so
it runs over observed centers x observed contexts only: its cost scales
with the nodes the counts saw, not with n^2.

The updates are vectorized: `train_sgns` applies its draws B consecutive
positives at a time, one gather, one batch of dot products and one summed
scatter per batch. B is not a setting; `batch_size` derives it from the
counts as the largest batch in which the most-touched embedding row expects
at most one update, so updates within a batch seldom collide.
"""

from __future__ import annotations

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


def _weights(counts: CooccurrenceCounts, negatives: int, v: np.ndarray,
             c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights #(v,c) and k #(v) #(c)/|D| at the index arrays v and c,
    which broadcast against each other."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    pos = counts.dense[v, c].astype(float)
    neg = negatives * counts.node_counts[v] * counts.context_counts[c] / counts.total
    return pos, neg


def sgns_objective(counts: CooccurrenceCounts, pair: EmbeddingPair, negatives: int) -> float:
    """Exact expectation form of the objective (no sampling):

    sum over (v, c) of #(v,c) log sigma(x) + k #(v) #(c)/|D| log sigma(-x)
    with x the (v, c) dot product. Both weights vanish unless #(v) > 0 and
    #(c) > 0, so the sum runs over observed centers x observed contexts
    only, and log sigma(-x) = log sigma(x) - x takes one log-sigmoid per term.
    """
    if pair.w.shape[0] != counts.n or pair.h.shape[0] != counts.n:
        raise ValueError(
            f"embeddings cover {pair.w.shape[0]}/{pair.h.shape[0]} nodes, counts cover {counts.n}"
        )
    rows = np.flatnonzero(counts.node_counts)
    cols = np.flatnonzero(counts.context_counts)
    pos, neg = _weights(counts, negatives, rows[:, None], cols)
    x = pair.w[rows] @ pair.h[cols].T
    return float(np.sum((pos + neg) * _log_sigmoid(x) - neg * x))


def sgns_objective_gradient(counts: CooccurrenceCounts, pair: EmbeddingPair,
                            negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of sgns_objective with respect to (w, h); rows of
    nodes the counts never observed are zero."""
    rows = np.flatnonzero(counts.node_counts)
    cols = np.flatnonzero(counts.context_counts)
    pos, neg = _weights(counts, negatives, rows[:, None], cols)
    w, h = pair.w[rows], pair.h[cols]
    sig = np.exp(_log_sigmoid(w @ h.T))
    residual = pos * (1.0 - sig) - neg * sig
    grad_w = np.zeros(pair.w.shape)
    grad_h = np.zeros(pair.h.shape)
    grad_w[rows] = residual @ h
    grad_h[cols] = residual.T @ w
    return grad_w, grad_h


def sgns_objective_upper_bound(counts: CooccurrenceCounts, negatives: int) -> float:
    """Sum of the per-pair scalar maxima; no embedding can do better.

    For each pair with a positive count the scalar term peaks at
    x* = log(#(v,c) |D| / (k #(v) #(c))); zero-count pairs approach 0 from
    below as x -> -inf, so only the nonzero pairs are visited.
    """
    pos, neg = _weights(counts, negatives, *np.nonzero(counts.dense))
    x_star = np.log(pos / neg)
    return float(np.sum(pos * _log_sigmoid(x_star) + neg * _log_sigmoid(-x_star)))


def dot_matrix(pair: EmbeddingPair) -> np.ndarray:
    """The product w h^T whose entries training drives toward the shifted PMI."""
    return pair.w @ pair.h.T


def batch_size(counts: CooccurrenceCounts, negatives: int) -> int:
    """Positives per batch: the largest B at which the most-touched row
    expects at most one update within a batch.

    Per positive, context row c is updated (1 + k) #(c)/|D| times in
    expectation (once as the positive's context, k times as a noise draw)
    and center row v #(v)/|D| times, so
    B = max(1, floor(|D| / max((1 + k) max_c #(c), max_v #(v)))),
    computed in integers.
    """
    if counts.total == 0:
        raise ValueError("counts are empty")
    busiest = max((1 + negatives) * int(counts.context_counts.max()),
                  int(counts.node_counts.max()))
    return max(1, counts.total // busiest)


def train_sgns(counts: CooccurrenceCounts, cfg: TrainConfig) -> TrainResult:
    """SGD on sampled positives and negatives; deterministic given cfg.seed.

    One epoch draws |D| positive pairs (proportional to their counts) and k
    negatives per positive from the noise distribution. The learning rate
    decays linearly over all steps to LR_FLOOR_RATIO of its initial value,
    and each positive keeps the rate of its own step.

    The draws are applied `batch_size(counts, k)` consecutive positives at a
    time: every gradient in a batch is taken at the embeddings as they stood
    before it, and the row updates are summed into w and h, repeated rows
    included. The batch is small enough that updates within it rarely share
    a row, so the result tracks one-positive-at-a-time SGD; counts where one
    row dominates get B = 1 through the same code. The exact objective is
    recorded before training and after every epoch.
    """
    if counts.total == 0:
        raise ValueError("counts are empty")
    n, d, k = counts.n, cfg.dim, cfg.negatives
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.resolved_init_scale
    w = rng.uniform(-scale, scale, size=(n, d))
    h = rng.uniform(-scale, scale, size=(n, d))
    # One table holds w (rows 0..n-1) and h (rows n..2n-1), so a batch is
    # one gather and one scatter.
    table = np.concatenate((w, h))
    pair = EmbeddingPair(w=table[:n], h=table[n:])
    flat = table.reshape(-1)
    cols = np.arange(d)

    pos_v, pos_c = np.nonzero(counts.dense)  # the positives, in (v, c) order
    pos_weight = counts.dense[pos_v, pos_c] / counts.total
    noise = noise_distribution(counts)

    history = [sgns_objective(counts, pair, k)]

    steps_per_epoch = counts.total
    total_steps = max(cfg.epochs * steps_per_epoch, 1)
    lr0 = cfg.learning_rate
    batch = batch_size(counts, k)
    # label - sigmoid(x) = (label - 1/2) - tanh(x/2)/2, which cannot overflow;
    # slot 0 holds the positive context (label 1), slots 1..k the negatives.
    half_labels = np.full((k + 1, 1), -0.5)
    half_labels[0] = 0.5
    step = 0
    for _ in range(cfg.epochs):
        done = 0
        while done < steps_per_epoch:
            chunk = min(_DRAW_CHUNK, steps_per_epoch - done)
            picks = rng.choice(len(pos_v), size=chunk, p=pos_weight)
            negs = rng.choice(n, size=(chunk, k), p=noise)
            rows = np.column_stack((pos_v[picks], n + pos_c[picks], n + negs))
            rates = lr0 * np.maximum(1.0 - np.arange(step, step + chunk) / total_steps,
                                     LR_FLOOR_RATIO)
            rates = rates[:, None, None]
            for lo in range(0, chunk, batch):
                r = rows[lo:lo + batch]  # (B, k + 2): center, then targets
                e = table[r]
                wv, hc = e[:, :1], e[:, 1:]  # (B, 1, d), (B, k + 1, d)
                x = np.matmul(hc, wv.transpose(0, 2, 1))  # (B, k + 1, 1)
                g = (half_labels - 0.5 * np.tanh(0.5 * x)) * rates[lo:lo + batch]
                update = np.concatenate((np.matmul(g.transpose(0, 2, 1), hc), g * wv), axis=1)
                # A summed scatter: np.add.at over flat element indices is
                # about three times faster than over rows.
                np.add.at(flat, (r[..., None] * d + cols).ravel(), update.ravel())
            step += chunk
            done += chunk
        history.append(sgns_objective(counts, pair, k))

    return TrainResult(embeddings=pair, objective_per_epoch=history)
