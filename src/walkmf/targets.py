"""Closed-form target matrices for walk co-occurrence statistics.

`walk_probability_matrix` averages the first `t` transition-matrix powers;
its elementwise log (optionally biased by log 2t) is the softmax target, and
the log ratio of pair statistics to marginals, shifted by log k, is the
negative-sampling target. Log of zero is resolved by an explicit zero policy
so every target is factorizable (or marks the entry undefined with NaN).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .graphs import Graph, transition_matrix
from .parallel import write_rows
from .sampling import CooccurrenceCounts

ZERO_POLICIES = ("floor", "truncate", "mask")
BIAS_MODES = ("zero", "log2t")
DEFAULT_EPSILON = 1e-12
_BLOCK = 1 << 16  # entries a blockwise loop makes at a time


@dataclass(frozen=True, eq=False)
class WalkMatrix:
    """Average t-step visit probabilities: (A + A^2 + ... + A^t) / t."""

    probs: np.ndarray
    window: int


@dataclass(frozen=True, eq=False)
class TargetMatrix:
    """A log-domain matrix to factorize, with the policy that made it finite.

    NaN is the one mark of an undefined entry. Under the mask policy the
    NaN entries are exactly those whose probability or count was zero, and
    the `mask` property derives them as a boolean matrix; under the other
    policies `mask` is None. The rows of nodes never observed are NaN under
    every policy (under the mask policy this adds nothing: all their counts
    are zero).
    """

    values: np.ndarray
    kind: str  # "softmax" | "sgns"
    zero_policy: str
    epsilon: float
    bias_mode: Optional[str] = None  # softmax targets
    shift: Optional[int] = None  # sgns targets: the negative-sample count k
    window: Optional[int] = None

    @property
    def mask(self) -> Optional[np.ndarray]:
        """True where an entry is undefined, under the mask policy only."""
        return np.isnan(self.values) if self.zero_policy == "mask" else None

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


def walk_probability_matrix(g: Graph, window: int,
                            transition: Optional[np.ndarray] = None) -> WalkMatrix:
    """Accumulate (A + A^2 + ... + A^t)/t by iterated multiplication, from
    `transition` = A = transition_matrix(g) if the caller has built it.

    Besides A, three n x n arrays are held: the sum, and two powers that
    take turns as the product's input and its output."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    mat = transition_matrix(g) if transition is None else transition
    acc = mat.copy()
    buffers = [np.empty_like(acc) for _ in range(min(window - 1, 2))]
    power = mat
    for step in range(window - 1):
        power = np.matmul(power, mat, out=buffers[step % 2])
        acc += power
    acc /= window
    return WalkMatrix(probs=acc, window=window)


def _check_policy(zero_policy: str, epsilon: float) -> None:
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"zero_policy must be one of {ZERO_POLICIES}, got {zero_policy!r}")
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")


def _log_with_policy(raw: np.ndarray, zero_policy: str, epsilon: float) -> np.ndarray:
    """Elementwise log of a non-negative matrix with zeros resolved by policy,
    computed in place: `raw`, an array the caller owns, is overwritten and
    returned as the values.

    floor: zero entries become log(epsilon). truncate: entries are clamped
    below at 0 (zeros land at 0). mask: zero entries are NaN. Besides `raw`,
    the only temporaries are two boolean masks and one array of the positive
    entries.
    """
    positive = raw > 0
    logs = raw[positive]
    np.log(logs, out=logs)
    raw[positive] = logs
    del logs
    zero = ~positive
    if zero_policy == "floor":
        raw[zero] = np.log(epsilon)
    elif zero_policy == "truncate":
        raw[zero] = 0.0
        np.maximum(raw, 0.0, out=raw)
    else:
        raw[zero] = np.nan
    return raw


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
    raw = p.probs.copy() if bias_mode == "zero" else expected_neighbor_counts(p)
    return TargetMatrix(values=_log_with_policy(raw, zero_policy, epsilon), kind="softmax",
                        zero_policy=zero_policy, epsilon=epsilon, bias_mode=bias_mode,
                        window=p.window)


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
    rows_per_block = max(1, _BLOCK // counts.n)
    for lo in range(0, counts.n, rows_per_block):
        rows = slice(lo, lo + rows_per_block)
        denom = k * np.outer(counts.node_counts[rows].astype(float), counts.context_counts)
        np.divide(raw[rows], denom, out=raw[rows], where=denom > 0)
    values = _log_with_policy(raw, zero_policy, epsilon)
    values[counts.node_counts == 0, :] = np.nan
    return TargetMatrix(values=values, kind="sgns", zero_policy=zero_policy,
                        epsilon=epsilon, shift=k)


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
    return TargetMatrix(values=_log_with_policy(raw, zero_policy, epsilon), kind="sgns",
                        zero_policy=zero_policy, epsilon=epsilon, shift=k, window=p.window)


def compare_matrices(x: np.ndarray, y: np.ndarray) -> ComparisonReport:
    """Max/mean absolute difference over entries where both sides are finite;
    a NaN (undefined) or infinite entry on either side is excluded."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    valid = np.isfinite(x) & np.isfinite(y)
    compared = int(valid.sum())
    excluded = x.size - compared
    if compared == 0:
        return ComparisonReport(max_abs=0.0, mean_abs=0.0, compared=0, excluded=excluded)
    diff = x[valid]
    diff -= y[valid]
    np.abs(diff, out=diff)
    return ComparisonReport(max_abs=float(diff.max()), mean_abs=float(diff.mean()),
                            compared=compared, excluded=excluded)


# The "%.17g" text of 1e-6 < |x| < 1e15, made by NumPy without Python's
# per-value dtoa (see _format_g17). A value's text is a row of _TEXT_WIDTH
# bytes, padded with zero bytes that the end drops: a prefix word (sign and
# leading "0."), then 24 bytes holding the digits and the dot at 0..17, the
# exponent at 19..22 and the delimiter at 23.
_TEXT_WIDTH = 32
# Per byte c of the 24, as three words: the bytes below c, and a dot at c.
_BELOW = np.frombuffer(b"".join(b"\xff" * c + b"\0" * (24 - c) for c in range(25)),
                       dtype="<u8").reshape(25, 3)
_DOT_AT = np.frombuffer(b"".join(b"\0" * c + b"." + b"\0" * (23 - c) for c in range(24)),
                        dtype="<u8").reshape(24, 3)


def _right_aligned(texts: list) -> np.ndarray:
    return np.frombuffer(b"".join(t.rjust(8, b"\0") for t in texts), dtype="<u8")


# The prefix, ending where the digits begin, by sign * 5 + (-exponent if
# 1e-4 <= |x| < 1, else 0).
_PREFIX = _right_aligned([sign + lead for sign in (b"", b"-")
                          for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")])
_TOKENS = _right_aligned([b"0", b"-0", b"inf", b"-inf", b"nan"])
# Bytes 16..23 by -4 - exponent for |x| < 1e-4, else 0.
_EXPONENT = np.frombuffer(b"\0" * 8 + b"\0\0\0e-05\0" + b"\0\0\0e-06\0", dtype="<u8")
_SPLIT_HALVES = 134217729.0  # 2^27 + 1


def _split_halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as high + low, each of at most 26 significant bits (Veltkamp), so
    that products of halves are exact."""
    c = a * _SPLIT_HALVES
    high = c - (c - a)
    return high, a - high


@functools.cache
def _g17_tables() -> SimpleNamespace:
    """The digit tables, built on first use: a command that formats no float
    then touches none of the NumPy integer loops they need, which cost
    ~0.4 MB of peak RSS when built at import.

    10^k is an exact double for k <= 22, and a 4-digit group's text is one
    little-endian word."""
    pow10 = np.array([float(10 ** k) for k in range(23)])
    high, low = _split_halves(pow10)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    return SimpleNamespace(
        pow10=pow10, pow10_high=high, pow10_low=low,
        group_text=(digits + 48).astype(np.uint8).view("<u4").ravel(),
        trailing_zeros=(digits[:, ::-1] != 0).argmax(axis=1))


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^k exactly, as hi + lo with hi = fl(a * 10^k) (Dekker's
    TwoProduct, Numer. Math. 18, 1971)."""
    t = _g17_tables()
    hi = a * t.pow10[k]
    ah, al = _split_halves(a)
    th, tl = t.pow10_high[k], t.pow10_low[k]
    return hi, ((ah * th - hi) + ah * tl + al * th) + al * tl


def _off_range(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1 where hi + lo < 1e16, 1 where it is >= 1e17, 0 in between."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return high.astype(np.int64) - low


def _g17_fallback(value: float) -> bytes:
    return b"%.17g" % value


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, e, failed) with d * 10^(e - 16) the 17-digit rounding of each a
    in (1e-6, 1e15), half to even as dtoa rounds; failed holds where the
    exponent could not be found, which a correct log10 never gives.

    With k = 16 - floor(log10 a), a * 10^k = hi + lo exactly. Once k puts
    it in [1e16, 1e17), hi is an even integer, so hi + rint(lo) is d."""
    k = np.minimum(np.maximum(16 - np.floor(np.log10(a)).astype(np.int64), 2), 22)
    hi, lo = _times_pow10(a, k)
    off = _off_range(hi, lo)
    wrong = np.flatnonzero(off)
    failed = wrong[:0]
    if wrong.size:
        k[wrong] = np.minimum(np.maximum(k[wrong] - off[wrong], 2), 22)
        hi[wrong], lo[wrong] = _times_pow10(a[wrong], k[wrong])
        failed = wrong[_off_range(hi[wrong], lo[wrong]) != 0]
        hi[failed], lo[failed] = 1e16, 0.0  # any 17 digits: the caller rewrites these rows
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    e = 16 - k
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    return d, e, failed


def _digit_text(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each d as bytes 0..16 of three words, and how many
    of them are left once the trailing zeros go."""
    q = d // 10
    last = d - q * 10
    high = q // 10 ** 8
    low = q - high * 10 ** 8
    g1 = high // 10 ** 4
    g2 = high - g1 * 10 ** 4
    g3 = low // 10 ** 4
    g4 = low - g3 * 10 ** 4
    t = _g17_tables()
    text = np.zeros((d.size, 6), dtype="<u4")
    for i, group in enumerate((g1, g2, g3, g4)):
        text[:, i] = t.group_text.take(group)
    text[:, 4] = last + 48
    zeros = t.trailing_zeros
    kept = np.where(last, 17, 16 - zeros[g4])
    z = np.flatnonzero((last == 0) & (g4 == 0))
    if z.size:  # g1 >= 1000, as d >= 1e16
        g1, g2, g3 = g1[z], g2[z], g3[z]
        kept[z] = np.where(g3, 12 - zeros[g3], np.where(g2, 8 - zeros[g2], 4 - zeros[g1]))
    return text.view("<u8"), kept


def _fast_g17(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write "%.17g" % v of each v in x (1e-6 < |v| < 1e15) into its row of
    out, all but the delimiter; returns where _decimal failed."""
    d, e, failed = _decimal(np.abs(x))
    digits, kept = _digit_text(d)
    del d
    # %g writes d.ddde-0X below 1e-4, 0.000ddd below 1 and otherwise the
    # digits with a dot after the units digit; the zeros that end the
    # fraction go, and the dot with them if nothing of it is left.
    expo = e < -4
    small = (e < 0) & ~expo
    whole = np.where(expo, 1, np.maximum(e + 1, 0))  # digits before the dot
    dot = (kept > whole) & ~small
    end = np.where(dot, kept + 1, np.maximum(kept, whole))  # text ends before this byte
    words = out.view("<u8")
    words[:, 0] = _PREFIX[np.signbit(x) * 5 + np.where(small, -e, 0)]
    words[:, 1:] = digits & _BELOW.take(end, axis=0)
    dots = np.flatnonzero(dot)
    if dots.size:
        # The digits from the dot's byte on move up one byte.
        c = whole[dots]
        digits = digits[dots]
        moved = digits << np.uint64(8)
        moved[:, 1:] |= digits[:, :-1] >> np.uint64(56)
        words[dots, 1:] = ((digits & _BELOW.take(c, axis=0)) | (moved & ~_BELOW.take(c + 1, axis=0))
                           | _DOT_AT.take(c, axis=0)) & _BELOW.take(end[dots], axis=0)
    words[:, 3] |= _EXPONENT.take(np.where(expo, -4 - e, 0))
    return failed


def _format_g17(block: np.ndarray, delimiter: str) -> bytes:
    """What np.savetxt(fh, block, fmt="%.17g", delimiter=delimiter) writes,
    as ASCII bytes. Values with 1e-6 < |x| < 1e15 are converted exactly by
    _fast_g17; ±0, nan and ±inf are fixed tokens; every other value (tiny,
    huge or subnormal) goes through "%.17g" % x one at a time."""
    x = np.asarray(block, dtype=np.float64)
    cols = x.shape[1] if x.ndim == 2 else 1
    x = x.ravel()
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares false, quietly
        fast = (a > 1e-6) & (a < 1e15)
    del a
    out = np.zeros((x.size, _TEXT_WIDTH), dtype=np.uint8)
    if fast.all():  # as most matrices are: no gather into rows and back
        failed = _fast_g17(x, out)
    else:
        at = np.flatnonzero(fast)
        rows = np.zeros((at.size, _TEXT_WIDTH), dtype=np.uint8)
        failed = at[_fast_g17(x[at], rows)]
        out[at] = rows
        del rows
        at = np.flatnonzero(~fast)
        rest = x[at]
        nan = np.isnan(rest)
        inf = np.isinf(rest)
        out.view("<u8")[at, 0] = _TOKENS[np.where(nan, 4, np.where(inf, 2, 0) + np.signbit(rest))]
        with np.errstate(invalid="ignore"):
            failed = np.concatenate((failed, at[(rest != 0) & ~nan & ~inf]))
    for i in failed.tolist():
        text = _g17_fallback(x[i])
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    out[:, -1] = ord(delimiter)
    out[cols - 1::cols, -1] = 10
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def _write_csv_rows(mat: np.ndarray, path) -> None:
    """What np.savetxt(path, mat, fmt="%.17g", delimiter=",") writes, byte
    for byte, with the rows formatted on all cores (parallel.write_rows)."""
    write_rows(path, mat.shape[0], lambda lo, hi: _format_g17(mat[lo:hi], ","), mat.shape[1])


def write_matrix_csv(mat: np.ndarray, path) -> None:
    _write_csv_rows(np.atleast_2d(mat), path)


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def write_vector_csv(vec: np.ndarray, path) -> None:
    _write_csv_rows(np.asarray(vec).reshape(-1, 1), path)


def read_vector_csv(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=1)
