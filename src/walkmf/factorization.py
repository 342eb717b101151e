"""Low-rank factorization of target matrices into node/context embeddings.

Truncated SVD with the singular values split evenly across both factors is
the canonical choice here: the rank-d product W H^T is then the best rank-d
Frobenius approximation of the target.

A square target that is symmetric to rounding, as the SGNS target of every
undirected graph is (pi_i P_ij is symmetric there), is decomposed with one
symmetric eigendecomposition instead of a full SVD. Its singular triplets
are read off the eigenpairs: s = |lambda|, u = q, v = q sign(lambda). Its
full spectrum, as `singular_values` reports it, is |lambda| from the
eigenvalue-only symmetric driver, not a second full SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .choices import SPLITS
from .parallel import write_rows
from .targets import _BLOCK, TargetMatrix, _format_g17


class FactorizationError(ValueError):
    """Input not factorizable or the solver failed to converge."""


@dataclass(frozen=True, eq=False)
class EmbeddingPair:
    """Node matrix w (one row per node) and context matrix h, with w @ h.T
    approximating the target."""

    w: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.h.ndim != 2 or self.w.shape[1] != self.h.shape[1]:
            raise ValueError(f"embedding shapes disagree: {self.w.shape} vs {self.h.shape}")
        if not (np.all(np.isfinite(self.w)) and np.all(np.isfinite(self.h))):
            raise ValueError("embeddings must be finite")


def _as_array(m) -> np.ndarray:
    values = m.values if isinstance(m, TargetMatrix) else m
    return np.asarray(values, dtype=float)


def _decomposable(m) -> np.ndarray:
    """m as a float array, or a FactorizationError if it is not a matrix of
    finite entries."""
    mat = _as_array(m)
    if mat.ndim != 2:
        raise FactorizationError(f"expected a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise FactorizationError(
            "matrix has non-finite entries; apply a zero policy (floor or truncate) "
            "before factorizing"
        )
    return mat


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic output: leading non-negligible entry of each left singular
    # vector is made positive; the paired right vector flips with it.
    for col in range(u.shape[1]):
        column = u[:, col]
        cutoff = 1e-12 * max(np.abs(column).max(), 1e-300)
        idx = np.argmax(np.abs(column) > cutoff)
        if column[idx] < 0:
            u[:, col] = -column
            vt[col, :] = -vt[col, :]
    return u, vt


def _symmetry(mat: np.ndarray) -> Optional[str]:
    """The one symmetry test: "exact" if mat is square and equal to its
    transpose, "rounding" if it is square and max|M - M^T| <= n eps max|M|,
    and None otherwise (a non-finite entry included). The asymmetry is taken
    a block of rows at a time, so no n x n temporary is made."""
    n = mat.shape[0]
    if mat.shape[1] != n:
        return None
    tol = n * np.finfo(float).eps * max(mat.max(), -mat.min())
    exact = True
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        block = mat[lo:lo + step] - mat[:, lo:lo + step].T
        worst = np.abs(block, out=block).max()
        if not worst <= tol:  # written so that NaN fails too
            return None
        exact = exact and worst == 0
    return "exact" if exact else "rounding"


def _symmetrize(mat: np.ndarray) -> None:
    """Overwrite a square matrix with (M + M^T)/2, a block of rows at a
    time. Each (i, j) and (j, i) pair is read before either is written, and
    both get fl(fl(M_ij + M_ji) * 0.5), so the result is exactly symmetric."""
    n = mat.shape[0]
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        hi = lo + step
        # Rows and columns before lo are done; none of these entries is.
        part = mat[lo:hi, lo:] + mat[lo:, lo:hi].T
        part *= 0.5
        mat[lo:hi, lo:] = part
        mat[lo:, lo:hi] = part.T


def symmetrize_in_place(mat: np.ndarray) -> None:
    """Overwrite a float matrix that is symmetric to rounding, but not
    exactly, with (M + M^T)/2: bit for bit the matrix `truncated_svd` would
    factor, which it then decomposes without a copy. Any other matrix is
    left as it is."""
    if _symmetry(mat) == "rounding":
        _symmetrize(mat)


def _to_decompose(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """The matrix to decompose in place of a finite mat, and whether it is
    symmetric: mat itself if it is exactly symmetric or not symmetric at
    all, a (M + M^T)/2 copy if it is symmetric to rounding."""
    symmetry = _symmetry(mat)
    if symmetry == "rounding":
        mat = mat.copy()
        _symmetrize(mat)
    return mat, symmetry is not None


def _symmetric_triplets(mat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-d singular triplets (u, s, vt) of an exactly symmetric matrix from
    one eigh of it: the eigenpairs ordered by |lambda| descending (a stable
    sort, so ties keep eigh's ascending order), s = |lambda|, u = q and
    v = q sign(lambda), with sign(0) taken as +1."""
    try:
        lam, q = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.argsort(-np.abs(lam), kind="stable")[:d]
    lam, u = lam[order], q[:, order]
    return u, np.abs(lam), (u * np.where(lam < 0, -1.0, 1.0)).T


def truncated_svd(m, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-d singular triplets (u, s, v) of a finite matrix, s descending.

    A square matrix symmetric to rounding (max|M - M^T| <= n eps max|M|) is
    factored as (M + M^T)/2 by one `np.linalg.eigh`, which an exactly
    symmetric matrix is given as it is; any other matrix by
    `np.linalg.svd`. Columns of u and v are orthonormal; signs are fixed so
    repeated calls give identical output.
    """
    mat = _decomposable(m)
    limit = min(mat.shape)
    if not (1 <= d <= limit):
        raise FactorizationError(f"rank d must be in 1..{limit}, got {d}")
    mat, symmetric = _to_decompose(mat)
    if symmetric:
        u, s, vt = _symmetric_triplets(mat, d)
    else:
        try:
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"SVD did not converge: {exc}") from exc
        u, s, vt = u[:, :d], s[:d], vt[:d, :]
    u, vt = _fix_signs(u, vt)
    return u, s, vt.T


def factorize(m, d: int, split: str = "symmetric") -> EmbeddingPair:
    """Rank-d embeddings from `truncated_svd`: symmetric split puts sqrt(s) in
    both factors, 'left' puts all of s into the node matrix."""
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}, got {split!r}")
    u, s, v = truncated_svd(m, d)
    if split == "symmetric":
        scale = np.sqrt(s)
        return EmbeddingPair(w=u * scale, h=v * scale)
    return EmbeddingPair(w=u * s, h=v)


def reconstruction_error(m, pair: EmbeddingPair) -> float:
    """Frobenius norm of (target - w h^T)."""
    mat = _as_array(m)
    residual = pair.w @ pair.h.T
    if residual.shape != mat.shape:
        raise ValueError(f"shape mismatch: target {mat.shape}, product {residual.shape}")
    # w h^T - target is exactly -(target - w h^T), and the norm squares it.
    residual -= mat
    return float(np.linalg.norm(residual))


def singular_values(m) -> np.ndarray:
    """Full singular spectrum, descending (used for tail-energy reports), of
    the matrix `truncated_svd` factors. A symmetric one's is the sorted
    |lambda| of `np.linalg.svd(..., hermitian=True)`: LAPACK's symmetric
    eigenvalue driver, with no vectors. Any other matrix's comes from the
    general SVD."""
    mat, symmetric = _to_decompose(_decomposable(m))
    return np.linalg.svd(mat, compute_uv=False, hermitian=symmetric)


def write_embedding_matrix(mat: np.ndarray, path) -> None:
    """word2vec text format: header 'n d', then one 'id x1 ... xd' line per
    row, formatted on all cores (parallel.write_rows)."""
    mat = np.asarray(mat, dtype=float)
    n, d = mat.shape

    def format_rows(lo: int, hi: int) -> bytes:
        # The ids ride along as floats: "%.17g" % 5.0 is "5", as "%d" % 5 is.
        return _format_g17(np.column_stack((np.arange(lo, hi), mat[lo:hi])), " ")

    write_rows(path, n, format_rows, d + 1, head=f"{n} {d}\n")


def read_embedding_matrix(path) -> np.ndarray:
    """The matrix of a word2vec text file: header 'n d', then n rows 'id x1
    ... xd' with ids 0..n-1 in any order. A bad header, a row count other
    than n, an id that is not an integer in 0..n-1 or repeats, and a row
    without d values each raise ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        rows = [line.split() for line in fh]
    if len(header) != 2 or not all(x.isdecimal() for x in header):
        raise ValueError(f"{path}: header must be 'n d', got {' '.join(header)!r}")
    n, d = map(int, header)
    if len(rows) != n:
        raise ValueError(f"{path}: {'missing' if len(rows) < n else 'extra'} rows: "
                         f"{len(rows)} rows for n = {n}")
    mat = np.zeros((n, d))
    filled = np.zeros(n, dtype=bool)
    for parts in rows:
        text = parts[0] if parts else ""
        idx = int(text) if text.isdecimal() else -1
        if not 0 <= idx < n:
            raise ValueError(f"{path}: row id {text!r} is not an integer in 0..{n - 1}")
        if filled[idx]:
            raise ValueError(f"{path}: row id {idx} repeats")
        try:
            mat[idx] = [float(x) for x in parts[1:]]
        except ValueError as exc:  # a value that is no float, or not d of them
            raise ValueError(f"{path}: row {idx}: {exc}") from None
        filled[idx] = True
    return mat
