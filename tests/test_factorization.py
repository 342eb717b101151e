import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import path3, random_connected_graph, random_strongly_connected_digraph, triangle
import walkmf.factorization
from walkmf import parallel
from walkmf.factorization import symmetrize_in_place
from walkmf import (
    EmbeddingPair,
    FactorizationError,
    factorize,
    read_embedding_matrix,
    reconstruction_error,
    sgns_target_exact,
    singular_values,
    softmax_target,
    stationary_distribution,
    truncated_svd,
    walk_probability_matrix,
    write_embedding_matrix,
)


def _gram_eigen_oracle(mat):
    # Brute-force spectrum: singular values are the square roots of the
    # eigenvalues of M^T M.
    eigvals = np.linalg.eigvalsh(mat.T @ mat)
    return np.sqrt(np.clip(eigvals, 0.0, None))[::-1]


def _random_matrix(seed, n=6, symmetric=False):
    # symmetric=True gives an indefinite symmetric matrix (with probability 1),
    # which truncated_svd factors through eigh rather than svd.
    mat = np.random.default_rng(seed).normal(size=(n, n))
    return (mat + mat.T) / 2 if symmetric else mat


@pytest.fixture
def decompositions(monkeypatch):
    """Names of the numpy decompositions called, in order."""
    calls = []
    for name in ("eigh", "svd"):
        def spy(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestTruncatedSvd:
    def test_rank_one_matrix(self):
        u, s, v = truncated_svd(np.full((2, 2), 2.0), d=1)
        assert np.allclose(s, [4.0], atol=1e-12)
        approx = (u * s) @ v.T
        assert np.max(np.abs(approx - 2.0)) < 1e-10

    def test_identity_spectrum(self):
        _, s, _ = truncated_svd(np.eye(3), d=3)
        assert np.allclose(s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal_truncation(self):
        mat = np.diag([3.0, 2.0, 1.0])
        u, s, v = truncated_svd(mat, d=2)
        assert np.allclose(s, [3.0, 2.0], atol=1e-12)
        err = np.linalg.norm(mat - (u * s) @ v.T)
        assert abs(err - 1.0) < 1e-10

    def test_singular_values_descending(self):
        _, s, _ = truncated_svd(_random_matrix(0), d=6)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_rejects_non_finite_with_policy_hint(self):
        mat = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FactorizationError, match="zero policy"):
            truncated_svd(mat, d=1)

    def test_rejects_rank_out_of_range(self):
        with pytest.raises(FactorizationError, match="rank"):
            truncated_svd(np.eye(3), d=4)
        with pytest.raises(FactorizationError, match="rank"):
            truncated_svd(np.eye(3), d=0)

    def test_deterministic_sign_convention(self):
        mat = _random_matrix(5)
        u1, s1, v1 = truncated_svd(mat, d=6)
        u2, s2, v2 = truncated_svd(mat, d=6)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2) and np.array_equal(v1, v2)
        for col in range(u1.shape[1]):
            leading = u1[np.argmax(np.abs(u1[:, col]) > 1e-12 * np.abs(u1[:, col]).max()), col]
            assert leading > 0

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.booleans())
    def test_matches_gram_eigenvalue_oracle(self, seed, symmetric):
        mat = _random_matrix(seed, symmetric=symmetric)
        _, s, _ = truncated_svd(mat, d=6)
        assert np.max(np.abs(s - _gram_eigen_oracle(mat))) < 1e-8

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.booleans())
    def test_orthonormal_columns(self, seed, d, symmetric):
        u, _, v = truncated_svd(_random_matrix(seed, symmetric=symmetric), d=d)
        assert np.max(np.abs(u.T @ u - np.eye(d))) < 1e-8
        assert np.max(np.abs(v.T @ v - np.eye(d))) < 1e-8

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.booleans())
    def test_error_equals_oracle_tail(self, seed, d, symmetric):
        # Eckart-Young: the rank-d product misses exactly the oracle's tail.
        mat = _random_matrix(seed, symmetric=symmetric)
        u, s, v = truncated_svd(mat, d=d)
        tail = np.sqrt(np.sum(_gram_eigen_oracle(mat)[d:] ** 2))
        assert abs(np.linalg.norm(mat - (u * s) @ v.T) - tail) < 1e-8

    @pytest.mark.parametrize("d, tail", [(1, np.sqrt(5.0)), (2, 1.0)])
    def test_plus_minus_tie(self, d, tail):
        # Eigenvalues 2 and -2 tie in |lambda|; either order is a best
        # rank-d factorization, and the one chosen must not vary.
        mat = np.diag([2.0, -2.0, 1.0])
        u, s, v = truncated_svd(mat, d=d)
        assert np.array_equal(s, [2.0] * d)
        assert abs(np.linalg.norm(mat - (u * s) @ v.T) - tail) < 1e-12
        again = truncated_svd(mat, d=d)
        assert all(np.array_equal(a, b) for a, b in zip((u, s, v), again))

    def test_ties_keep_ascending_eigenvalue_order(self):
        # Each |lambda| = 20, ..., 1 appears as -k and +k; the stable order
        # by |lambda| puts -k first, so u_j . v_j alternates -1, +1.
        k = np.arange(20, 0, -1.0)
        u, s, v = truncated_svd(np.diag(np.concatenate([k, -k])), d=40)
        assert np.array_equal(s, np.repeat(k, 2))
        assert np.array_equal(np.round(np.sum(u * v, axis=0)), np.tile([-1.0, 1.0], 20))

    def test_zero_eigenvalues_keep_v_orthonormal(self):
        # sign(0) counts as +1: a symmetric matrix of rank 1 still gets a
        # full orthonormal v at d = n.
        mat = np.diag([0.0, 2.0, 0.0])
        u, s, v = truncated_svd(mat, d=3)
        assert np.max(np.abs(v.T @ v - np.eye(3))) < 1e-12
        assert np.max(np.abs((u * s) @ v.T - mat)) < 1e-12


class TestDecompositionRoute:
    def test_undirected_sgns_target_uses_eigh_only(self, decompositions):
        g = random_connected_graph(12, seed=3, extra_edges=10)
        target = sgns_target_exact(walk_probability_matrix(g, 2), stationary_distribution(g), k=1)
        factorize(target, d=4)
        assert decompositions == ["eigh"]

    def test_directed_sgns_target_uses_svd(self, decompositions):
        g = random_strongly_connected_digraph(12, seed=3, extra_edges=12)
        target = sgns_target_exact(walk_probability_matrix(g, 2), stationary_distribution(g), k=1)
        assert np.abs(target.values - target.values.T).max() > 1e-3
        factorize(target, d=4)
        assert decompositions == ["svd"]

    def test_asymmetry_within_tolerance_factors_the_symmetric_part(self):
        mat = _random_matrix(7, symmetric=True)
        mat[0, 1] += 0.5 * 6 * np.finfo(float).eps * np.abs(mat).max()
        got = truncated_svd(mat, d=4)
        want = truncated_svd((mat + mat.T) / 2, d=4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("times_tolerance, route", [(10.0, "svd"), (0.5, "eigh")])
    def test_asymmetry_against_tolerance(self, decompositions, times_tolerance, route):
        # The tolerance is n eps max|M| = 3 * eps * 3 for this matrix.
        mat = np.diag([3.0, 2.0, 1.0])
        mat[0, 1] = times_tolerance * 9 * np.finfo(float).eps
        truncated_svd(mat, d=2)
        assert decompositions == [route]


class TestSymmetricRouteInPlace:
    def test_exactly_symmetric_matrix_is_decomposed_without_a_copy(self):
        # eigh's eigenvectors are the one n x n array made; a symmetrized
        # copy made a second.
        n = 600
        mat = _random_matrix(8, n=n, symmetric=True)
        tracemalloc.start()
        try:
            truncated_svd(mat, d=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n ** 2

    @pytest.mark.parametrize("block", [1 << 16, 7], ids=["one-block", "blocks"])
    def test_symmetrize_in_place_writes_the_factored_matrix(self, monkeypatch, block):
        # Blocks of 7 // 40 -> one row each exercise the row-block loops.
        monkeypatch.setattr(walkmf.factorization, "_BLOCK", block)
        mat = _random_matrix(7, n=40, symmetric=True)
        noise = np.random.default_rng(1).uniform(-1, 1, mat.shape)
        mat += noise * np.finfo(float).eps * np.abs(mat).max()
        assert not np.array_equal(mat, mat.T)
        sym = mat + mat.T
        sym *= 0.5
        factored = truncated_svd(mat, d=4)
        symmetrize_in_place(mat)
        assert mat.tobytes() == sym.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(truncated_svd(mat, d=4), factored))

    @pytest.mark.parametrize("block", [1 << 16, 7], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("mat", [
        _random_matrix(7, n=40, symmetric=True),  # exactly symmetric already
        _random_matrix(7, n=40),                  # asymmetric
        np.arange(12.0).reshape(3, 4),            # not square
        np.diag([1.0, np.nan, 2.0]),              # non-finite
    ], ids=["exact", "asymmetric", "rectangular", "nan"])
    def test_symmetrize_in_place_leaves_other_matrices(self, monkeypatch, block, mat):
        monkeypatch.setattr(walkmf.factorization, "_BLOCK", block)
        before = mat.copy()
        symmetrize_in_place(mat)
        assert mat.tobytes() == before.tobytes()


class TestFactorize:
    def test_full_rank_softmax_target_reconstructs(self):
        target = softmax_target(walk_probability_matrix(path3(), 2), "zero", "floor")
        pair = factorize(target, d=3)
        assert reconstruction_error(target, pair) < 1e-8

    def test_full_rank_sgns_target_reconstructs(self):
        target = sgns_target_exact(walk_probability_matrix(triangle(), 1),
                                   stationary_distribution(triangle()), k=1, zero_policy="truncate")
        pair = factorize(target, d=3)
        assert reconstruction_error(target, pair) < 1e-8

    def test_rank_one_error_matches_tail_energy(self):
        mat = np.diag([3.0, 2.0, 1.0])
        pair = factorize(mat, d=1)
        # Best rank-1 approximation drops the two smaller singular values.
        assert abs(reconstruction_error(mat, pair) - np.sqrt(5.0)) < 1e-10

    def test_error_non_increasing_in_rank(self):
        mat = _random_matrix(3)
        errors = [reconstruction_error(mat, factorize(mat, d)) for d in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 1e-8 * np.linalg.norm(mat)

    def test_symmetric_input_gives_matching_factor_spans(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(6, 6))
        mat = mat + mat.T
        pair = factorize(mat, d=4)
        qw, _ = np.linalg.qr(pair.w)
        qh, _ = np.linalg.qr(pair.h)
        # principal angles between the two column spaces
        cosines = np.linalg.svd(qw.T @ qh, compute_uv=False)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        assert np.max(angles) < 1e-6

    def test_left_split_same_product(self):
        mat = _random_matrix(7)
        sym = factorize(mat, d=4, split="symmetric")
        left = factorize(mat, d=4, split="left")
        assert np.max(np.abs(sym.w @ sym.h.T - left.w @ left.h.T)) < 1e-10

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError, match="split"):
            factorize(np.eye(2), d=1, split="right")


class TestReconstructionError:
    def test_exact_factorization_is_zero(self):
        mat = _random_matrix(2)
        pair = factorize(mat, d=6)
        assert reconstruction_error(mat, pair) < 1e-10

    def test_zero_embeddings_give_frobenius_norm(self):
        mat = _random_matrix(4)
        pair = EmbeddingPair(w=np.zeros((6, 2)), h=np.zeros((6, 2)))
        assert abs(reconstruction_error(mat, pair) - np.linalg.norm(mat)) < 1e-12

    def test_shape_mismatch(self):
        pair = EmbeddingPair(w=np.zeros((2, 1)), h=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            reconstruction_error(np.eye(3), pair)

    @pytest.mark.parametrize("symmetric", [False, True], ids=["svd", "eigh"])
    def test_same_bits_as_norm_of_target_minus_product(self, symmetric):
        mat = _random_matrix(7, n=40, symmetric=symmetric)
        before = mat.copy()
        pair = factorize(mat, d=5)
        expected = float(np.linalg.norm(mat - pair.w @ pair.h.T))
        assert reconstruction_error(mat, pair) == expected
        assert mat.tobytes() == before.tobytes()


def _even_cycle_adjacency(n=8):
    # Eigenvalues 2 cos(2 pi k / n): +-lambda pairs, repeats and zeros.
    eye = np.eye(n)
    return np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)


def _undirected_sgns_target():
    g = random_connected_graph(30, seed=5, extra_edges=40)
    return sgns_target_exact(walk_probability_matrix(g, 3), stationary_distribution(g), k=1).values


class TestSingularValues:
    def test_full_spectrum(self):
        mat = np.diag([3.0, 2.0, 1.0])
        assert np.allclose(singular_values(mat), [3.0, 2.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("make", [_even_cycle_adjacency, _undirected_sgns_target],
                             ids=["even-cycle", "undirected-sgns"])
    def test_symmetric_indefinite_matches_general_svd(self, make):
        mat = make()
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.linalg.eigvalsh((mat + mat.T) / 2).min() < 0  # indefinite
        got = singular_values(mat)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
        assert np.all(np.diff(got) <= 0)
        assert np.all(got >= 0)

    def test_symmetric_to_rounding_is_the_spectrum_of_the_symmetric_part(self):
        mat = _undirected_sgns_target()
        assert not np.array_equal(mat, mat.T)
        before = mat.tobytes()
        sym = mat + mat.T
        sym *= 0.5
        got = singular_values(mat)
        assert mat.tobytes() == before
        assert np.array_equal(got, np.linalg.svd(sym, compute_uv=False, hermitian=True))

    @pytest.mark.parametrize("mat", [
        _random_matrix(3, n=9),
        np.random.default_rng(4).normal(size=(7, 4)),
        np.random.default_rng(4).normal(size=(4, 7)),
    ], ids=["square", "tall", "wide"])
    def test_non_symmetric_is_the_general_svd_bit_for_bit(self, mat):
        assert np.array_equal(singular_values(mat), np.linalg.svd(mat, compute_uv=False))


class TestEmbeddingIO:
    def test_word2vec_round_trip(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(5, 3))
        write_embedding_matrix(mat, tmp_path / "w.txt")
        assert np.array_equal(read_embedding_matrix(tmp_path / "w.txt"), mat)

    def test_header_line(self, tmp_path):
        write_embedding_matrix(np.zeros((4, 2)), tmp_path / "w.txt")
        assert (tmp_path / "w.txt").read_text().splitlines()[0] == "4 2"

    def test_missing_row_detected(self, tmp_path):
        (tmp_path / "w.txt").write_text("2 1\n0 1.5\n")
        with pytest.raises(ValueError, match="missing"):
            read_embedding_matrix(tmp_path / "w.txt")

    @pytest.mark.parametrize("text, problem", [
        ("2 1\n0 1.5\n-1 2.5\n", "row id '-1' is not an integer in 0..1"),
        ("2 1\n0 1.5\n2 2.5\n", "row id '2' is not an integer in 0..1"),
        ("2 1\n0 1.5\n1.0 2.5\n", "row id '1.0' is not an integer in 0..1"),
        ("2 1\n1 1.5\n1 2.5\n", "row id 1 repeats"),
        ("2 1\n0 1.5\n1 2.5\n1 3.5\n", "extra rows: 3 rows for n = 2"),
        ("2 1\n0 1.5\n1 2.5 3.5\n", "row 1: "),  # then NumPy's own message
        ("2\n0 1.5\n1 2.5\n", "header must be 'n d', got '2'"),
    ], ids=["negative-id", "id-past-n", "non-integer-id", "repeated-id", "extra-row",
            "long-row", "bad-header"])
    def test_malformed_file_names_the_file(self, tmp_path, text, problem):
        path = tmp_path / "w.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_embedding_matrix(path)
        assert str(excinfo.value).startswith(f"{path}: {problem}")

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_bytes_match_a_per_line_formatter(self, tmp_path, monkeypatch, cores):
        if cores > 1 and not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
            pytest.skip("needs os.fork and os.sched_getaffinity")
        mat = np.random.default_rng(3).normal(size=(23, 4)) * 10.0 ** np.arange(-8, 8, 4)
        mat[0, :] = [-0.0, 1e-300, np.inf, -np.inf]
        mat[11, 2] = -0.0
        # Slices of 5 rows, which do not divide the blocks of a split file.
        monkeypatch.setattr(parallel, "available_cores", lambda: cores)
        monkeypatch.setattr(parallel, "_SPLIT_VALUES", 1)
        monkeypatch.setattr(parallel, "_SLICE_VALUES", 25)
        write_embedding_matrix(mat, tmp_path / "w.txt")
        line = "%d " + " ".join(["%.17g"] * 4) + "\n"
        expected = "23 4\n" + "".join(line % (i, *row) for i, row in enumerate(mat.tolist()))
        assert (tmp_path / "w.txt").read_bytes() == expected.encode()
