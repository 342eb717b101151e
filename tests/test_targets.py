import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import walkmf.targets
from graphgen import cycle, k2, path3, random_connected_graph, triangle
from walkmf import (
    CooccurrenceCounts,
    SamplerConfig,
    compare_matrices,
    empirical_conditional,
    expected_neighbor_counts,
    read_matrix_csv,
    sample_counts,
    sgns_target_exact,
    sgns_target_from_counts,
    softmax_target,
    stationary_distribution,
    transition_matrix,
    walk_probability_matrix,
    write_matrix_csv,
)

EPS = 1e-12
LOG_EPS = math.log(EPS)


def _walk_matrix_oracle(g, window):
    # Independent route: explicit matrix powers, summed then averaged.
    mat = transition_matrix(g)
    return sum(np.linalg.matrix_power(mat, s) for s in range(1, window + 1)) / window


def _row_softmax(mat):
    shifted = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _uniform_k3_counts(per_pair=100):
    mat = np.full((3, 3), per_pair, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return CooccurrenceCounts(mat)


class TestWalkProbabilityMatrix:
    def test_k2_window_one_is_transition_matrix(self):
        assert walk_probability_matrix(k2(), 1).probs.tolist() == [[0, 1], [1, 0]]

    def test_k2_window_two(self):
        p = walk_probability_matrix(k2(), 2).probs
        assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert np.allclose(p, _walk_matrix_oracle(k2(), 2), atol=1e-15)

    def test_path_window_two(self):
        p = walk_probability_matrix(path3(), 2).probs
        expected = np.tile([0.25, 0.5, 0.25], (3, 1))
        assert np.allclose(p, expected, atol=1e-15)
        assert np.allclose(p, _walk_matrix_oracle(path3(), 2), atol=1e-15)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            walk_probability_matrix(k2(), 0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(1, 10))
    def test_matches_matrix_power_oracle(self, seed, n, window):
        g = random_connected_graph(n, seed)
        p = walk_probability_matrix(g, window).probs
        assert np.max(np.abs(p - _walk_matrix_oracle(g, window))) < 1e-12

    @pytest.mark.parametrize("window", range(1, 11))
    def test_same_bits_as_one_product_at_a_time(self, window):
        # The products go into reused buffers and the sum is divided in
        # place; each value is still the one a fresh product per step gives.
        g = random_connected_graph(200, 8, extra_edges=400)
        a = transition_matrix(g)
        acc, power = a.copy(), a
        for _ in range(window - 1):
            power = power @ a
            acc = acc + power
        assert _same_bits(walk_probability_matrix(g, window, a).probs, acc / window)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(1, 10))
    def test_rows_sum_to_one(self, seed, n, window):
        g = random_connected_graph(n, seed)
        p = walk_probability_matrix(g, window).probs
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-10
        assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-12


class TestSoftmaxTarget:
    def test_k2_floor_values(self):
        target = softmax_target(walk_probability_matrix(k2(), 1), "zero", "floor", EPS)
        assert np.allclose(target.values, [[LOG_EPS, 0.0], [0.0, LOG_EPS]], atol=1e-15)

    def test_path_bias_zero_rows(self):
        target = softmax_target(walk_probability_matrix(path3(), 2), "zero", "floor")
        expected = np.log(np.tile([0.25, 0.5, 0.25], (3, 1)))
        assert np.allclose(target.values, expected, atol=1e-14)

    def test_k2_bias_log2t(self):
        target = softmax_target(walk_probability_matrix(k2(), 1), "log2t", "floor")
        finite = target.values[[0, 1], [1, 0]]
        assert np.allclose(finite, math.log(2.0), atol=1e-15)
        # zero-probability entries floor to log(eps) under either bias
        assert np.allclose(target.values[[0, 1], [0, 1]], LOG_EPS, atol=1e-15)

    def test_truncate_clamps_at_zero(self):
        target = softmax_target(walk_probability_matrix(path3(), 2), "zero", "truncate")
        assert target.values.min() >= 0.0

    def test_mask_marks_exactly_the_zero_entries(self):
        p = walk_probability_matrix(k2(), 1)
        target = softmax_target(p, "zero", "mask")
        assert target.mask.tolist() == [[True, False], [False, True]]
        assert np.isnan(target.values[0, 0]) and target.values[0, 1] == 0.0

    def test_rejects_unknown_bias(self):
        with pytest.raises(ValueError, match="bias_mode"):
            softmax_target(walk_probability_matrix(k2(), 1), "log4t")

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
    def test_row_softmax_recovers_walk_matrix_for_both_biases(self, seed, n, window):
        # The per-row additive bias cancels in the softmax, so either target
        # reproduces the row of P (this needs every entry positive).
        g = random_connected_graph(n, seed, extra_edges=n)
        p = walk_probability_matrix(g, window)
        assume(p.probs.min() > 0)
        for bias in ("zero", "log2t"):
            target = softmax_target(p, bias, "floor")
            assert np.max(np.abs(_row_softmax(target.values) - p.probs)) < 1e-10

    def test_floor_distortion_bounded_by_n_eps(self):
        p = walk_probability_matrix(k2(), 1)  # has zero entries
        target = softmax_target(p, "zero", "floor", EPS)
        distortion = np.max(np.abs(_row_softmax(target.values) - p.probs))
        assert distortion <= 2 * EPS

    def test_exp_of_log2t_target_equals_expected_counts(self):
        p = walk_probability_matrix(triangle(), 3)
        target = softmax_target(p, "log2t", "floor")
        expected = expected_neighbor_counts(p)
        positive = p.probs > 0
        assert np.max(np.abs(np.exp(target.values[positive]) - expected[positive])) < 1e-10


class TestExpectedNeighborCounts:
    def test_k2(self):
        assert expected_neighbor_counts(walk_probability_matrix(k2(), 1)).tolist() == [[0, 2], [2, 0]]

    def test_path_window_two(self):
        counts = expected_neighbor_counts(walk_probability_matrix(path3(), 2))
        assert np.allclose(counts, np.tile([1.0, 2.0, 1.0], (3, 1)), atol=1e-14)

    def test_triangle_off_diagonal_one(self):
        counts = expected_neighbor_counts(walk_probability_matrix(triangle(), 1))
        off = counts[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-15)


class TestSgnsTargetFromCounts:
    def test_k2_counts_k1(self):
        counts = CooccurrenceCounts(np.array([[0, 500], [500, 0]]))
        target = sgns_target_from_counts(counts, k=1, zero_policy="floor")
        assert np.allclose(target.values[[0, 1], [1, 0]], math.log(2.0), atol=1e-12)

    def test_k2_counts_k2_shift_cancels(self):
        counts = CooccurrenceCounts(np.array([[0, 500], [500, 0]]))
        target = sgns_target_from_counts(counts, k=2, zero_policy="truncate")
        assert np.allclose(target.values[[0, 1], [1, 0]], 0.0, atol=1e-12)

    def test_uniform_k3_counts(self):
        target = sgns_target_from_counts(_uniform_k3_counts(), k=1, zero_policy="floor")
        off = target.values[~np.eye(3, dtype=bool)]
        assert np.allclose(off, math.log(1.5), atol=1e-12)

    def test_truncate_default_clamps_zero_pairs(self):
        target = sgns_target_from_counts(_uniform_k3_counts(), k=1)
        assert target.zero_policy == "truncate"
        assert np.allclose(np.diag(target.values), 0.0)
        assert target.values.min() >= 0.0

    def test_mask_marks_zero_pairs(self):
        target = sgns_target_from_counts(_uniform_k3_counts(), k=1, zero_policy="mask")
        assert np.array_equal(target.mask, np.eye(3, dtype=bool))

    def test_absent_row_is_nan(self):
        counts = CooccurrenceCounts(np.array([[0, 3, 0], [3, 0, 0], [0, 0, 0]]))
        target = sgns_target_from_counts(counts, k=1, zero_policy="floor")
        assert np.isnan(target.values[2]).all()
        assert np.isfinite(target.values[:2]).all()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sgns_target_from_counts(_uniform_k3_counts(), k=0)

    def test_k2_counts_whose_marginal_product_passes_int64(self):
        # #(0) #(1) = 4e9 * 4e9 = 1.6e19 > 2^63 - 1; every count fits.
        counts = CooccurrenceCounts(np.array([[0, 4 * 10**9], [4 * 10**9, 0]]))
        target = sgns_target_from_counts(counts, k=1)
        assert target.values[0, 1] == target.values[1, 0] == math.log(2.0)


class TestSgnsTargetExact:
    def test_triangle_k1(self):
        target = sgns_target_exact(walk_probability_matrix(triangle(), 1),
                                   stationary_distribution(triangle()), k=1, zero_policy="floor")
        off = target.values[~np.eye(3, dtype=bool)]
        assert np.allclose(off, math.log(1.5), atol=1e-12)

    def test_regular_graph_reduces_to_log_n_p(self):
        g = cycle(6)
        p = walk_probability_matrix(g, 3).probs
        target = sgns_target_exact(walk_probability_matrix(g, 3),
                                   stationary_distribution(g), k=1, zero_policy="mask")
        positive = p > 0
        assert np.allclose(target.values[positive], np.log(6 * p[positive]), atol=1e-12)

    def test_k2_with_shift_two(self):
        target = sgns_target_exact(walk_probability_matrix(k2(), 1),
                                   stationary_distribution(k2()), k=2, zero_policy="truncate")
        assert np.allclose(target.values[[0, 1], [1, 0]], 0.0, atol=1e-12)

    def test_counts_limit_approaches_exact(self):
        g = triangle()
        counts = sample_counts(g, SamplerConfig(window=2, centers=200_000, seed=13))
        sampled = sgns_target_from_counts(counts, k=1, zero_policy="mask")
        exact = sgns_target_exact(walk_probability_matrix(g, 2),
                                  stationary_distribution(g), k=1, zero_policy="mask")
        p = walk_probability_matrix(g, 2).probs
        keep = p >= 0.01
        diff = np.abs(sampled.values - exact.values)[keep]
        assert np.nanmax(diff) < 0.05

    def test_counts_limit_at_one_million_centers(self):
        g = random_connected_graph(8, 311, extra_edges=8, min_degree=2)
        counts = sample_counts(g, SamplerConfig(window=3, centers=1_000_000, seed=19))
        sampled = sgns_target_from_counts(counts, k=2, zero_policy="mask")
        exact = sgns_target_exact(walk_probability_matrix(g, 3),
                                  stationary_distribution(g), k=2, zero_policy="mask")
        keep = walk_probability_matrix(g, 3).probs >= 0.01
        diff = np.abs(sampled.values - exact.values)[keep]
        assert np.nanmax(diff) < 0.05


class TestCompareMatrices:
    def test_identical(self):
        report = compare_matrices(np.eye(3), np.eye(3))
        assert report.max_abs == 0.0 and report.compared == 9

    def test_simple_difference(self):
        report = compare_matrices(np.array([[0.0, 1.0]]), np.array([[0.0, 2.0]]))
        assert report.max_abs == 1.0
        assert report.mean_abs == 0.5

    def test_nan_entries_excluded_and_counted(self):
        x = np.array([[np.nan, 1.0]])
        report = compare_matrices(x, np.array([[0.0, 1.0]]))
        assert report.compared == 1 and report.excluded == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            compare_matrices(np.eye(2), np.eye(3))


# The straightforward formulas each builder computes, written out with fresh
# arrays. The builders work in place and must give the same bits.
def _reference_log(raw, zero_policy, epsilon):
    positive = raw > 0
    logs = np.full(raw.shape, -np.inf)
    logs[positive] = np.log(raw[positive])
    if zero_policy == "floor":
        return np.where(positive, logs, np.log(epsilon)), None
    if zero_policy == "truncate":
        return np.maximum(logs, 0.0), None
    return np.where(positive, logs, np.nan), ~positive


def _reference_softmax(p, bias_mode, zero_policy):
    raw = p.probs if bias_mode == "zero" else 2.0 * p.window * p.probs
    return _reference_log(raw, zero_policy, EPS)


def _reference_exact(p, pi, k, zero_policy):
    return _reference_log(p.probs / (k * pi[None, :]), zero_policy, EPS)


def _reference_from_counts(counts, k, zero_policy):
    joint = counts.dense.astype(float)
    denom = k * np.outer(counts.node_counts, counts.context_counts).astype(float)
    raw = np.divide(joint * counts.total, denom, out=np.zeros_like(joint), where=denom > 0)
    values, mask = _reference_log(raw, zero_policy, EPS)
    values[counts.node_counts == 0, :] = np.nan
    return values, mask


def _reference_conditional(counts):
    out = np.full((counts.n, counts.n), np.nan)
    observed = counts.node_counts > 0
    dense = counts.dense.astype(float)
    out[observed] = dense[observed] / counts.node_counts[observed, None]
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _matches_reference(target, values, mask):
    if (target.mask is None) != (mask is None):
        return False
    return _same_bits(target.values, values) and (mask is None or _same_bits(target.mask, mask))


def _sparse_walk_matrix():
    # Window 2 on a sparse graph leaves many zero probabilities.
    g = random_connected_graph(40, 5, extra_edges=4)
    return walk_probability_matrix(g, 2), stationary_distribution(g)


def _counts_with_absent_node(n=40, seed=6):
    # Zeros scattered through the counts, plus node 3 never seen as a center
    # and node 7 never seen as a context.
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, 50, (n, n)) * (rng.random((n, n)) < 0.4)
    mat[3, :] = 0
    mat[:, 7] = 0
    return CooccurrenceCounts(mat)


class TestBuildersMatchReferenceBitwise:
    @pytest.mark.parametrize("zero_policy", ["floor", "truncate", "mask"])
    @pytest.mark.parametrize("bias_mode", ["zero", "log2t"])
    def test_softmax_target(self, bias_mode, zero_policy):
        p, _ = _sparse_walk_matrix()
        probs = p.probs.copy()
        target = softmax_target(p, bias_mode, zero_policy, EPS)
        values, mask = _reference_softmax(p, bias_mode, zero_policy)
        assert _matches_reference(target, values, mask)
        assert _same_bits(p.probs, probs)
        assert not np.shares_memory(target.values, p.probs)

    @pytest.mark.parametrize("zero_policy", ["floor", "truncate", "mask"])
    def test_sgns_target_exact(self, zero_policy):
        p, pi = _sparse_walk_matrix()
        probs, pi_before = p.probs.copy(), pi.copy()
        target = sgns_target_exact(p, pi, k=3, zero_policy=zero_policy, epsilon=EPS)
        values, mask = _reference_exact(p, pi, 3, zero_policy)
        assert _matches_reference(target, values, mask)
        assert _same_bits(p.probs, probs) and _same_bits(pi, pi_before)

    @pytest.mark.parametrize("block", [1 << 16, 7], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("zero_policy", ["floor", "truncate", "mask"])
    def test_sgns_target_from_counts(self, monkeypatch, zero_policy, block):
        # Blocks of 7 // 40 -> one row each exercise the row-block loop.
        monkeypatch.setattr(walkmf.targets, "_BLOCK", block)
        counts = _counts_with_absent_node()
        dense = counts.dense.copy()
        target = sgns_target_from_counts(counts, k=2, zero_policy=zero_policy, epsilon=EPS)
        values, mask = _reference_from_counts(counts, 2, zero_policy)
        assert _matches_reference(target, values, mask)
        assert _same_bits(counts.dense, dense)

    def test_empirical_conditional(self):
        counts = _counts_with_absent_node()
        dense = counts.dense.copy()
        assert _same_bits(empirical_conditional(counts), _reference_conditional(counts))
        assert _same_bits(counts.dense, dense)

    @pytest.mark.parametrize("masked", [False])
    def test_compare_matrices(self, masked):
        counts = _counts_with_absent_node()
        p, _ = _sparse_walk_matrix()
        x, y = empirical_conditional(counts), p.probs
        x_before, y_before = x.copy(), y.copy()
        report = compare_matrices(x, y)
        valid = np.isfinite(x) & np.isfinite(y)
        diff = np.abs(x[valid] - y[valid])
        assert (report.max_abs, report.mean_abs) == (float(diff.max()), float(diff.mean()))
        assert report.compared == int(valid.sum())
        assert _same_bits(x, x_before) and _same_bits(y, y_before)


class TestBuilderWorkingSet:
    """Each builder holds, besides its inputs, one n x n float array, two
    boolean masks over it and one array of its positive entries (the SGNS
    denominator adds one block of rows). Building each intermediate as a
    fresh n x n array took three or more."""

    N = 600

    def _bound(self, npos, extra=0):
        n2 = self.N ** 2
        return 8 * n2 + 2 * n2 + 8 * npos + extra + 64 * 1024

    @staticmethod
    def _peak(build):
        tracemalloc.start()
        try:
            target = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return target, peak

    def _sparse_inputs(self):
        g = random_connected_graph(self.N, 2, extra_edges=60)
        return walk_probability_matrix(g, 2), stationary_distribution(g)

    @pytest.mark.parametrize("bias_mode", ["zero", "log2t"])
    def test_softmax_target(self, bias_mode):
        p, _ = self._sparse_inputs()
        target, peak = self._peak(lambda: softmax_target(p, bias_mode, "mask"))
        assert peak <= self._bound(int((~target.mask).sum()))

    def test_sgns_target_exact(self):
        p, pi = self._sparse_inputs()
        target, peak = self._peak(lambda: sgns_target_exact(p, pi, k=5, zero_policy="mask"))
        assert peak <= self._bound(int((~target.mask).sum()))

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_walk_probability_matrix(self, window):
        # Besides A: the sum and up to two powers, which take turns as a
        # product's input and its output. A fresh array for every product
        # and for the quotient took one more at windows 1 and 2.
        g = random_connected_graph(self.N, 2, extra_edges=60)
        a = transition_matrix(g)
        _, peak = self._peak(lambda: walk_probability_matrix(g, window, a))
        assert peak <= min(window, 3) * 8 * self.N ** 2 + 64 * 1024

    def test_sgns_target_from_counts(self):
        counts = _counts_with_absent_node(self.N)
        target, peak = self._peak(lambda: sgns_target_from_counts(counts, k=5, zero_policy="mask"))
        block = 17 * walkmf.targets._BLOCK  # int64 product, its float, its mask
        assert peak <= self._bound(int((~target.mask).sum()), block)


class TestMatrixIO:
    def test_csv_round_trip_full_precision(self, tmp_path):
        mat = np.array([[1 / 3, math.pi], [LOG_EPS, 2.0 / 7.0]])
        write_matrix_csv(mat, tmp_path / "m.csv")
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), mat)


def _percent_g17(values):
    # One "%.17g" per value, one value per line: what np.savetxt writes for a column.
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).ravel().tolist()).encode()


def _format_column(values):
    return walkmf.targets._format_g17(np.asarray(values, dtype=float).reshape(-1, 1), ",")


def _powers_of_ten(lo, hi):
    powers = np.array([float(10 ** k) if k >= 0 else float(f"1e{k}") for k in range(lo, hi)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def _ties(seed, per_exponent=2000):
    """Doubles whose exact decimal has 18 significant digits ending in 5:
    m / 2^j is m 5^j / 10^j, and m 5^j is an odd multiple of 5."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(2, 26):
        lo, hi = max(1, -(-10**17 // 5**j)), min(2**53, 10**18 // 5**j)
        if lo < hi:
            m = rng.integers(lo, hi, per_exponent) | 1
            out.append(m[m < hi] / 2.0**j)
    return np.concatenate(out)


class TestFormatG17:
    """_format_g17 gives the bytes "%.17g" gives, value by value."""

    def test_random_bit_patterns(self):
        # Every class: normals of every exponent, subnormals, ±0, ±inf and NaN payloads.
        bits = np.random.default_rng(1).integers(0, 2**64, 50_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert _format_column(values) == _percent_g17(values)

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(2)
        values = 10.0 ** rng.uniform(-13, 17, 50_000) * rng.choice([-1.0, 1.0], 50_000)
        assert _format_column(values) == _percent_g17(values)

    def test_edges_of_the_exact_range(self):
        # The double nearest 1e-6 lies below 10^-6, so it is outside the range.
        below = above = np.array([1e-6, 1e15])
        values = [below]
        for _ in range(3):
            below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
            values += [below, above]
        values = np.concatenate(values)
        values = np.concatenate([values, -values])
        assert _format_column(values) == _percent_g17(values)

    def test_exact_ties_round_half_to_even(self):
        values = _ties(3)
        assert values.size > 40_000
        values = np.concatenate([values, -values])
        assert _format_column(values) == _percent_g17(values)

    def test_powers_of_ten_and_their_neighbours(self):
        values = _powers_of_ten(-9, 19)
        values = np.concatenate([values, -values])
        assert _format_column(values) == _percent_g17(values)

    def test_integers(self):
        values = np.concatenate([np.arange(-20_000, 20_000), 2.0**53 + np.arange(-4, 5),
                                 10.0**np.arange(16) - 1, 10.0**np.arange(16) + 1])
        assert _format_column(values) == _percent_g17(values)

    def test_tokens_and_subnormals(self):
        tiny = np.finfo(float).tiny
        values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                           tiny, -tiny, np.nextafter(tiny, 0), 1e-300, np.finfo(float).max,
                           -np.finfo(float).max])
        assert _format_column(values) == _percent_g17(values)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=20))
    def test_any_floats(self, values):
        assert _format_column(values) == _percent_g17(values)

    @pytest.mark.parametrize("delimiter", [",", " "])
    def test_rows_as_np_savetxt_writes_them(self, delimiter):
        # A mask-policy target: mostly NaN, with logs of both signs elsewhere.
        rng = np.random.default_rng(4)
        mat = np.log(rng.random((37, 23)))
        mat[rng.random(mat.shape) < 0.9] = np.nan
        mat[0, :3] = [0.0, -0.0, 1.0]
        buffer = io.BytesIO()
        np.savetxt(buffer, mat, fmt="%.17g", delimiter=delimiter)
        assert walkmf.targets._format_g17(mat, delimiter) == buffer.getvalue()

    def test_exact_range_and_tokens_never_fall_back(self, monkeypatch):
        fallback = walkmf.targets._g17_fallback
        taken = []

        def recorded(value):
            taken.append(value)
            return fallback(value)

        monkeypatch.setattr(walkmf.targets, "_g17_fallback", recorded)
        rng = np.random.default_rng(5)
        inside = np.concatenate([10.0 ** rng.uniform(-5.99, 14.99, 20_000), _ties(6, 200),
                                 _powers_of_ten(-5, 15), np.nextafter([1e-6, 1e15], [1, 0])])
        inside = inside[(inside > 1e-6) & (inside < 1e15)]
        values = np.concatenate([inside, -inside, [0.0, -0.0, np.nan, np.inf, -np.inf]])
        assert _format_column(values) == _percent_g17(values)
        assert taken == []
        outside = np.array([1e-6, 1e-7, 5e-324, 1e15, -1e300])
        assert _format_column(outside) == _percent_g17(outside)
        assert taken == outside.tolist()

    def test_a_value_whose_exponent_is_not_found_falls_back(self, monkeypatch):
        # A product out of [1e16, 1e17) after the exponent's correction, as a
        # log10 off by more than one would leave it, is written by "%.17g".
        times = walkmf.targets._times_pow10

        def off_by_three(a, k):
            hi, lo = times(a, k)
            return hi * 1e3, lo

        monkeypatch.setattr(walkmf.targets, "_times_pow10", off_by_three)
        values = np.array([1.5, -2.25e-5, 1234.5678, 9.999999999999999e14, 0.0])
        assert _format_column(values) == _percent_g17(values)
