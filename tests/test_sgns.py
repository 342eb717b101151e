import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import random_connected_graph, random_strongly_connected_digraph
from walkmf import (
    CooccurrenceCounts,
    EmbeddingPair,
    SamplerConfig,
    TrainConfig,
    compare_matrices,
    dot_matrix,
    dot_vs_shifted_pmi,
    sample_counts,
    sgns_objective,
    sgns_objective_gradient,
    sgns_objective_upper_bound,
    sgns_target_from_counts,
    train_sgns,
)
from walkmf.sgns import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    LR_FLOOR_RATIO,
    STEPS_PER_EPOCH,
)


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _k2_counts(per_pair=500):
    return CooccurrenceCounts(np.array([[0, per_pair], [per_pair, 0]]))


def _uniform_k3_counts(per_pair=100):
    mat = np.full((3, 3), per_pair, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return CooccurrenceCounts(mat)


def _random_counts(rng, n):
    mat = rng.integers(1, 40, size=(n, n))
    return CooccurrenceCounts(mat)


def _random_pair(rng, n, d, scale=0.7):
    return EmbeddingPair(w=rng.normal(scale=scale, size=(n, d)),
                         h=rng.normal(scale=scale, size=(n, d)))


class TestObjective:
    def test_zero_embeddings_closed_form(self):
        # At x = 0 every sigmoid is 1/2, and the noise weights sum to |D|.
        for k in (1, 3):
            counts = _uniform_k3_counts()
            pair = EmbeddingPair(w=np.zeros((3, 2)), h=np.zeros((3, 2)))
            expected = (1 + k) * counts.total * math.log(0.5)
            assert abs(sgns_objective(counts, pair, k) - expected) < 1e-9

    def test_orthogonal_rotation_invariance(self):
        rng = np.random.default_rng(4)
        counts = _random_counts(rng, 4)
        pair = _random_pair(rng, 4, 3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = EmbeddingPair(w=pair.w @ q, h=pair.h @ q)
        assert abs(sgns_objective(counts, pair, 2) - sgns_objective(counts, rotated, 2)) < 1e-9

    def test_optimal_dot_products_reach_the_per_pair_bound(self):
        counts = _k2_counts()
        big = 40.0
        x_star = math.log(2.0)
        pair = EmbeddingPair(w=np.eye(2), h=np.array([[-big, x_star], [x_star, -big]]))
        value = sgns_objective(counts, pair, negatives=1)
        bound = sgns_objective_upper_bound(counts, negatives=1)
        assert value <= bound + 1e-9
        assert abs(value - bound) < 1e-6

    def test_upper_bound_where_k_times_the_marginals_pass_int64(self):
        # k #(0) #(1) = 5 * 2e9 * 2e9 = 2e19 > 2^63 - 1; every count fits.
        counts = _k2_counts(per_pair=2 * 10**9)
        pos, neg = 2e9, 5 * 2e9 * 2e9 / 4e9
        x_star = math.log(pos / neg)
        expected = 2 * (pos * _log_sigmoid(x_star) + neg * _log_sigmoid(-x_star))
        assert neg == 5e9
        assert sgns_objective_upper_bound(counts, negatives=5) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        # Every function that takes embeddings refuses, in the same words,
        # a w or an h with too few rows or too many for the counts.
        counts = _uniform_k3_counts()
        for evaluate in (sgns_objective, sgns_objective_gradient, dot_vs_shifted_pmi):
            for w_rows, h_rows in [(2, 2), (4, 4), (2, 3), (3, 4)]:
                pair = EmbeddingPair(w=np.zeros((w_rows, 2)), h=np.zeros((h_rows, 2)))
                message = f"embeddings cover {w_rows}/{h_rows} nodes, counts cover 3"
                with pytest.raises(ValueError, match=message):
                    evaluate(counts, pair, 1)


class TestObjectiveGradient:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 4), st.integers(1, 3))
    def test_matches_central_finite_differences(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        counts = _random_counts(rng, n)
        pair = _random_pair(rng, n, d)
        grad_w, grad_h = sgns_objective_gradient(counts, pair, k)

        h = 1e-6
        fd_w = np.zeros_like(grad_w)
        for i in range(n):
            for j in range(d):
                up = pair.w.copy()
                down = pair.w.copy()
                up[i, j] += h
                down[i, j] -= h
                fd_w[i, j] = (
                    sgns_objective(counts, EmbeddingPair(w=up, h=pair.h), k)
                    - sgns_objective(counts, EmbeddingPair(w=down, h=pair.h), k)
                ) / (2 * h)
        fd_h = np.zeros_like(grad_h)
        for i in range(n):
            for j in range(d):
                up = pair.h.copy()
                down = pair.h.copy()
                up[i, j] += h
                down[i, j] -= h
                fd_h[i, j] = (
                    sgns_objective(counts, EmbeddingPair(w=pair.w, h=up), k)
                    - sgns_objective(counts, EmbeddingPair(w=pair.w, h=down), k)
                ) / (2 * h)

        assert np.allclose(grad_w, fd_w, rtol=1e-5, atol=1e-6)
        assert np.allclose(grad_h, fd_h, rtol=1e-5, atol=1e-6)


def _dense_weights(counts, k):
    pos = counts.dense.astype(float)
    neg = k * np.outer(counts.node_counts, counts.context_counts) / counts.total
    return pos, neg


def _dense_objective(counts, pair, k):
    """Reference: every one of the n^2 terms, with two log-sigmoids each."""
    pos, neg = _dense_weights(counts, k)
    x = pair.w @ pair.h.T
    return float(np.sum(pos * _log_sigmoid(x) + neg * _log_sigmoid(-x)))


def _dense_gradient(counts, pair, k):
    pos, neg = _dense_weights(counts, k)
    sig = np.exp(_log_sigmoid(pair.w @ pair.h.T))
    residual = pos * (1.0 - sig) - neg * sig
    return residual @ pair.h, residual.T @ pair.w


def _dense_upper_bound(counts, k):
    pos, neg = _dense_weights(counts, k)
    hit = pos > 0
    x_star = np.log(pos[hit] / neg[hit])
    return float(np.sum(pos[hit] * _log_sigmoid(x_star) + neg[hit] * _log_sigmoid(-x_star)))


def _partly_observed_counts(rng, n):
    """Random counts in which some centers and some other contexts were
    never observed (all-zero rows, and all-zero columns elsewhere)."""
    mat = rng.integers(0, 40, size=(n, n))
    nodes = rng.permutation(n)
    mat[nodes[:2], :] = 0
    mat[:, nodes[2:5]] = 0
    return CooccurrenceCounts(mat), nodes[:2], nodes[2:5]


class TestObservedSupport:
    @pytest.mark.parametrize("seed, n, d, k", [(0, 9, 2, 1), (1, 12, 3, 5), (2, 20, 8, 3)])
    def test_matches_the_dense_formulas(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        counts, unseen_rows, unseen_cols = _partly_observed_counts(rng, n)
        pair = _random_pair(rng, n, d)

        value, reference = sgns_objective(counts, pair, k), _dense_objective(counts, pair, k)
        assert abs(value - reference) <= 1e-12 * abs(reference)

        grad_w, grad_h = sgns_objective_gradient(counts, pair, k)
        ref_w, ref_h = _dense_gradient(counts, pair, k)
        assert np.abs(grad_w - ref_w).max() <= 1e-12
        assert np.abs(grad_h - ref_h).max() <= 1e-12
        for grad in (grad_w[unseen_rows], ref_w[unseen_rows], grad_h[unseen_cols], ref_h[unseen_cols]):
            assert np.all(grad == 0.0)

        bound, ref_bound = sgns_objective_upper_bound(counts, k), _dense_upper_bound(counts, k)
        assert abs(bound - ref_bound) <= 1e-12 * abs(ref_bound)

    def test_unobserved_rows_do_not_enter_the_objective(self):
        rng = np.random.default_rng(3)
        counts, unseen_rows, unseen_cols = _partly_observed_counts(rng, 10)
        pair = _random_pair(rng, 10, 4)
        w, h = pair.w.copy(), pair.h.copy()
        w[unseen_rows] = rng.normal(scale=50.0, size=(len(unseen_rows), 4))
        h[unseen_cols] = rng.normal(scale=50.0, size=(len(unseen_cols), 4))
        perturbed = EmbeddingPair(w=w, h=h)
        assert sgns_objective(counts, perturbed, 2) == sgns_objective(counts, pair, 2)

    @pytest.mark.parametrize("evaluate", [
        lambda counts, pair: sgns_objective(counts, pair, 1),
        lambda counts, pair: sgns_objective_gradient(counts, pair, 1),
        lambda counts, pair: sgns_objective_upper_bound(counts, 1),
    ], ids=["objective", "gradient", "upper_bound"])
    def test_empty_counts_rejected(self, evaluate):
        counts = CooccurrenceCounts(np.zeros((3, 3), dtype=np.int64))
        pair = EmbeddingPair(w=np.zeros((3, 2)), h=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="counts are empty"):
            evaluate(counts, pair)


class TestScalarCriticalPoint:
    def test_shifted_pmi_is_the_per_pair_maximum(self):
        # l(x) = C log sigma(x) + N log sigma(-x) peaks at x* = log(C/N),
        # which is exactly PMI - log k when N = k #(v) #(c) / |D|.
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            counts = _random_counts(rng, n)
            k = int(rng.integers(1, 6))
            v, c = (int(x) for x in rng.integers(0, n, size=2))
            joint = int(counts.dense[v, c])
            noise_mass = k * counts.node_counts[v] * counts.context_counts[c] / counts.total
            x_star = math.log(joint * counts.total
                              / (counts.node_counts[v] * counts.context_counts[c])) - math.log(k)

            def ell(x):
                return joint * _log_sigmoid(x) + noise_mass * _log_sigmoid(-x)

            h = 1e-4
            derivative = (ell(x_star + h) - ell(x_star - h)) / (2 * h)
            assert abs(derivative) < 1e-6
            assert ell(x_star) > ell(x_star + 0.1)
            assert ell(x_star) > ell(x_star - 0.1)


def _random_symmetric_counts(n=40, seed=2):
    mat = np.random.default_rng(seed).integers(1, 6, size=(n, n))
    return CooccurrenceCounts(mat + mat.T)


def _star_counts(leaves=9, per_pair=20):
    # Node 0 is the hub: it is the context of half of all pairs, so it
    # holds half the noise mass.
    mat = np.zeros((leaves + 1, leaves + 1), dtype=np.int64)
    mat[0, 1:] = mat[1:, 0] = per_pair
    return CooccurrenceCounts(mat)


def _mean_error_to_shifted_pmi(counts, pair, k):
    """Mean |dot - (PMI - log k)| over the pairs with a nonzero count."""
    v, c = np.nonzero(counts.dense)
    target = np.log(counts.dense[v, c] * counts.total
                    / (counts.node_counts[v] * counts.context_counts[c])) - math.log(k)
    return np.mean(np.abs(dot_matrix(pair)[v, c] - target))


class TestTrainSgns:
    def test_objective_non_decreasing_across_epochs(self):
        for counts, cfg in [
            (_uniform_k3_counts(),
             TrainConfig(dim=3, negatives=2, epochs=8, learning_rate=0.05, seed=3)),
            (_random_symmetric_counts(),
             TrainConfig(dim=40, negatives=1, epochs=40, learning_rate=0.05, seed=3)),
        ]:
            result = train_sgns(counts, cfg)
            history = result.objective_per_epoch
            assert len(history) == cfg.epochs + 1
            for before, after in zip(history, history[1:]):
                assert after >= before - 1e-3 * abs(before)

    def test_k3_dot_products_converge_to_shifted_pmi(self):
        counts = _uniform_k3_counts()
        cfg = TrainConfig(dim=3, negatives=1, epochs=100, learning_rate=0.05, seed=1)
        result = train_sgns(counts, cfg)
        dots = dot_matrix(result.embeddings)
        off = dots[~np.eye(3, dtype=bool)]
        assert np.mean(np.abs(off - math.log(1.5))) <= 0.1

    def test_same_seed_bitwise_identical(self):
        for counts, cfg in [
            (_uniform_k3_counts(),
             TrainConfig(dim=2, negatives=2, epochs=3, learning_rate=0.05, seed=9)),
            (_random_symmetric_counts(),
             TrainConfig(dim=8, negatives=2, epochs=2, learning_rate=0.05, seed=9)),
        ]:
            first = train_sgns(counts, cfg)
            second = train_sgns(counts, cfg)
            assert np.array_equal(first.embeddings.w, second.embeddings.w)
            assert np.array_equal(first.embeddings.h, second.embeddings.h)
            assert first.objective_per_epoch == second.objective_per_epoch

    @pytest.mark.parametrize("k", [1, 3])
    def test_steps_with_the_tested_gradient(self, k):
        # Adam replayed on the whole embedding from sgns_objective_gradient:
        # the rows the counts never observed get a zero gradient, so they
        # keep their initial values here as in train_sgns.
        rng = np.random.default_rng(k)
        counts, unseen_rows, unseen_cols = _partly_observed_counts(rng, 12)
        cfg = TrainConfig(dim=3, negatives=k, epochs=2, learning_rate=0.05, seed=4)
        result = train_sgns(counts, cfg)

        init = np.random.default_rng(cfg.seed)
        scale = cfg.resolved_init_scale
        w = init.uniform(-scale, scale, size=(12, 3))
        h = init.uniform(-scale, scale, size=(12, 3))
        start_w, start_h = w.copy(), h.copy()
        first = (np.zeros_like(w), np.zeros_like(h))
        second = (np.zeros_like(w), np.zeros_like(h))
        total_steps = cfg.epochs * STEPS_PER_EPOCH
        for step in range(total_steps):
            grads = sgns_objective_gradient(counts, EmbeddingPair(w=w, h=h), k)
            rate = cfg.learning_rate * max(1.0 - step / total_steps, LR_FLOOR_RATIO)
            for b, g, m, s in zip((w, h), grads, first, second):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                s *= ADAM_BETA2
                s += (1.0 - ADAM_BETA2) * g * g
                b += (rate * (m / (1.0 - ADAM_BETA1 ** (step + 1)))
                      / (np.sqrt(s / (1.0 - ADAM_BETA2 ** (step + 1))) + ADAM_EPSILON))

        assert np.array_equal(result.embeddings.w, w)
        assert np.array_equal(result.embeddings.h, h)
        assert np.array_equal(w[unseen_rows], start_w[unseen_rows])
        assert np.array_equal(h[unseen_cols], start_h[unseen_cols])
        assert not np.array_equal(w, start_w)

    def test_zero_epochs_returns_seeded_initialization(self):
        counts = _uniform_k3_counts()
        cfg = TrainConfig(dim=4, negatives=1, epochs=0, seed=42)
        result = train_sgns(counts, cfg)
        rng = np.random.default_rng(42)
        scale = cfg.resolved_init_scale
        assert np.array_equal(result.embeddings.w, rng.uniform(-scale, scale, size=(3, 4)))
        assert np.array_equal(result.embeddings.h, rng.uniform(-scale, scale, size=(3, 4)))

    def test_objective_never_exceeds_per_pair_bound(self):
        for counts, cfg in [
            (_uniform_k3_counts(),
             TrainConfig(dim=3, negatives=1, epochs=60, learning_rate=0.05, seed=7)),
            # hub-heavy: the zero-count leaf pairs push their dots toward -inf
            (_star_counts(),
             TrainConfig(dim=4, negatives=2, epochs=20, learning_rate=0.05, seed=6)),
        ]:
            result = train_sgns(counts, cfg)
            assert np.all(np.isfinite(result.embeddings.w))
            assert np.all(np.isfinite(result.embeddings.h))
            assert result.final_objective > result.objective_per_epoch[0]
            bound = sgns_objective_upper_bound(counts, cfg.negatives)
            assert result.final_objective <= bound + 1e-6

    def test_empty_counts_rejected(self):
        counts = CooccurrenceCounts(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            train_sgns(counts, TrainConfig(dim=2))

    @pytest.mark.parametrize("changes, message", [
        ({"learning_rate": math.nan}, "learning_rate must be finite"),
        ({"learning_rate": math.inf}, "learning_rate must be finite"),
        ({"learning_rate": 10 ** 400}, "learning_rate must be finite"),
        ({"init_scale": math.nan}, "init_scale must be > 0 and at most"),
        ({"init_scale": math.inf}, "init_scale must be > 0 and at most"),
        ({"init_scale": np.finfo(float).max}, "init_scale must be > 0 and at most"),
    ], ids=["lr-nan", "lr-inf", "lr-huge-int", "init-scale-nan", "init-scale-inf",
            "init-scale-float-max"])
    def test_config_rejects_floats_training_cannot_use(self, changes, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(dim=2, **changes)

    def test_largest_init_scale_still_draws(self):
        # uniform(-s, s) draws while its width 2s is a finite float.
        scale = np.finfo(float).max / 2
        rng = np.random.default_rng(0)
        assert np.isfinite(rng.uniform(-scale, scale, size=4)).all()
        assert TrainConfig(dim=2, init_scale=float(scale)).init_scale == scale

    @pytest.mark.parametrize("cfg, epoch", [
        (TrainConfig(dim=2, negatives=1, epochs=3, learning_rate=1e300, seed=1), 1),
        (TrainConfig(dim=2, negatives=1, epochs=3, init_scale=1e154, seed=1), 0),
    ], ids=["step-size", "init-scale"])
    def test_names_the_first_epoch_whose_objective_is_not_finite(self, cfg, epoch):
        with pytest.raises(ValueError, match=f"objective is nan at epoch {epoch};"):
            train_sgns(_uniform_k3_counts(), cfg)

    def test_full_dimension_all_positive_counts_reach_closed_form(self):
        # With d = n and every count positive, trained dot products approach
        # PMI - log k entrywise.
        mat = np.random.default_rng(2).integers(20, 60, size=(4, 4))
        for counts, cfg, tolerance in [
            (CooccurrenceCounts(mat + mat.T),  # symmetric, all positive
             TrainConfig(dim=4, negatives=1, epochs=150, learning_rate=0.05, seed=5), 0.1),
            (_random_symmetric_counts(),
             TrainConfig(dim=40, negatives=1, epochs=40, learning_rate=0.05, seed=3), 0.15),
        ]:
            # what the near-zero initial dot products miss by
            zeros = EmbeddingPair(w=np.zeros((counts.n, 1)), h=np.zeros((counts.n, 1)))
            assert _mean_error_to_shifted_pmi(counts, zeros, cfg.negatives) > tolerance
            result = train_sgns(counts, cfg)
            assert _mean_error_to_shifted_pmi(counts, result.embeddings, cfg.negatives) <= tolerance

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.integers(6, 10), st.integers(0, 10**6), st.sampled_from([1, 3]),
           st.sampled_from([2, 5]))
    def test_random_graphs_reach_the_masked_shifted_pmi(self, n, seed, k, window):
        # The paper's claim across graphs: at d = n, training on long-walk
        # counts drives the dot product of every pair with a nonzero count
        # to log(#(v,c) |D| / (#(v) #(c))) - log k. Window 2 leaves pairs
        # further apart than 2 steps at zero count; window 5 seldom does.
        graph = random_connected_graph(n, seed)
        counts = sample_counts(graph, SamplerConfig(window=window, centers=200_000,
                                                    seed=seed))
        cfg = TrainConfig(dim=n, negatives=k, epochs=20, learning_rate=0.05, seed=seed)
        result = train_sgns(counts, cfg)
        history = result.objective_per_epoch
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-3 * abs(before)
        assert _mean_error_to_shifted_pmi(counts, result.embeddings, k) <= 0.05


class TestDotVsShiftedPmi:
    @pytest.mark.parametrize("seed, n, d, k", [(0, 9, 2, 1), (1, 12, 3, 5), (2, 20, 8, 3)])
    def test_matches_the_dense_masked_route(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        counts, _, _ = _partly_observed_counts(rng, n)
        pair = _random_pair(rng, n, d)
        report = dot_vs_shifted_pmi(counts, pair, k)
        reference = compare_matrices(
            dot_matrix(pair), sgns_target_from_counts(counts, k=k, zero_policy="mask").values)
        assert (report.compared, report.excluded) == (reference.compared, reference.excluded)
        assert report.compared == np.count_nonzero(counts.dense)
        assert report.max_abs == pytest.approx(reference.max_abs, rel=1e-12)
        assert report.mean_abs == pytest.approx(reference.mean_abs, rel=1e-12)


def _nonzero_route(counts, pair, k):
    """The reports as the nonzero pairs of np.nonzero(counts.dense) give
    them, with each pair's dot product gathered from the observed block."""
    v, c = np.nonzero(counts.dense)
    pos = counts.dense[v, c].astype(float)
    neg = k * counts.node_counts[v].astype(float) * counts.context_counts[c] / counts.total
    x_star = np.log(pos / neg)
    bound = float(np.sum(pos * _log_sigmoid(x_star) + neg * _log_sigmoid(-x_star)))
    rows, cols = np.flatnonzero(counts.node_counts), np.flatnonzero(counts.context_counts)
    block = pair.w[rows] @ pair.h[cols].T
    report = compare_matrices(block[np.searchsorted(rows, v), np.searchsorted(cols, c)], x_star)
    return bound, replace(report, excluded=counts.n ** 2 - report.compared)


def _directed_counts(seed):
    """Asymmetric counts from a short walk on a digraph."""
    graph = random_strongly_connected_digraph(80, seed)
    return sample_counts(graph, SamplerConfig(window=2, centers=150, seed=seed))


class TestReportsOverTheBlock:
    @pytest.mark.parametrize("source, seed, k", [
        ("partly-observed", 0, 1), ("partly-observed", 1, 5),
        ("directed", 2, 1), ("directed", 3, 5),
    ])
    def test_same_bits_as_the_nonzero_route(self, source, seed, k):
        rng = np.random.default_rng(seed)
        if source == "partly-observed":
            counts, _, _ = _partly_observed_counts(rng, 40)
        else:
            counts = _directed_counts(seed)
            assert not counts.is_symmetric()
            assert 0 < np.count_nonzero(counts.node_counts) < counts.n
        pair = _random_pair(rng, counts.n, 4)
        bound, report = _nonzero_route(counts, pair, k)
        assert sgns_objective_upper_bound(counts, k) == bound
        assert dot_vs_shifted_pmi(counts, pair, k) == report


class TestDotMatrix:
    def test_identity_rows(self):
        pair = EmbeddingPair(w=np.eye(3), h=np.eye(3))
        assert np.array_equal(dot_matrix(pair), np.eye(3))

    def test_one_dimensional(self):
        pair = EmbeddingPair(w=np.array([[2.0]]), h=np.array([[3.0]]))
        assert dot_matrix(pair).tolist() == [[6.0]]
