import csv
import hashlib
import io
import os
import pickle
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import (
    cycle,
    k2,
    path3,
    random_connected_graph,
    random_strongly_connected_digraph,
    triangle,
)
from walkmf import (
    CooccurrenceCounts,
    Graph,
    SamplerConfig,
    Walk,
    default_sampler_config,
    empirical_conditional,
    empirical_frequency,
    extract_pairs,
    generate_walk,
    merge_counts,
    read_counts_csv,
    sample_counts,
    stationary_distribution,
    walk_probability_matrix,
    write_counts_csv,
    write_counts_sidecar,
)
from walkmf import parallel, sampling
from walkmf.cli import main

# chi-square critical value, 1 degree of freedom, alpha = 0.001
CHI2_1DOF_P001 = 10.828


class TestSamplerConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SamplerConfig(window=0, centers=1)

    def test_rejects_fixed_without_node(self):
        with pytest.raises(ValueError):
            SamplerConfig(window=1, centers=1, start_mode="fixed")

    @pytest.mark.parametrize("start_mode", ["stationary", "uniform"])
    def test_rejects_node_without_fixed_mode(self, start_mode):
        with pytest.raises(ValueError, match=f"got start_mode '{start_mode}', start_node 2"):
            SamplerConfig(window=1, centers=1, start_mode=start_mode, start_node=2)

    def test_round_trips_through_dict(self):
        cfg = SamplerConfig(window=3, centers=10, seed=9, burn_in=5, workers=2)
        assert SamplerConfig(**asdict(cfg)) == cfg

    def test_defaults_follow_directedness(self):
        und = default_sampler_config(path3(), window=2, centers=10)
        assert und.start_mode == "stationary" and und.burn_in == 0
        from graphgen import cycle
        dire = default_sampler_config(cycle(3, directed=True), window=2, centers=10)
        assert dire.start_mode == "uniform" and dire.burn_in == 1000


class TestGenerateWalk:
    def test_k2_alternates(self):
        cfg = SamplerConfig(window=1, centers=6, seed=11, start_mode="fixed", start_node=0)
        walk = generate_walk(k2(), cfg)
        assert walk.nodes.tolist() == [0, 1, 0, 1, 0, 1, 0]

    def test_same_seed_same_walk(self):
        cfg = SamplerConfig(window=2, centers=50, seed=123)
        first = generate_walk(path3(), cfg)
        second = generate_walk(path3(), cfg)
        assert np.array_equal(first.nodes, second.nodes)

    def test_length_is_burn_in_plus_centers_plus_window(self):
        cfg = SamplerConfig(window=3, centers=7, seed=0, burn_in=5)
        assert len(generate_walk(path3(), cfg)) == 5 + 7 + 3

    def test_disconnected_rejected(self):
        from walkmf import GraphStructureError, parse_edge_list
        with pytest.raises(GraphStructureError, match="connected"):
            generate_walk(parse_edge_list("0 1\n2 3\n"), SamplerConfig(window=1, centers=1))

    def test_fixed_start_out_of_range(self):
        cfg = SamplerConfig(window=1, centers=1, start_mode="fixed", start_node=99)
        with pytest.raises(ValueError, match="out of range"):
            generate_walk(path3(), cfg)

    def test_first_step_from_path_center_is_unbiased(self):
        # Start at node 1 of 0-1-2; the next node must be 0 or 2 with equal
        # probability. Chi-square over 10^4 independent walks, p > 0.001.
        hits = {0: 0, 2: 0}
        for seed in range(10_000):
            cfg = SamplerConfig(window=1, centers=1, seed=seed,
                                start_mode="fixed", start_node=1)
            walk = generate_walk(path3(), cfg)
            hits[int(walk.nodes[1])] += 1
        expected = 5000.0
        chi2 = sum((obs - expected) ** 2 / expected for obs in hits.values())
        assert chi2 < CHI2_1DOF_P001

    def test_matches_one_step_at_a_time_reference(self):
        # This ~198k-step walk fits in one chunk of uniforms and has enough
        # segments to be stepped as guesses spliced by the exact pass; it
        # must equal one uniform per step from the same stream, each picking
        # among the sorted neighbours taken from the edge list.
        g = random_connected_graph(12, seed=5, extra_edges=10)
        neighbours = [[] for _ in range(g.n)]
        for u, v in g.edges:
            neighbours[u].append(v)
            neighbours[v].append(u)
        neighbours = [sorted(row) for row in neighbours]
        cfg = SamplerConfig(window=2, centers=3 * (1 << 16) + 1234, seed=17,
                            start_mode="fixed", start_node=4)
        rng = np.random.default_rng(cfg.seed)
        cur = cfg.start_node
        expected = [cur]
        for _ in range(cfg.centers + cfg.window - 1):
            row = neighbours[cur]
            cur = row[int(rng.random() * len(row))]
            expected.append(cur)
        assert generate_walk(g, cfg).nodes.tolist() == expected

    @pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_walk_is_held_in_the_narrowest_id_type(self, n, dtype):
        # Node 255 is the last one a byte holds; on 257 nodes the walk that
        # reaches node 256 needs two.
        g = cycle(n)
        cfg = SamplerConfig(window=1, centers=600, seed=2, start_mode="fixed", start_node=n - 2)
        walk = generate_walk(g, cfg)
        assert walk.nodes.dtype == dtype
        assert walk.nodes.tolist() == _reference_walk(g, cfg)
        assert int(walk.nodes.max()) == n - 1

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(1, 3))
    def test_every_consecutive_pair_is_an_edge(self, seed, n, window):
        g = random_connected_graph(n, seed)
        edge_set = {frozenset(e) for e in g.edges}
        cfg = SamplerConfig(window=window, centers=50, seed=seed)
        walk = generate_walk(g, cfg)
        for a, b in zip(walk.nodes[:-1], walk.nodes[1:]):
            assert frozenset((int(a), int(b))) in edge_set


def _reference_walk(g, cfg):
    """One uniform per step from the seeded stream, each picking among the
    sorted out-neighbours taken from the edge list, after the start node is
    drawn from the same stream."""
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        if not g.directed:
            neighbours[v].append(u)
    neighbours = [sorted(row) for row in neighbours]
    rng = np.random.default_rng(cfg.seed)
    if cfg.start_mode == "fixed":
        cur = cfg.start_node
    elif cfg.start_mode == "uniform":
        cur = int(rng.integers(g.n))
    else:
        cur = int(rng.choice(g.n, p=stationary_distribution(g)))
    expected = [cur]
    for _ in range(cfg.burn_in + cfg.centers + cfg.window - 1):
        row = neighbours[cur]
        cur = row[int(rng.random() * len(row))]
        expected.append(cur)
    return expected


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 1000 uniforms in 16-step segments, guessed from 4 segments
    on; yields the start node of every guess pass."""
    monkeypatch.setattr(sampling, "_WALK_CHUNK", 1000)
    monkeypatch.setattr(sampling, "_SEGMENT", 16)
    monkeypatch.setattr(sampling, "_MIN_GUESSED_SEGMENTS", 4)
    monkeypatch.setattr(sampling, "_GUESS_PIECE", 5)
    starts = []
    guess = sampling._guess_segments

    def spy(g, start, uniforms, out):
        starts.append(start)
        return guess(g, start, uniforms, out)

    monkeypatch.setattr(sampling, "_guess_segments", spy)
    return starts


class TestGuessedWalk:
    # Six chunks of 1000 steps, each 62 full 16-step segments and an 8-step
    # tail, then a last chunk of 4 steps, too short to guess.
    STEPS = 6004

    @pytest.mark.parametrize("g", [random_connected_graph(12, seed=5, extra_edges=10),
                                   random_strongly_connected_digraph(12, seed=3, extra_edges=40)],
                             ids=["undirected", "directed"])
    def test_guessed_chunks_match_one_step_at_a_time_reference(self, small_chunks, g):
        cfg = SamplerConfig(window=3, centers=self.STEPS - 2, seed=17,
                            start_mode="fixed", start_node=4)
        walk = generate_walk(g, cfg).nodes.tolist()
        assert walk == _reference_walk(g, cfg)
        # Every long chunk was guessed, so every exact pass walked at most
        # half its chunk: guesses met and were kept.
        assert small_chunks == [walk[lo - 1] for lo in range(1, 6001, 1000)]

    @pytest.mark.parametrize("g", [cycle(7, directed=True), cycle(40)],
                             ids=["directed-cycle", "even-cycle"])
    def test_guesses_that_rarely_meet_stop_after_one_chunk(self, small_chunks, monkeypatch, g):
        # A directed cycle's guess meets the walk only where the segment
        # offset is a multiple of n; on a cycle both walkers take the same
        # direction from the same uniform except at the wrap-around, so
        # guesses rarely close the gap. The exact pass stops comparing after
        # the chunk's first _MIN_GUESSED_SEGMENTS guessed segments.
        compared = []
        seek = sampling._step_to_guess

        def spy(cur, rng, guesses, *rule):
            compared.append(len(guesses))
            return seek(cur, rng, guesses, *rule)

        monkeypatch.setattr(sampling, "_step_to_guess", spy)
        cfg = SamplerConfig(window=3, centers=self.STEPS - 2, seed=17,
                            start_mode="fixed", start_node=2)
        assert generate_walk(g, cfg).nodes.tolist() == _reference_walk(g, cfg)
        assert small_chunks == [2]
        assert sum(compared) == sampling._MIN_GUESSED_SEGMENTS * sampling._SEGMENT

    @pytest.mark.parametrize("g", [random_connected_graph(12, seed=5, extra_edges=10),
                                   random_strongly_connected_digraph(12, seed=3, extra_edges=40)],
                             ids=["undirected", "directed"])
    def test_lockstep_pieces_with_a_short_last_piece(self, small_chunks, monkeypatch, g):
        # Pieces of 5 steps leave a short last piece in the 4-step lead-in
        # and in the 16-step segment.
        monkeypatch.setattr(sampling, "_LOCKSTEP_PIECE", 5)
        cfg = SamplerConfig(window=3, centers=self.STEPS - 2, seed=17,
                            start_mode="fixed", start_node=4)
        walk = generate_walk(g, cfg).nodes.tolist()
        assert walk == _reference_walk(g, cfg)
        assert small_chunks == [walk[lo - 1] for lo in range(1, 6001, 1000)]

    @pytest.mark.parametrize("steps, guessed", [(4 * 16 - 1, []), (4 * 16, [0])],
                             ids=["63-steps", "64-steps"])
    def test_chunks_of_fewer_segments_are_not_guessed(self, small_chunks, steps, guessed):
        cfg = SamplerConfig(window=2, centers=steps - 1, seed=1,
                            start_mode="fixed", start_node=0)
        g = random_connected_graph(12, seed=5, extra_edges=10)
        assert generate_walk(g, cfg).nodes.tolist() == _reference_walk(g, cfg)
        assert small_chunks == guessed


class _Constant:
    """A stand-in generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u
        self.bit_generator = SimpleNamespace(state=None)

    def random(self, out):
        out.fill(self.u)
        return out


def _wheel(n):
    """Directed hub 0 -> 1..n-1, each i -> 0 and i -> i % (n - 1) + 1: the
    hub's out-degree n - 1 puts its steps' edges k/(n - 1) close together."""
    arcs = ([(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
            + [(i, i % (n - 1) + 1) for i in range(1, n)])
    return Graph(n=n, edges=tuple(arcs), directed=True)


class TestFloat32Guesses:
    def test_a_copy_rounded_to_one_is_clamped_onto_the_last_arc(self):
        # 1 - 2^-26 rounds to 1.0 in float32, which would step past a
        # node's last out-neighbour.
        g = random_strongly_connected_digraph(30, seed=3, extra_edges=60)
        size = 4 * sampling._SEGMENT
        copy = np.empty(size, dtype=np.float32)
        cuts = sampling._guess_uniforms(_Constant(1 - 2.0**-26), copy,
                                        *sampling._unsure_uniforms(g))
        assert copy.max() < 1
        # Every copy lies next to the edge at 1, so every step is unsure.
        assert cuts == list(range(size))
        out = np.zeros(size, dtype=np.min_scalar_type(g.n - 1))
        sampling._guess_segments(g, 0, copy, out)
        # Every guessed step is an arc: the last one out of its node.
        steps = out[sampling._SEGMENT:].reshape(-1, sampling._SEGMENT)
        for row in steps.tolist():
            assert all(v == g.indices[g.indptr[u + 1] - 1] for u, v in zip(row, row[1:]))

    @pytest.mark.parametrize("d", [2, 3, 7, 10, 999, 4999, 2**20 + 1])
    def test_every_copy_that_steps_elsewhere_is_unsure(self, d):
        # Uniforms within a few float32 spacings of the edges k/d of a
        # degree-d node: wherever the float32 copy, clamped below 1, picks
        # another out-neighbour than the float64 uniform, the copy is unsure.
        ks = np.unique(np.linspace(1, d, num=min(d, 200)).astype(np.int64))
        offsets = np.arange(-300, 301) * 2.0**-30
        u = (ks[:, None] / d + offsets).ravel()
        u = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1)])
        u = u[(u >= 0) & (u < 1)]
        copy = np.minimum(u.astype(np.float32), sampling._BELOW_ONE)
        # The guess pass multiplies in float64, as the exact pass does.
        elsewhere = np.floor(copy.astype(np.float64) * d) != np.floor(u * d)
        assert elsewhere.any()
        unsure, table = sampling._unsure_uniforms(SimpleNamespace(degrees=np.array([d])))
        assert np.isin(copy[elsewhere], unsure).all()
        # The scan finds them through the bins of the float64 uniforms.
        assert table[(u[elsewhere] * sampling._UNSURE_BINS).astype(np.intp)].all()

    def test_unsure_steps_are_walked_exactly(self):
        # At the hub of out-degree 19,999 one float32 copy in ~200 is unsure,
        # so a met guess that were kept past one would often leave the walk.
        g = _wheel(20_000)
        cfg = SamplerConfig(window=1, centers=60_000, seed=1, start_mode="fixed", start_node=0)
        assert generate_walk(g, cfg).nodes.tolist() == _reference_walk(g, cfg)

    @pytest.mark.parametrize("start_mode", ["uniform", "stationary"])
    @pytest.mark.parametrize("g", [cycle(301, directed=True),
                                   random_strongly_connected_digraph(300, seed=21,
                                                                     extra_edges=900)],
                             ids=["directed-cycle", "digraph"])
    def test_chunks_match_one_step_at_a_time_reference(self, monkeypatch, g, start_mode):
        # Chunks of 24 segments and 7 steps, with the burn-in past the first
        # one: on the cycle the walk stops guessing within the first chunk,
        # and on the digraph most uniforms of every chunk are skipped.
        monkeypatch.setattr(sampling, "_WALK_CHUNK", 24 * sampling._SEGMENT + 7)
        cfg = SamplerConfig(window=3, centers=100_000, seed=5, start_mode=start_mode,
                            burn_in=60_000)
        assert generate_walk(g, cfg).nodes.tolist() == _reference_walk(g, cfg)


class TestLongWalk:
    # A directed graph of walk-train's size (300 nodes, 1200 arcs) at t = 5
    # and L = 2^21 with one worker and the default burn-in: two full chunks
    # of uniforms and a short third one.
    GRAPH = random_strongly_connected_digraph(300, seed=21, extra_edges=900)
    CONFIG = default_sampler_config(GRAPH, window=5, centers=1 << 21)

    def test_exact_pass_walks_few_steps(self, monkeypatch):
        # With the lead-in, guesses have mostly met the walk before their
        # segment begins, so the exact pass walks little beyond each chunk's
        # first segment.
        walked = []
        for name in ("_step", "_step_to_guess"):
            def spy(*args, step=getattr(sampling, name)):
                path = step(*args)
                walked.append(len(path))
                return path
            monkeypatch.setattr(sampling, name, spy)
        walk = generate_walk(self.GRAPH, self.CONFIG)
        assert walk.nodes.dtype == np.min_scalar_type(self.GRAPH.n - 1) == np.uint16
        assert 0 < sum(walked) <= 0.03 * (len(walk) - 1)

    def test_sample_memory_is_bounded_per_walk_step(self):
        # The uint16 walk (2 bytes a step) and one chunk of float32 uniforms,
        # with 4 MiB for everything else. The pair codes of one block (8
        # bytes a center, 2 MiB) are built after the uniforms are freed.
        tracemalloc.start()
        try:
            sample_counts(self.GRAPH, self.CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * self.CONFIG.centers + 4 * sampling._WALK_CHUNK + 4 * 2**20

    def test_workers_in_one_process_hold_one_walk_at_a_time(self, monkeypatch):
        # Two workers of 2^21 centers each, walked one after the other in
        # this process: one uint16 walk, one chunk of float32 uniforms and
        # two count matrices, with 4 MiB for everything else. Holding both
        # walks, or one walk of 4 bytes a step, would pass the bound.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = replace(self.CONFIG, centers=2 * self.CONFIG.centers, workers=2)
        tracemalloc.start()
        try:
            sample_counts(self.GRAPH, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_walk = 2 * self.CONFIG.centers + 4 * sampling._WALK_CHUNK + 4 * 2**20
        assert peak <= 2 * 8 * self.GRAPH.n ** 2 + per_walk

    @pytest.mark.parametrize("cores", [1, 2], ids=["in-process", "forked"])
    def test_workers_hold_three_count_matrices(self, monkeypatch, cores):
        # Four workers on n = 1000 (7.6 MiB a count matrix). At the peak this
        # process holds the running total while it counts a worker's walk:
        # the walk's forward counts and one np.bincount result, or the
        # forward counts and their sum with the transpose. Besides them: one
        # walk (2 bytes a step, too short to be guessed) and one block of
        # pair codes (8 bytes a center), with 256 KiB for everything else.
        # Keeping every worker's counts until all are done would take five.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        g = random_connected_graph(1000, seed=8)
        cfg = SamplerConfig(window=5, centers=40_000, seed=3, workers=4)
        tracemalloc.start()
        try:
            sample_counts(g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_walk = (2 + 8) * (cfg.centers // cfg.workers + cfg.window)
        assert peak <= 3 * 8 * g.n ** 2 + per_walk + 2**18


class TestStationaryStart:
    def test_directed_pi_is_solved_once_for_every_worker(self, tmp_path, monkeypatch):
        # One core, so every worker's walk runs in this process and is counted.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []
        solve = sampling.stationary_distribution

        def counted(g, *args):
            calls.append(g.n)
            return solve(g, *args)

        monkeypatch.setattr(sampling, "stationary_distribution", counted)
        g = random_strongly_connected_digraph(30, seed=4, extra_edges=40)
        graph = tmp_path / "g.edges"
        graph.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        assert main(["sample", "-i", str(graph), "--directed", "--start-mode", "stationary",
                     "-t", "2", "-L", "3000", "--seed", "5", "--workers", "3",
                     "-o", str(tmp_path / "out")]) == 0
        assert calls == [30]

    def test_a_given_pi_draws_the_walk_a_solved_one_draws(self):
        g = random_strongly_connected_digraph(30, seed=4, extra_edges=40)
        cfg = SamplerConfig(window=2, centers=500, seed=9, start_mode="stationary", burn_in=10)
        given = generate_walk(g, cfg, stationary_distribution(g))
        assert np.array_equal(given.nodes, generate_walk(g, cfg).nodes)


def _reference_pairs(nodes, n, window, directed, burn_in, centers):
    """Pair counts one (center, offset) at a time."""
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(burn_in, burn_in + centers):
        for offset in range(1, window + 1):
            mat[nodes[i], nodes[i + offset]] += 1
            if not directed:
                mat[nodes[i + offset], nodes[i]] += 1
    return mat


class TestExtractPairs:
    @pytest.mark.parametrize("block", [1 << 18, 7], ids=["one-block", "blocks"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("window, burn_in", [(1, 0), (4, 11)])
    def test_matches_pair_by_pair_reference(self, monkeypatch, block, dtype, directed,
                                            window, burn_in):
        # With blocks of max(7, n*n) = 9 centers, 100 centers make eleven full
        # blocks and a partial one, and every window of 4 crosses a block edge.
        monkeypatch.setattr(sampling, "_PAIR_BLOCK", block)
        n, centers = 3, 100
        nodes = np.random.default_rng(window).integers(0, n, burn_in + centers + window)
        walk = Walk(nodes=nodes.astype(dtype), n=n, seed=0)
        counts = extract_pairs(walk, window, directed, burn_in, centers)
        assert counts.dense.tolist() == _reference_pairs(nodes.tolist(), n, window, directed,
                                                         burn_in, centers).tolist()

    def test_hand_enumeration_undirected(self):
        walk = Walk(nodes=np.array([0, 1, 0, 1]), n=2, seed=0)
        counts = extract_pairs(walk, window=1, directed=False, burn_in=0, centers=3)
        assert counts.dense.tolist() == [[0, 3], [3, 0]]
        assert counts.total == 6

    def test_hand_enumeration_directed(self):
        walk = Walk(nodes=np.array([0, 1, 0, 1]), n=2, seed=0)
        counts = extract_pairs(walk, window=1, directed=True, burn_in=0, centers=3)
        assert counts.dense.tolist() == [[0, 2], [1, 0]]
        assert counts.total == 3

    def test_total_is_2tL_undirected(self):
        cfg = SamplerConfig(window=3, centers=40, seed=5)
        walk = generate_walk(triangle(), cfg)
        counts = extract_pairs(walk, window=3, directed=False, burn_in=0, centers=40)
        assert counts.total == 2 * 3 * 40

    def test_burn_in_shifts_the_center_range(self):
        walk = Walk(nodes=np.array([0, 1, 0, 1, 0]), n=2, seed=0)
        counts = extract_pairs(walk, window=1, directed=True, burn_in=2, centers=2)
        # centers are positions 2 and 3: pairs (0,1) and (1,0)
        assert counts.dense.tolist() == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_holds_one_block_of_codes(self, directed):
        # n = 512 makes a block of max(_PAIR_BLOCK, n*n) = 2^18 centers, so
        # 2.5 blocks take three. Above the walk: one block of int64 codes
        # (2 MiB), the forward counts and one np.bincount result or the sum
        # with the transpose (2 MiB each), with 256 KiB for everything else.
        # A fresh code array for each offset would take 2 MiB more.
        n, window = 512, 3
        block = max(sampling._PAIR_BLOCK, n * n)
        centers = 5 * block // 2
        nodes = np.random.default_rng(2).integers(0, n, centers + window, dtype=np.uint16)
        walk = Walk(nodes=nodes, n=n, seed=0)
        tracemalloc.start()
        try:
            counts = extract_pairs(walk, window, directed, 0, centers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.total == (1 if directed else 2) * window * centers
        assert peak <= 8 * block + 2 * 8 * n * n + 2**18

    def test_no_centers_make_no_pairs(self):
        walk = Walk(nodes=np.array([0, 1, 0], dtype=np.uint8), n=2, seed=0)
        counts = extract_pairs(walk, window=2, directed=False, burn_in=1, centers=0)
        assert counts.dense.tolist() == [[0, 0], [0, 0]]

    def test_walk_too_short_rejected(self):
        walk = Walk(nodes=np.array([0, 1]), n=2, seed=0)
        with pytest.raises(ValueError, match="positions"):
            extract_pairs(walk, window=2, directed=False, burn_in=0, centers=3)


@st.composite
def _sampling_case(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 9))
    window = draw(st.integers(1, 4))
    centers = draw(st.integers(1, 200))
    return random_connected_graph(n, seed), SamplerConfig(window=window, centers=centers, seed=seed)


class TestCountInvariants:
    @settings(deadline=None, max_examples=40)
    @given(_sampling_case())
    def test_marginals_are_consistent(self, case):
        g, cfg = case
        counts = sample_counts(g, cfg)
        dense = counts.dense
        assert np.array_equal(dense.sum(axis=1), counts.node_counts)
        assert np.array_equal(dense.sum(axis=0), counts.context_counts)
        assert counts.node_counts.sum() == counts.total
        assert counts.total == 2 * cfg.window * cfg.centers

    @settings(deadline=None, max_examples=40)
    @given(_sampling_case())
    def test_undirected_counts_symmetric(self, case):
        g, cfg = case
        counts = sample_counts(g, cfg)
        assert counts.is_symmetric()

    @settings(deadline=None, max_examples=20)
    @given(_sampling_case())
    def test_deterministic(self, case):
        g, cfg = case
        assert np.array_equal(sample_counts(g, cfg).dense, sample_counts(g, cfg).dense)

    def test_directed_total_is_tL(self):
        from graphgen import cycle
        g = cycle(4, directed=True)
        cfg = SamplerConfig(window=3, centers=25, seed=2, start_mode="uniform", burn_in=10)
        assert sample_counts(g, cfg).total == 3 * 25


class TestSampleCounts:
    def test_k2_forced_counts(self):
        cfg = SamplerConfig(window=1, centers=1000, seed=0)
        counts = sample_counts(k2(), cfg)
        assert counts.dense.tolist() == [[0, 1000], [1000, 0]]
        assert counts.total == 2000

    def test_workers_split_is_deterministic_and_consistent(self):
        g = triangle()
        cfg4 = SamplerConfig(window=2, centers=2001, seed=77, workers=4)
        counts_a = sample_counts(g, cfg4)
        counts_b = sample_counts(g, cfg4)
        assert np.array_equal(counts_a.dense, counts_b.dense)
        assert counts_a.total == 2 * 2 * 2001
        single = sample_counts(g, SamplerConfig(window=2, centers=2001, seed=77))
        assert single.total == counts_a.total

    def test_worker_merge_converges_to_same_closed_form(self):
        g = path3()
        p = walk_probability_matrix(g, 2).probs
        for workers in (1, 4):
            cfg = SamplerConfig(window=2, centers=200_000, seed=5, workers=workers)
            emp = empirical_conditional(sample_counts(g, cfg))
            assert np.nanmax(np.abs(emp - p)) < 0.02

    def test_merge_is_order_independent(self):
        g = triangle()
        parts = [
            sample_counts(g, SamplerConfig(window=1, centers=100, seed=s))
            for s in (1, 2, 3)
        ]
        forward = merge_counts(parts)
        backward = merge_counts(parts[::-1])
        assert np.array_equal(forward.dense, backward.dense)

    @pytest.mark.parametrize("workers, digest", [
        (1, "7a22f5288709286474e71cab65f559e23dc55993b117126cbe7167700df32713"),
        (2, "600944d303c0d784f53b79d8b40ac5e18ab1f0648bdeed88744ba2bb68166d52"),
    ], ids=["workers-1", "workers-2"])
    def test_guessed_walks_keep_the_golden_counts(self, tmp_path, workers, digest):
        # Recorded before walks were guessed: every walk here is long enough
        # to be, and the counts.csv bytes must not change.
        g = random_strongly_connected_digraph(300, seed=21, extra_edges=900)
        graph = tmp_path / "g.edges"
        graph.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        out = tmp_path / "out"
        assert main(["sample", "-i", str(graph), "--directed", "-t", "3", "-L", "300000",
                     "--seed", "5", "--workers", str(workers), "-o", str(out)]) == 0
        assert hashlib.sha256((out / "counts.csv").read_bytes()).hexdigest() == digest


class TestEmpiricalStatistics:
    def test_k2_conditional_exact(self):
        counts = sample_counts(k2(), SamplerConfig(window=1, centers=500, seed=1))
        assert empirical_conditional(counts).tolist() == [[0, 1], [1, 0]]

    def test_k2_frequency_exact(self):
        counts = sample_counts(k2(), SamplerConfig(window=1, centers=500, seed=1))
        assert empirical_frequency(counts).tolist() == [0.5, 0.5]

    def test_path_frequency_matches_degree_fraction(self):
        counts = sample_counts(path3(), SamplerConfig(window=2, centers=200_000, seed=3))
        freq = empirical_frequency(counts)
        assert np.max(np.abs(freq - stationary_distribution(path3()))) < 0.01

    def test_path_conditional_matches_average_walk_matrix(self):
        counts = sample_counts(path3(), SamplerConfig(window=2, centers=200_000, seed=3))
        emp = empirical_conditional(counts)
        assert np.max(np.abs(emp - walk_probability_matrix(path3(), 2).probs)) < 0.01

    def test_triangle_frequency_uniform(self):
        counts = sample_counts(triangle(), SamplerConfig(window=1, centers=200_000, seed=9))
        assert np.max(np.abs(empirical_frequency(counts) - 1 / 3)) < 0.01

    def test_observed_rows_sum_to_one(self):
        counts = sample_counts(path3(), SamplerConfig(window=2, centers=1, seed=0))
        emp = empirical_conditional(counts)
        observed = counts.node_counts > 0
        assert np.allclose(emp[observed].sum(axis=1), 1.0)

    def test_degenerate_single_center_on_k2(self):
        counts = sample_counts(k2(), SamplerConfig(window=1, centers=1, seed=0))
        emp = empirical_conditional(counts)
        for row in emp[counts.node_counts > 0]:
            assert row.sum() == 1.0

    def test_unobserved_row_is_nan_not_fabricated(self):
        counts = CooccurrenceCounts(np.array([[0, 3, 0], [3, 0, 0], [0, 0, 0]]))
        emp = empirical_conditional(counts)
        assert np.isnan(emp[2]).all()
        assert np.isfinite(emp[:2]).all()

    def test_empty_counts_rejected(self):
        counts = CooccurrenceCounts(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            empirical_frequency(counts)

    def test_conditional_approaches_walk_matrix_as_length_grows(self):
        g = triangle()
        p = walk_probability_matrix(g, 2).probs
        distances = []
        for centers in (1000, 10_000, 100_000):
            counts = sample_counts(g, SamplerConfig(window=2, centers=centers, seed=21))
            distances.append(np.nanmax(np.abs(empirical_conditional(counts) - p)))
        assert distances[-1] < 0.01
        assert distances[-1] < distances[0]


def _csv_writer_counts(mat):
    """The counts file as csv.writer writes it, one row at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["v", "c", "count"])
    for v, c in zip(*np.nonzero(mat)):
        writer.writerow([int(v), int(c), int(mat[v, c])])
    return buffer.getvalue().encode()


def _runs_matrix(seed):
    # Rows of 0, 1, 2, 4 and hundreds of nonzero counts in random order, so
    # some slices hold only short runs and long runs cross slices.
    rng = np.random.default_rng(seed)
    n = 300
    mat = np.zeros((n, n), dtype=np.int64)
    for v, k in enumerate(rng.choice([0, 1, 1, 2, 2, 4, 250], size=n)):
        mat[v, rng.choice(n, size=k, replace=False)] = rng.integers(1, 10**6, size=k)
    mat[rng.integers(n), rng.integers(n)] = 2**31 + 7
    return mat


def _single_entry():
    mat = np.zeros((5, 5), dtype=np.int64)
    mat[3, 1] = 2**40
    return mat


class TestWriteCountsCsv:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("mat", [_runs_matrix(1), _runs_matrix(2), _single_entry(),
                                     np.zeros((4, 4), dtype=np.int64)],
                             ids=["mixed-runs-a", "mixed-runs-b", "single-entry", "all-zero"])
    def test_matches_csv_writer(self, tmp_path, monkeypatch, cores, mat):
        if cores > 1 and not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
            pytest.skip("needs os.fork and os.sched_getaffinity")
        # Slices of 40 rows, and every file split into `cores` blocks.
        monkeypatch.setattr(parallel, "available_cores", lambda: cores)
        monkeypatch.setattr(parallel, "_SPLIT_VALUES", 1)
        monkeypatch.setattr(parallel, "_SLICE_VALUES", 120)
        write_counts_csv(CooccurrenceCounts(mat), tmp_path / "counts.csv")
        assert (tmp_path / "counts.csv").read_bytes() == _csv_writer_counts(mat)


class TestCountsIO:
    def test_round_trip(self, tmp_path):
        cfg = SamplerConfig(window=2, centers=300, seed=8)
        counts = sample_counts(path3(), cfg)
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json", cfg)
        loaded, loaded_cfg = read_counts_csv(tmp_path / "counts.csv", tmp_path / "counts.json")
        assert np.array_equal(loaded.dense, counts.dense)
        assert loaded.total == counts.total
        assert loaded_cfg == cfg

    def test_total_mismatch_detected(self, tmp_path):
        cfg = SamplerConfig(window=1, centers=10, seed=8)
        counts = sample_counts(k2(), cfg)
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json", cfg)
        sidecar = (tmp_path / "counts.json").read_text().replace('"total": 20', '"total": 21')
        (tmp_path / "counts.json").write_text(sidecar)
        with pytest.raises(ValueError, match="total"):
            read_counts_csv(tmp_path / "counts.csv", tmp_path / "counts.json")

    def test_lf_and_crlf_files_load_alike(self, tmp_path):
        counts = CooccurrenceCounts(np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]]))
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json")
        crlf = (tmp_path / "counts.csv").read_bytes()
        assert b"\r\n" in crlf
        (tmp_path / "lf.csv").write_bytes(crlf.replace(b"\r\n", b"\n"))
        for name in ("counts.csv", "lf.csv"):
            loaded, _ = read_counts_csv(tmp_path / name, tmp_path / "counts.json")
            assert np.array_equal(loaded.dense, counts.dense)

    def test_rows_in_any_order_load(self, tmp_path):
        # write_counts_csv orders rows by (v, c); a file in another order
        # loads all the same, and a repeat in it is still found however far
        # apart its two rows are.
        counts = CooccurrenceCounts(np.array([[0, 2, 1], [2, 0, 0], [1, 0, 3]]))
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json")
        header, *rows = (tmp_path / "counts.csv").read_text().splitlines()
        (tmp_path / "reversed.csv").write_text("\n".join([header, *rows[::-1]]) + "\n")
        loaded, _ = read_counts_csv(tmp_path / "reversed.csv", tmp_path / "counts.json")
        assert np.array_equal(loaded.dense, counts.dense)
        (tmp_path / "repeat.csv").write_text("\n".join([header, *rows[::-1], rows[-1]]) + "\n")
        with pytest.raises(ValueError, match="repeat.csv: repeated"):
            read_counts_csv(tmp_path / "repeat.csv", tmp_path / "counts.json")

    def test_header_only_file_is_all_zero_counts(self, tmp_path):
        counts = CooccurrenceCounts(np.zeros((3, 3), dtype=np.int64))
        write_counts_csv(counts, tmp_path / "counts.csv")
        write_counts_sidecar(counts, tmp_path / "counts.json")
        assert (tmp_path / "counts.csv").read_bytes() == b"v,c,count\r\n"
        loaded, cfg = read_counts_csv(tmp_path / "counts.csv", tmp_path / "counts.json")
        assert loaded.n == 3 and loaded.total == 0
        assert not loaded.dense.any()
        assert cfg is None


class TestCountsValidation:
    @pytest.mark.parametrize("mat", [
        np.zeros((2, 3), dtype=np.int64),          # not square
        np.zeros(4, dtype=np.int64),               # not 2-D
        np.zeros((2, 2, 2), dtype=np.int64),       # not 2-D
        np.array([[0, -1], [1, 0]]),               # negative
        np.array([[0.0, 1.5], [1.5, 0.0]]),        # not integers
        np.array([[0, 2**62], [2**62, 0]]),        # total 2**63 wraps
    ])
    def test_constructor_rejects(self, mat):
        with pytest.raises(ValueError):
            CooccurrenceCounts(mat)

    def test_checks_hold_no_matrix_sized_temporary(self):
        # Every worker's counts, the merged total and every read are built
        # here; the checks may not allocate a byte per count beside them.
        n = 1000
        mat = np.ones((n, n), dtype=np.int64)
        tracemalloc.start()
        try:
            counts = CooccurrenceCounts(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.total == n * n
        assert peak < n * n

    def test_rejects_counts_whose_marginals_would_wrap(self):
        # Row 0 sums to 2^63, one past the int64 range.
        mat = np.array([[0, 2**62, 2**62], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match=r"2\*\*62"):
            CooccurrenceCounts(mat)

    def test_accepts_2_to_the_62_pairs(self):
        counts = CooccurrenceCounts(np.array([[0, 2**61], [2**61, 0]]))
        assert counts.total == 2**62

    def test_marginals_are_derived_from_the_matrix(self):
        counts = CooccurrenceCounts(np.array([[0, 2, 1], [3, 0, 0], [1, 0, 4]]))
        assert counts.n == 3
        assert counts.node_counts.tolist() == [3, 3, 5]
        assert counts.context_counts.tolist() == [4, 2, 5]
        assert counts.total == 11
        assert int(counts.dense[1, 0]) == 3 and int(counts.dense[0, 1]) == 2
        assert not counts.is_symmetric()
        with pytest.raises(ValueError):
            counts.dense[0, 0] = 1

    def test_merge_rejects_empty_list(self):
        with pytest.raises(ValueError, match="nothing"):
            merge_counts([])

    def test_merge_rejects_different_node_sets(self):
        parts = [CooccurrenceCounts(np.ones((n, n), dtype=np.int64)) for n in (2, 3)]
        with pytest.raises(ValueError, match="different node sets"):
            merge_counts(parts)

    def test_merge_sums_matrices(self):
        a = CooccurrenceCounts(np.array([[0, 1], [2, 0]]))
        b = CooccurrenceCounts(np.array([[3, 0], [1, 1]]))
        assert merge_counts([a, b]).dense.tolist() == [[3, 1], [3, 1]]

    def test_merge_takes_a_generator_and_leaves_its_parts_alone(self):
        parts = [CooccurrenceCounts(np.array([[0, 1], [2, 0]])) for _ in range(3)]
        assert merge_counts(p for p in parts).dense.tolist() == [[0, 3], [6, 0]]
        assert [p.total for p in parts] == [3, 3, 3]
        with pytest.raises(ValueError, match="nothing"):
            merge_counts(iter(()))

    def test_pickle_round_trip_stays_read_only_and_checked(self):
        counts = CooccurrenceCounts(np.array([[0, 2], [5, 1]]))
        back = pickle.loads(pickle.dumps(counts, protocol=pickle.HIGHEST_PROTOCOL))
        assert back.dense.tolist() == [[0, 2], [5, 1]]
        assert (back.total, back.node_counts.tolist()) == (8, [2, 6])
        with pytest.raises(ValueError):
            back.dense[0, 0] = 1
