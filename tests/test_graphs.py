import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import cycle, k2, path3, random_connected_graph, random_strongly_connected_digraph, triangle
from walkmf import (
    EdgeListError,
    Graph,
    GraphStructureError,
    check_connectivity,
    parse_edge_list,
    serialize_edge_list,
    stationary_distribution,
    transition_matrix,
)
from walkmf.graphs import is_probability_vector, is_row_stochastic


class TestParseEdgeList:
    def test_single_edge(self):
        g = parse_edge_list("0 1\n")
        assert g.n == 2
        assert g.edges == ((0, 1),)
        assert g.degrees.tolist() == [1, 1]

    def test_path_graph_degrees(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.degrees.tolist() == [1, 2, 1]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("0 1\n0 1\n")

    def test_reversed_duplicate_rejected_when_undirected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("0 1\n1 0\n")

    def test_reversed_pair_allowed_when_directed(self):
        g = parse_edge_list("0 1\n1 0\n", directed=True)
        assert g.edges == ((0, 1), (1, 0))

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            parse_edge_list("2 2\n")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")

    def test_non_integer_reports_line_number(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("a b\n")

    def test_comments_and_blank_lines_skipped(self):
        g = parse_edge_list("# header\n\n0 1\n# trailing\n")
        assert g.edges == ((0, 1),)

    def test_unmentioned_low_ids_become_isolated(self):
        g = parse_edge_list("0 3\n")
        assert g.n == 4
        assert g.degrees.tolist() == [1, 0, 0, 1]

    def test_accepts_file_object(self):
        g = parse_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n == 3

    def test_round_trip_is_fixed_point(self):
        text = "0 1\n1 2\n2 3\n0 3\n"
        first = parse_edge_list(text)
        second = parse_edge_list(serialize_edge_list(first))
        assert second == first
        assert serialize_edge_list(second) == serialize_edge_list(first)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10**6), st.integers(2, 14))
    def test_round_trip_random_graphs(self, seed, n):
        g = random_connected_graph(n, seed)
        assert parse_edge_list(serialize_edge_list(g), directed=g.directed) == g


class TestGraphInvariants:
    def test_edge_out_of_range_rejected(self):
        with pytest.raises(EdgeListError, match="outside"):
            Graph(n=2, edges=((0, 5),))

    @pytest.mark.parametrize("edges, directed, match", [
        (((0, 1), (1, 2), (0, 1)), False, r"duplicate edge \(0, 1\)"),
        (((0, 1), (1, 2), (1, 0)), False, r"duplicate edge \(1, 0\)"),
        (((0, 1), (1, 2), (0, 1)), True, r"duplicate edge \(0, 1\)"),
        (((0, 1), (2, 2)), False, "self-loop on node 2"),
        (((0, 1), (2, 2)), True, "self-loop on node 2"),
    ])
    def test_direct_construction_rejects(self, edges, directed, match):
        with pytest.raises(EdgeListError, match=match):
            Graph(n=3, edges=edges, directed=directed)

    def test_reversed_pair_accepted_when_directed(self):
        g = Graph(n=2, edges=((0, 1), (1, 0)), directed=True)
        assert g.degrees.tolist() == [1, 1]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.booleans())
    def test_arrays_match_edge_loop(self, seed, n, directed):
        # Reference: neighbour lists and transition rows built edge by edge.
        g = (random_strongly_connected_digraph if directed else random_connected_graph)(n, seed)
        nbrs = [[] for _ in range(n)]
        for u, v in g.edges:
            nbrs[u].append(v)
            if not directed:
                nbrs[v].append(u)
        mat = np.zeros((n, n))
        for u in range(n):
            assert g.indices[g.indptr[u]:g.indptr[u + 1]].tolist() == sorted(nbrs[u])
            assert g.degrees[u] == len(nbrs[u])
            for v in nbrs[u]:
                mat[u, v] = 1.0 / len(nbrs[u])
        assert np.array_equal(transition_matrix(g), mat)

    def test_degree_counts_incident_edges(self):
        g = triangle()
        assert g.degrees.tolist() == [2, 2, 2]

    def test_directed_degrees_are_out_degrees(self):
        g = parse_edge_list("0 1\n0 2\n1 2\n", directed=True)
        assert g.degrees.tolist() == [2, 1, 0]


class TestTransitionMatrix:
    def test_k2(self):
        assert transition_matrix(k2()).tolist() == [[0, 1], [1, 0]]

    def test_triangle(self):
        expected = [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]
        assert transition_matrix(triangle()).tolist() == expected

    def test_path(self):
        expected = [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
        assert transition_matrix(path3()).tolist() == expected

    def test_zero_degree_node_named_in_error(self):
        g = parse_edge_list("0 1\n0 2\n", directed=True)
        with pytest.raises(GraphStructureError, match="node 1"):
            transition_matrix(g)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.integers(2, 16))
    def test_rows_sum_to_one(self, seed, n):
        g = random_connected_graph(n, seed)
        assert is_row_stochastic(transition_matrix(g), tol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6), st.integers(2, 10))
    def test_rows_sum_to_one_directed(self, seed, n):
        g = random_strongly_connected_digraph(n, seed)
        assert is_row_stochastic(transition_matrix(g), tol=1e-12)


def _stationary_power_oracle(g, steps=40000):
    # Long-run average of the chain's distribution trajectory; independent of
    # the closed form and of the solver's averaging trick.
    mat = transition_matrix(g)
    x = np.full(g.n, 1.0 / g.n)
    acc = np.zeros(g.n)
    for _ in range(steps):
        x = x @ mat
        acc += x
    return acc / steps


class TestStationaryDistribution:
    def test_k2_symmetric(self):
        assert stationary_distribution(k2()).tolist() == [0.5, 0.5]

    def test_path_degree_formula(self):
        pi = stationary_distribution(path3())
        assert np.allclose(pi, [0.25, 0.5, 0.25], atol=1e-15)
        oracle = _stationary_power_oracle(path3())
        assert np.max(np.abs(pi - oracle)) < 1e-3

    def test_directed_cycle_uniform(self):
        pi = stationary_distribution(cycle(3, directed=True))
        assert np.allclose(pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_disconnected_rejected(self):
        g = parse_edge_list("0 1\n2 3\n")
        with pytest.raises(GraphStructureError, match="connected"):
            stationary_distribution(g)

    def test_directed_not_strongly_connected_rejected(self):
        g = parse_edge_list("0 1\n", directed=True)
        with pytest.raises(GraphStructureError, match="strongly connected"):
            stationary_distribution(g)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10**6), st.integers(2, 12))
    def test_undirected_equals_degree_fraction_and_is_fixed_point(self, seed, n):
        g = random_connected_graph(n, seed)
        pi = stationary_distribution(g)
        deg = g.degrees
        assert np.array_equal(pi, deg / deg.sum())
        assert is_probability_vector(pi)
        assert np.max(np.abs(pi @ transition_matrix(g) - pi)) < 1e-10

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.integers(2, 10))
    def test_directed_fixed_point(self, seed, n):
        g = random_strongly_connected_digraph(n, seed)
        pi = stationary_distribution(g)
        assert is_probability_vector(pi, tol=1e-9)
        assert np.max(np.abs(pi @ transition_matrix(g) - pi)) < 1e-10

    def test_directed_given_transition_matrix_gives_the_same_bytes(self):
        g = random_strongly_connected_digraph(30, seed=4)
        pi = stationary_distribution(g)
        assert stationary_distribution(g, transition_matrix(g)).tobytes() == pi.tobytes()

    def test_directed_periodic_chain_converges(self):
        # Period-2 chain (bipartite between {0,1} and {2,3}) with non-uniform
        # stationary law: plain power iteration oscillates forever, the
        # averaged solver must still land on the fixed point.
        g = parse_edge_list("0 2\n0 3\n1 2\n2 0\n2 1\n3 1\n", directed=True)
        pi = stationary_distribution(g)
        assert np.allclose(pi, [0.2, 0.3, 0.4, 0.1], atol=1e-10)
        assert np.max(np.abs(pi @ transition_matrix(g) - pi)) < 1e-10


class TestConnectivity:
    def test_k2_connected(self):
        report = check_connectivity(k2())
        assert report.connected and report.components == 1

    def test_two_islands(self):
        report = check_connectivity(parse_edge_list("0 1\n2 3\n"))
        assert not report.connected
        assert report.components == 2

    def test_directed_path_not_strongly_connected(self):
        report = check_connectivity(parse_edge_list("0 1\n", directed=True))
        assert not report.connected
        assert report.components == 2

    def test_directed_cycle_strongly_connected(self):
        assert check_connectivity(cycle(4, directed=True)).connected

    def test_isolated_node_counts_as_component(self):
        report = check_connectivity(parse_edge_list("0 2\n"))
        assert not report.connected
        assert report.components == 2
