"""Small graph builders shared across the test modules."""

import numpy as np

from walkmf import Graph, parse_edge_list


def k2() -> Graph:
    return parse_edge_list("0 1\n")


def path3() -> Graph:
    return parse_edge_list("0 1\n1 2\n")


def triangle() -> Graph:
    return parse_edge_list("0 1\n1 2\n0 2\n")


def cycle(n: int, directed: bool = False) -> Graph:
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return Graph(n=n, edges=edges, directed=directed)


def cycle_with_chord(n: int, h: int) -> Graph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord 0 -> h."""
    arcs = [(i, (i + 1) % n) for i in range(n)] + [(0, h)]
    return Graph(n=n, edges=tuple(arcs), directed=True)


def geometric_chain(n: int) -> Graph:
    """Directed chain i -> i+1 with every node but 0 also returning to 0:
    pi_i is proportional to 2**-(i - 1) for i >= 1."""
    arcs = [(0, 1)] + [arc for i in range(1, n - 1) for arc in ((i, i + 1), (i, 0))]
    return Graph(n=n, edges=tuple(arcs + [(n - 1, 0)]), directed=True)


def complete(n: int) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n=n, edges=edges, directed=False)


def random_connected_graph(n: int, seed: int, extra_edges: int | None = None,
                           min_degree: int = 1) -> Graph:
    """Random spanning tree plus extra edges; optionally lift low degrees."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for i in range(1, n):
        j = int(rng.integers(i))
        u, v = int(order[i]), int(order[j])
        edges.add((min(u, v), max(u, v)))

    if extra_edges is None:
        extra_edges = n // 2
    added = 0
    for _ in range(100 * (extra_edges + 1)):
        if added >= extra_edges:
            break
        u, v = (int(x) for x in rng.integers(n, size=2))
        key = (min(u, v), max(u, v))
        if u != v and key not in edges:
            edges.add(key)
            added += 1

    def degree(node: int) -> int:
        return sum(1 for a, b in edges if node in (a, b))

    for node in range(n):
        while degree(node) < min_degree:
            others = [x for x in rng.permutation(n)
                      if x != node and (min(node, x), max(node, x)) not in edges]
            if not others:
                break
            other = int(others[0])
            edges.add((min(node, other), max(node, other)))

    return Graph(n=n, edges=tuple(sorted(edges)), directed=False)


def random_strongly_connected_digraph(n: int, seed: int, extra_edges: int | None = None) -> Graph:
    """Directed cycle through all nodes plus random extra arcs."""
    rng = np.random.default_rng(seed)
    order = [int(x) for x in rng.permutation(n)]
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    if extra_edges is None:
        extra_edges = n
    for _ in range(100 * (extra_edges + 1)):
        if len(arcs) >= n + extra_edges:
            break
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            arcs.add((u, v))
    return Graph(n=n, edges=tuple(sorted(arcs)), directed=True)
