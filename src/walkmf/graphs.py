"""Graph ingestion, transition matrices, stationary distributions, connectivity.

Graphs live on dense integer node ids 0..n-1 so that node i always maps to
row/column i of every matrix built from the graph. Edge lists are plain text,
one "u v" pair per line, '#' lines are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO, Union

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge list: bad line, self-loop, or duplicate edge."""


class GraphStructureError(ValueError):
    """Graph shape does not support the requested operation."""


@dataclass(frozen=True)
class Graph:
    """Unweighted graph with dense node ids.

    `edges` is the input record. Derived from it once, as read-only arrays:
    `degrees[i]`, the out-degree of node i (for undirected graphs each stored
    edge counts toward both endpoints), and the adjacency in compressed rows,
    `indptr`/`indices`, whose row i holds the sorted out-neighbours of i.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    indptr: np.ndarray = field(init=False, repr=False, compare=False)
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            arcs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise EdgeListError("node ids must be below 2**63") from None
        outside = np.nonzero(np.any((arcs < 0) | (arcs >= self.n), axis=1))[0]
        if outside.size:
            u, v = self.edges[outside[0]]
            raise EdgeListError(f"edge ({u}, {v}) references node outside 0..{self.n - 1}")
        loops = np.nonzero(arcs[:, 0] == arcs[:, 1])[0]
        if loops.size:
            raise EdgeListError(f"self-loop on node {self.edges[loops[0]][0]}")
        # One sort of the arcs, by source, then target, then edge index, both
        # finds the repeated edges and lays out the compressed rows. Undirected
        # edge i is the two arcs i and m + i, one each way, so an edge that
        # repeats an earlier one, either way round, sorts right after an equal
        # arc, and the smallest such edge index is the first repeat.
        edge = np.arange(len(arcs))
        if not self.directed:
            arcs = np.concatenate([arcs, arcs[:, ::-1]])
            edge = np.tile(edge, 2)
        order = np.lexsort((edge, arcs[:, 1], arcs[:, 0]))
        src, indices = arcs[order, 0], arcs[order, 1]
        repeated = (src[1:] == src[:-1]) & (indices[1:] == indices[:-1])
        if repeated.any():
            u, v = self.edges[edge[order[1:][repeated]].min()]
            raise EdgeListError(f"duplicate edge ({u}, {v})")

        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        for name, value in (("degrees", np.diff(indptr)), ("indptr", indptr), ("indices", indices)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ConnectivityReport:
    """Verdict of the connectivity check; `components` counts (strongly)
    connected components."""

    connected: bool
    components: int
    directed: bool


def parse_edge_list(source: Union[str, TextIO, Iterable[str]], directed: bool = False) -> Graph:
    """Parse an edge-list text into a Graph.

    Node count is 1 + the largest id mentioned; smaller ids that never appear
    become isolated nodes. Raises EdgeListError on malformed lines (with the
    line number); the Graph rejects self-loops and duplicate edges, naming
    the edge.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: node ids must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: node ids must be non-negative, got {line!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)

    return Graph(n=max_id + 1, edges=tuple(edges), directed=directed)


def load_edge_list(path, directed: bool = False) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh, directed=directed)


def serialize_edge_list(g: Graph) -> str:
    """Render a graph back to edge-list text, one `u v` line per edge. Parsing
    the text with g's `directed` gives g back when node n - 1 has an edge;
    otherwise it gives fewer nodes, since the parsed node count is 1 + the
    largest id named."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def transition_matrix(g: Graph) -> np.ndarray:
    """Dense row-stochastic matrix: entry (i, j) = 1/degree(i) on edges, else 0."""
    deg = g.degrees
    dead = np.nonzero(deg == 0)[0]
    if dead.size:
        raise GraphStructureError(
            f"node {int(dead[0])} has no outgoing edges; transition probabilities are undefined"
        )
    mat = np.zeros((g.n, g.n))
    rows = np.repeat(np.arange(g.n), deg)
    mat[rows, g.indices] = 1.0 / deg[rows]
    return mat


def _count_components(g: Graph) -> int:
    """Strongly connected components by Tarjan's one pass (SIAM J. Comput.
    1(2), 1972), iterative. An undirected graph stores each edge both ways,
    so its strong components are its connected components."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    visited = count = 0
    for root in range(g.n):
        if index[root] >= 0:
            continue
        calls = [(root, -1)]  # (node, its next arc), -1 until the node is entered
        while calls:
            node, pos = calls[-1]
            if pos < 0:
                index[node] = low[node] = visited
                visited += 1
                stack.append(node)
                on_stack[node] = True
                pos = indptr[node]
            end = indptr[node + 1]
            while pos < end:
                nb = indices[pos]
                pos += 1
                if index[nb] < 0:
                    calls[-1] = (node, pos)
                    calls.append((nb, -1))
                    break
                if on_stack[nb] and index[nb] < low[node]:
                    low[node] = index[nb]
            else:  # every arc scanned: node is finished
                calls.pop()
                if calls and low[node] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[node]
                if low[node] == index[node]:
                    count += 1
                    member = -1
                    while member != node:
                        member = stack.pop()
                        on_stack[member] = False
    return count


def check_connectivity(g: Graph) -> ConnectivityReport:
    """Count (strongly) connected components; `connected` means exactly one."""
    comps = _count_components(g)
    return ConnectivityReport(connected=comps == 1, components=comps, directed=g.directed)


def require_connected(g: Graph) -> None:
    report = check_connectivity(g)
    if not report.connected:
        kind = "strongly connected" if g.directed else "connected"
        raise GraphStructureError(
            f"graph is not {kind} ({report.components} components); "
            "random-walk quantities are undefined"
        )


def stationary_distribution(g: Graph, transition: Optional[np.ndarray] = None) -> np.ndarray:
    """Long-run visit frequencies of the uniform random walk.

    Undirected graphs use the closed form degree/(2|E|). Directed graphs
    solve (I - A^T + 11^T) pi = 1 for the transition matrix A, once, and
    divide pi by its sum. The system is nonsingular for every strongly
    connected chain, periodic ones included, so there is no iteration and
    no stopping rule: pi is exact to the solve's rounding. It uses
    `transition`, g's transition_matrix, when the caller has built it
    already, and otherwise builds its own.

    Raises GraphStructureError when the graph is not (strongly) connected,
    or when some node's solved probability is at most n * eps * max(pi):
    such an entry is below the solve's rounding, so its value (and even its
    sign) is not resolved. The message names the node.
    """
    require_connected(g)
    if not g.directed:
        deg = g.degrees.astype(float)
        return deg / deg.sum()

    mat = transition_matrix(g) if transition is None else transition
    system = -mat.T
    system += 1.0
    system.flat[:: g.n + 1] += 1.0
    pi = np.linalg.solve(system, np.ones(g.n))
    pi /= pi.sum()
    low = int(np.argmin(pi))
    resolvable = g.n * np.finfo(float).eps * pi.max()
    if pi[low] <= resolvable:
        raise GraphStructureError(
            f"stationary probability of node {low} is {pi[low]:.3g}, at or below "
            f"the {resolvable:.3g} a dense solve resolves on {g.n} nodes"
        )
    return pi
