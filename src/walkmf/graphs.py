"""Graph ingestion, transition matrices, stationary distributions, connectivity.

Graphs live on dense integer node ids 0..n-1 so that node i always maps to
row/column i of every matrix built from the graph. Edge lists are plain text,
one "u v" pair per line, '#' lines are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO, Union

import numpy as np

PROB_TOL = 1e-12  # row sums / vector sums must match 1 within this


class EdgeListError(ValueError):
    """Malformed edge list: bad line, self-loop, or duplicate edge."""


class GraphStructureError(ValueError):
    """Graph shape does not support the requested operation."""


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Compressed rows of the arcs src -> dst: the neighbours of node i are
    `indices[indptr[i]:indptr[i + 1]]`, sorted."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


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
        keys = arcs if self.directed else np.sort(arcs, axis=1)
        repeated = np.ones(len(keys), dtype=bool)
        repeated[np.unique(keys, axis=0, return_index=True)[1]] = False
        if repeated.any():
            u, v = self.edges[np.argmax(repeated)]
            raise EdgeListError(f"duplicate edge ({u}, {v})")

        if not self.directed:
            arcs = np.concatenate([arcs, arcs[:, ::-1]])
        indptr, indices = _csr(arcs[:, 0], arcs[:, 1], self.n)
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
    """Render a graph back to edge-list text (parse round-trips to the same graph)."""
    out = [f"# nodes: {g.n}", f"# directed: {str(g.directed).lower()}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


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


def is_row_stochastic(mat: np.ndarray, tol: float = PROB_TOL) -> bool:
    if mat.ndim != 2 or np.any(mat < -tol) or np.any(mat > 1 + tol):
        return False
    return bool(np.all(np.abs(mat.sum(axis=1) - 1.0) < tol))


def is_probability_vector(vec: np.ndarray, tol: float = PROB_TOL) -> bool:
    return vec.ndim == 1 and bool(np.all(vec >= -tol)) and abs(float(vec.sum()) - 1.0) < tol


def _components_undirected(g: Graph) -> int:
    seen = np.zeros(g.n, dtype=bool)
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    count = 0
    for root in range(g.n):
        if seen[root]:
            continue
        count += 1
        stack = [root]
        seen[root] = True
        while stack:
            node = stack.pop()
            for nb in indices[indptr[node]:indptr[node + 1]]:
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
    return count


def _components_strong(g: Graph) -> int:
    # Kosaraju, iterative: finish order on g, then sweep the reverse graph.
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    order: list[int] = []
    seen = np.zeros(g.n, dtype=bool)
    for root in range(g.n):
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, indptr[root])]
        seen[root] = True
        while stack:
            node, pos = stack[-1]
            if pos < indptr[node + 1]:
                stack[-1] = (node, pos + 1)
                nb = indices[pos]
                if not seen[nb]:
                    seen[nb] = True
                    stack.append((nb, indptr[nb]))
            else:
                order.append(node)
                stack.pop()

    sources = np.repeat(np.arange(g.n), g.degrees)
    indptr, indices = (a.tolist() for a in _csr(g.indices, sources, g.n))
    seen[:] = False
    count = 0
    for root in reversed(order):
        if seen[root]:
            continue
        count += 1
        todo = [root]
        seen[root] = True
        while todo:
            node = todo.pop()
            for nb in indices[indptr[node]:indptr[node + 1]]:
                if not seen[nb]:
                    seen[nb] = True
                    todo.append(nb)
    return count


def check_connectivity(g: Graph) -> ConnectivityReport:
    """Count (strongly) connected components; `connected` means exactly one."""
    if g.n == 0:
        return ConnectivityReport(connected=False, components=0, directed=g.directed)
    comps = _components_strong(g) if g.directed else _components_undirected(g)
    return ConnectivityReport(connected=comps == 1, components=comps, directed=g.directed)


def require_connected(g: Graph) -> None:
    report = check_connectivity(g)
    if not report.connected:
        kind = "strongly connected" if g.directed else "connected"
        raise GraphStructureError(
            f"graph is not {kind} ({report.components} components); "
            "random-walk quantities are undefined"
        )


MAX_POWER_ITERATIONS = 500_000


def stationary_distribution(g: Graph, transition: Optional[np.ndarray] = None) -> np.ndarray:
    """Long-run visit frequencies of the uniform random walk.

    Undirected graphs use the closed form degree/(2|E|). Directed graphs run
    averaged power iteration: each update replaces the current distribution
    with the mean of itself and its one-step push-forward, which has the same
    fixed point as the plain chain but converges even when the chain is
    periodic. Iteration stops when successive averages differ by < 1e-12 in
    max norm. It runs on `transition`, g's transition_matrix, when the
    caller has built it already, and otherwise builds its own.
    """
    require_connected(g)
    if not g.directed:
        deg = g.degrees.astype(float)
        return deg / deg.sum()

    mat = transition_matrix(g) if transition is None else transition
    x = np.full(g.n, 1.0 / g.n)
    for _ in range(MAX_POWER_ITERATIONS):
        nxt = 0.5 * (x + x @ mat)
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - x)) < PROB_TOL:
            return nxt
        x = nxt
    raise GraphStructureError(
        f"stationary distribution did not converge within {MAX_POWER_ITERATIONS} iterations"
    )
