"""Seeded graph generators for the benchmark workloads.

Both generators run in O(|E|) expected time, so n=2000 graphs take
milliseconds. Every node appears in at least one edge, so the parsed graph
has exactly n nodes and is (strongly) connected by construction:

- undirected: a random spanning tree (each node after the first attaches to
  a uniformly chosen earlier node of a random order) plus distinct random
  extra edges;
- directed: a Hamiltonian cycle through a random order plus distinct random
  extra arcs.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path


def undirected_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct undirected edges on nodes 0..n-1 forming a connected graph."""
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"cannot build a connected simple graph with n={n}, m={m}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    seen = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.append((u, v))
        seen.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    rng.shuffle(edges)
    return edges


def directed_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct arcs on nodes 0..n-1 forming a strongly connected graph."""
    if not (n <= m <= n * (n - 1)):
        raise ValueError(f"cannot build a strongly connected digraph with n={n}, m={m}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    seen = set(edges)
    while len(edges) < m:
        arc = (rng.randrange(n), rng.randrange(n))
        if arc[0] != arc[1] and arc not in seen:
            seen.add(arc)
            edges.append(arc)
    rng.shuffle(edges)
    return edges


def write_edge_list(edges: list[tuple[int, int]], path: Path) -> str:
    """Write 'u v' lines and return the file's SHA-256."""
    text = "".join(f"{u} {v}\n" for u, v in edges)
    path.write_text(text, encoding="utf-8")
    return sha256_of(path)


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
