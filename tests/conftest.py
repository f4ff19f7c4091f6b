"""Shared helpers for building small graphs and snapshots by hand."""

from __future__ import annotations

import numpy as np
import pytest

from rqsim.diffusion import Snapshot
from rqsim.graphs import Graph


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return Graph([sorted(s) for s in adj])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n_leaves: int) -> Graph:
    return graph_from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def snapshot_of(graph, source: int, order: list[int], parent: dict[int, int]) -> Snapshot:
    return Snapshot.from_parents(graph, source, order, parent)


def full_path_snapshot(n: int) -> Snapshot:
    """Path 0-1-...-(n-1), infected end to end from node 0."""
    g = path_graph(n)
    order = list(range(n))
    parent = {i: i - 1 for i in range(1, n)}
    return snapshot_of(g, 0, order, parent)


def random_tree_adjacency(n: int, rng: np.random.Generator) -> dict[int, list[int]]:
    """Uniform random recursive tree on nodes 0..n-1."""
    adj: dict[int, list[int]] = {0: []}
    for v in range(1, n):
        u = int(rng.integers(v))
        adj[v] = [u]
        adj[u].append(v)
    return {v: sorted(ws) for v, ws in adj.items()}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
