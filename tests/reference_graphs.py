"""The graph generators and one-pass builder as they were before block
drawing, kept as a differential oracle.

``rqsim.graphs`` now draws its scale-free picks and Erdős–Rényi skips in
blocks and builds every graph from an int64 edge array by one sort.  The
functions below are the scalar code it replaced, unchanged: one
``Generator`` call per pick or skip and per-node sets, ending in the
package's ``Graph`` and using its parameter checks.  Tests require both
versions to give ``==`` adjacency lists and to leave the generator in
``==`` states.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from rqsim.errors import GenerationFailureError
from rqsim.graphs import Graph, check_erdos_renyi, check_galton_watson, check_scale_free


def _build_finite(n: int, edges: Iterable[tuple[int, int]], acyclic: bool = False,
                  largest_component: bool = False) -> Graph:
    """A simple graph on ``0..n-1`` from ``edges``, less self-loops and repeats.

    ``largest_component`` keeps only the largest component (the lowest id's
    on a tie), renumbered in ascending order, which keeps each list sorted.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    rows = [sorted(s) for s in adj]
    del adj  # peak memory: the sets go before a renumbered copy is built
    if largest_component:
        comp = _largest_component(rows)
        new_id = {old: new for new, old in enumerate(comp)}
        rows = [[new_id[v] for v in rows[old]] for old in comp]
    return Graph(rows, acyclic=acyclic)


def _largest_component(adj: list[list[int]]) -> list[int]:
    """Nodes of the largest connected component, in ascending order."""
    n = len(adj)
    seen = [False] * n
    best: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        for u in comp:  # a breadth-first search: comp grows while it is read
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        if len(comp) > len(best):
            best = comp
    best.sort()
    return best


def make_galton_watson(d_max: int, min_nodes: int, rng: np.random.Generator) -> Graph:
    """Random finite tree from a branching process capped at degree ``d_max``.

    Non-root nodes draw their child count uniformly from ``{1, ..., d_max - 1}``
    (the root from ``{1, ..., d_max}``), which keeps every degree at most
    ``d_max`` and never lets the process die out.  Nodes are numbered in
    breadth-first order; growth stops once ``min_nodes`` nodes exist, and
    unexpanded frontier nodes become leaves.
    """
    check_galton_watson(d_max, min_nodes)
    edges: list[tuple[int, int]] = []
    count = 1
    u = 0  # next node to expand; every node has a child, so u < count
    while count < min_nodes:
        hi = d_max if u == 0 else d_max - 1
        n_children = min(int(rng.integers(1, hi + 1)), min_nodes - count)
        edges.extend((u, c) for c in range(count, count + n_children))
        count += n_children
        u += 1
    return _build_finite(count, edges, acyclic=True)


def make_erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with ``p = avg_degree / (n - 1)``; largest component, renumbered."""
    check_erdos_renyi(n, avg_degree)
    p = avg_degree / (n - 1)

    edges: list[tuple[int, int]] = []
    if p >= 1.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        # Skip-length sampling over the ordered pair sequence: O(|E|) draws.
        log_1p = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            r = rng.random()
            w += 1 + int(math.log1p(-r) / log_1p)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((v, w))

    g = _build_finite(n, edges, largest_component=True)
    if g.n < 2:
        raise GenerationFailureError("largest component has fewer than 2 nodes")
    return g


def make_scale_free(n: int, edge_node_ratio: float, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph with ``|E|/|V|`` close to ``edge_node_ratio``.

    Node ``i`` brings ``floor(ratio*(i+1)) - floor(ratio*i)`` edges (an
    alternating 1/2 pattern at ratio 1.5), attached to existing nodes with
    probability proportional to degree.  Connected by construction.
    """
    check_scale_free(n, edge_node_ratio)
    edges: list[tuple[int, int]] = [(0, 1)]
    # One endpoint entry per unit of degree; uniform draws from this pool
    # realize degree-proportional attachment.
    pool: list[int] = [0, 1]
    built = 1
    for i in range(2, n):
        target = math.floor(edge_node_ratio * (i + 1))
        m = max(1, min(i, target - built))
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(pool[int(rng.integers(len(pool)))])
        for u in chosen:
            edges.append((u, i))
            pool.append(u)
            pool.append(i)
        built += m
    return _build_finite(n, edges)
