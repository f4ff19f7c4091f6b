"""Graph representations, synthetic generators, and edge-list ingestion.

Two graph flavors share one read interface (``neighbors``/``degree``):

* :class:`Graph` -- a finite undirected simple graph with dense node ids
  ``0..n-1`` and sorted adjacency lists.
* :class:`RegularTree` -- a lazily grown infinite regular tree; nodes are
  materialized on first neighbor access, so a diffusion only ever pays for
  the region it touches.

All generators take a ``numpy.random.Generator`` and are deterministic for
a given seed.
"""

from __future__ import annotations

import math
from typing import IO, Iterable

import numpy as np

from .errors import (
    GenerationFailureError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
)


class Graph:
    """Finite undirected simple graph with nodes ``0..n-1``.

    ``adjacency[u]`` lists ``u``'s neighbours in strictly ascending order,
    each edge in both lists.  Immutable; safe for concurrent reads.
    ``acyclic`` is set by generators whose graphs are forests by construction.
    """

    __slots__ = ("_adj", "acyclic")

    def __init__(self, adjacency: list[list[int]], acyclic: bool = False):
        _check_adjacency(adjacency)
        self._adj = adjacency
        self.acyclic = acyclic

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    @property
    def is_finite(self) -> bool:
        return True

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def avg_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0


def _check_adjacency(adj: list[list[int]]) -> None:
    """Raise InvalidInputError unless ``adj`` is sorted, simple and symmetric."""
    n = len(adj)
    # met[v] counts the head of adj[v] already matched by smaller nodes' lists
    # (read in ascending order); the rest must ascend above v, each matched next.
    met = [0] * n
    for u, nbrs in enumerate(adj):
        prev = u
        for v in nbrs[met[u]:]:
            if not (prev < v < n and (k := met[v]) < len(adj[v]) and adj[v][k] == u):
                raise InvalidInputError(
                    f"self-loop at node {u}" if v == u
                    else f"neighbor {v} of node {u} out of range" if not 0 <= v < n
                    else f"neighbors of node {u} not strictly ascending at {v}" if u < v <= prev
                    else f"edge {u}-{v} is not listed in order at both ends")
            met[v] = k + 1
            prev = v


class RegularTree:
    """Infinite regular tree of degree ``d``, rooted at node 0.

    Children are materialized on first access to ``neighbors``.  Growth
    mutates the instance, so each trial owns a private tree.
    """

    __slots__ = ("d", "_adj", "_parents", "_next_id")
    acyclic = True

    def __init__(self, d: int):
        if d < 3:
            raise InvalidParameterError(f"regular tree degree must be >= 3, got {d}")
        self.d = d
        self._adj: dict[int, tuple[int, ...]] = {}
        self._parents: dict[int, int] = {}
        self._next_id = 1

    @property
    def is_finite(self) -> bool:
        return False

    def neighbors(self, v: int) -> tuple[int, ...]:
        nbrs = self._adj.get(v)
        if nbrs is not None:
            return nbrs
        return self._expand(v)

    def _expand(self, v: int) -> tuple[int, ...]:
        if v >= self._next_id:
            raise InvalidInputError(f"node {v} has not been materialized")
        if v == 0:
            children = tuple(range(self._next_id, self._next_id + self.d))
            nbrs = children
        else:
            # Every non-root node was created as somebody's child, so
            # its parent is already on record.
            parent = self._parents[v]
            children = tuple(range(self._next_id, self._next_id + self.d - 1))
            nbrs = (parent,) + children
        self._next_id += len(children)
        self._adj[v] = nbrs
        for c in children:
            self._parents[c] = v
        return nbrs

    def degree(self, v: int) -> int:
        return self.d

    def max_degree(self) -> int:
        return self.d


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


def make_regular_tree(d: int) -> RegularTree:
    """Lazily expandable infinite ``d``-regular tree rooted at node 0."""
    return RegularTree(d)


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


def check_galton_watson(d_max: int, min_nodes: int) -> None:
    """Raise InvalidParameterError unless ``make_galton_watson`` takes these."""
    if d_max < 2:
        raise InvalidParameterError(f"d_max must be >= 2, got {d_max}")
    if min_nodes < 1:
        raise InvalidParameterError(f"min_nodes must be >= 1, got {min_nodes}")


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


def check_erdos_renyi(n: int, avg_degree: float) -> None:
    """Raise InvalidParameterError unless ``make_erdos_renyi`` takes these."""
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0 < avg_degree <= n - 1:
        raise InvalidParameterError(f"avg_degree must be in (0, {n - 1}], got {avg_degree}")


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


def check_scale_free(n: int, edge_node_ratio: float) -> None:
    """Raise InvalidParameterError unless ``make_scale_free`` takes these."""
    if n < 3:
        raise InvalidParameterError(f"n must be >= 3, got {n}")
    if not 0 < edge_node_ratio < math.inf:
        raise InvalidParameterError(f"edge_node_ratio must be in (0, inf), got {edge_node_ratio}")


def load_edge_list(stream: IO[str] | str) -> Graph:
    """Parse a SNAP-style edge list into the largest connected component.

    Lines starting with ``#`` are comments; every other line must hold two
    whitespace-separated integer node ids.  Directed inputs are
    symmetrized; duplicate edges and self-loops are dropped.  File ids are
    renumbered densely in ascending order.
    """
    if isinstance(stream, str):
        with open(stream, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)

    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {raw.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {raw.strip()!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {raw.strip()!r}", lineno)
        edges.append((u, v))

    if not edges:
        raise InvalidInputError("edge list is empty")

    relabel = {old: new for new, old in enumerate(sorted({x for edge in edges for x in edge}))}
    edges = [(relabel[u], relabel[v]) for u, v in edges]
    return _build_finite(len(relabel), edges, largest_component=True)
