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

    Immutable after construction; safe for concurrent reads.  ``acyclic``
    is set by generators whose graphs are forests by construction.
    """

    __slots__ = ("_adj", "kind", "meta", "acyclic")

    def __init__(self, adjacency: list[list[int]], kind: str = "finite", meta: dict | None = None,
                 acyclic: bool = False):
        self._adj = adjacency
        self.kind = kind
        self.meta = meta or {}
        self.acyclic = acyclic
        self._check_symmetry()

    def _check_symmetry(self) -> None:
        n = len(self._adj)
        for u, nbrs in enumerate(self._adj):
            prev = -1
            for v in nbrs:
                if v == u:
                    raise InvalidInputError(f"self-loop at node {u}")
                if not 0 <= v < n:
                    raise InvalidInputError(f"neighbor {v} of node {u} out of range")
                if v == prev:
                    raise InvalidInputError(f"duplicate edge {u}-{v}")
                prev = v

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(kind={self.kind!r}, n={self.n}, m={self.num_edges})"


class RegularTree:
    """Infinite regular tree of degree ``d``, rooted at node 0.

    Children are materialized on first access to ``neighbors``.  Growth
    mutates the instance, so each trial owns a private tree.
    """

    __slots__ = ("d", "kind", "_adj", "_parents", "_next_id")
    acyclic = True

    def __init__(self, d: int):
        if d < 3:
            raise InvalidParameterError(f"regular tree degree must be >= 3, got {d}")
        self.d = d
        self.kind = "regular-tree"
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


def _build_finite(n: int, edges: Iterable[tuple[int, int]], kind: str, meta: dict | None = None,
                  acyclic: bool = False) -> Graph:
    """Assemble a simple undirected graph, deduplicating as needed."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return Graph([sorted(s) for s in adj], kind=kind, meta=meta, acyclic=acyclic)


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
        head = 0
        while head < len(comp):
            u = comp[head]
            head += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        if len(comp) > len(best):
            best = comp
    best.sort()
    return best


def _restrict_to_component(g: Graph) -> Graph:
    comp = _largest_component(g._adj)
    relabel = {old: new for new, old in enumerate(comp)}
    adj = [[relabel[v] for v in g._adj[old] if v in relabel] for old in comp]
    for row in adj:
        row.sort()
    return Graph(adj, kind=g.kind, meta={**g.meta, "component_nodes": len(comp)})


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
    if d_max < 2:
        raise InvalidParameterError(f"d_max must be >= 2, got {d_max}")
    if min_nodes < 1:
        raise InvalidParameterError(f"min_nodes must be >= 1, got {min_nodes}")

    edges: list[tuple[int, int]] = []
    count = 1
    u = 0  # next node to expand; every node has a child, so u < count
    while count < min_nodes:
        hi = d_max if u == 0 else d_max - 1
        n_children = min(int(rng.integers(1, hi + 1)), min_nodes - count)
        edges.extend((u, c) for c in range(count, count + n_children))
        count += n_children
        u += 1
    return _build_finite(count, edges, kind="galton-watson", meta={"d_max": d_max}, acyclic=True)


def make_erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with ``p = avg_degree / (n - 1)``; largest component, renumbered."""
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if not 0 < avg_degree <= n - 1:
        raise InvalidParameterError(f"avg_degree must be in (0, {n - 1}], got {avg_degree}")
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

    g = _build_finite(n, edges, kind="erdos-renyi", meta={"requested_nodes": n})
    g = _restrict_to_component(g)
    if g.n < 2:
        raise GenerationFailureError("largest component has fewer than 2 nodes")
    return g


def make_scale_free(n: int, edge_node_ratio: float, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph with ``|E|/|V|`` close to ``edge_node_ratio``.

    Node ``i`` brings ``floor(ratio*(i+1)) - floor(ratio*i)`` edges (an
    alternating 1/2 pattern at ratio 1.5), attached to existing nodes with
    probability proportional to degree.  Connected by construction.
    """
    if n < 3:
        raise InvalidParameterError(f"n must be >= 3, got {n}")
    if edge_node_ratio <= 0:
        raise InvalidParameterError(f"edge_node_ratio must be positive, got {edge_node_ratio}")

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
    return _build_finite(n, edges, kind="scale-free", meta={"edge_node_ratio": edge_node_ratio})


def load_edge_list(stream: IO[str] | str) -> Graph:
    """Parse a SNAP-style edge list into the largest connected component.

    Lines starting with ``#`` are comments; every other line must hold two
    whitespace-separated integer node ids.  Directed inputs are
    symmetrized; duplicate edges and self-loops are dropped.  The returned
    graph's ``meta`` records the pre-component node and edge counts.
    """
    if isinstance(stream, str):
        with open(stream, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)

    pairs: set[tuple[int, int]] = set()
    ids: set[int] = set()
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
        ids.add(u)
        ids.add(v)
        if u != v:
            pairs.add((u, v) if u < v else (v, u))

    if not ids:
        raise InvalidInputError("edge list is empty")

    relabel = {old: new for new, old in enumerate(sorted(ids))}
    edges = [(relabel[u], relabel[v]) for u, v in pairs]
    meta = {"file_nodes": len(ids), "file_edges": len(pairs)}
    g = _build_finite(len(ids), edges, kind="edge-list", meta=meta)
    return _restrict_to_component(g)
