"""The graph builder as first written, kept as a differential oracle.

``rqsim.graphs`` deduplicates, keeps the largest component and renumbers
it in one pass, and builds one ``Graph``.  This module keeps
the original two-pass build unchanged: a ``Graph`` from per-node sets,
then ``_restrict_to_component`` builds a second one from the largest
component.  Its ``Graph`` is the original class too (with the ``kind``
and ``meta`` attributes the package no longer has), so the builder code
below runs verbatim.  Tests require both builders to give ``==``
adjacency lists and to fail alike.
"""

from __future__ import annotations

import math
from typing import IO, Iterable

import numpy as np

from rqsim.errors import (
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
