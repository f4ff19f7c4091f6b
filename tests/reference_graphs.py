"""The graph generators and builders as they were before block drawing
and before CSR arrays, kept as differential oracles.

``rqsim.graphs`` now draws its scale-free picks and Erdős–Rényi skips in
blocks.  ``make_galton_watson``, ``make_erdos_renyi`` and
``make_scale_free`` below are the scalar code it replaced, unchanged: one
``Generator`` call per pick or skip and per-node sets
(``_build_from_sets``), using the package's parameter checks.  Tests
require both versions to give ``==`` neighbour lists and to leave the
generator in ``==`` states.

``Graph``, ``_check_adjacency``, ``_build_finite``, ``_rows`` and
``_largest_component`` are the list-based graph that ``rqsim.graphs``
kept before it held CSR arrays: the builder turned the sorted edge codes
into Python lists, checked them in a Python loop and found the largest
component by a breadth-first search.  Tests swap this ``_build_finite``
into ``rqsim.graphs`` and require the same neighbour lists, sizes,
``acyclic`` flags and generator states from every generator and the
edge-list loader, and require ``_check_adjacency`` to accept exactly the
adjacency lists that ``rqsim.graphs.Graph`` accepts.

``_build_finite_csr`` and ``_csr`` are the CSR build as first written
(the former is ``_build_finite`` renamed, returning ``_csr``'s arrays
and the ``acyclic`` flag instead of a ``Graph``): it codes each
direction into its own array and concatenates them, filters out
self-loops and repeats by copying, and checks symmetry on a fresh array
of reversed codes beside ``head`` and ``tail``.  ``rqsim.graphs`` now
writes the codes in place and copies only what it drops.  Tests require
``==`` arrays and flags, or the same error, from both.

``RegularTree`` is the lazily grown regular tree as it was when each
tree kept neighbour and parent dictionaries: ``rqsim.graphs`` now keeps
only the expansion order and derives ids from it.  Tests require the
same snapshots, expansion orders, neighbour tuples and generator states
from both.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable

import numpy as np

from rqsim.errors import GenerationFailureError, InvalidInputError, InvalidParameterError
from rqsim.graphs import (
    _largest_component as _label_largest_component,
    check_erdos_renyi,
    check_galton_watson,
    check_scale_free,
)


class Graph:
    """Finite undirected simple graph with nodes ``0..n-1``.

    ``adjacency[u]`` lists ``u``'s neighbours in strictly ascending order,
    each edge in both lists.  Immutable; safe for concurrent reads.
    ``acyclic`` is set by generators whose graphs are forests by construction.
    """

    __slots__ = ("_adj", "acyclic", "_max_degree")
    is_finite = True

    def __init__(self, adjacency: list[list[int]], acyclic: bool = False):
        _check_adjacency(adjacency)
        self._adj = adjacency
        self.acyclic = acyclic
        self._max_degree = max(map(len, adjacency), default=0)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return self._max_degree

    def avg_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0


def _check_adjacency(adj: list[list[int]]) -> None:
    """Raise InvalidInputError unless ``adj`` holds ints and is sorted,
    simple and symmetric."""
    stray = set(map(type, chain.from_iterable(adj))) - {int}
    if stray:
        raise InvalidInputError(f"neighbor ids must be int, got {sorted(t.__name__ for t in stray)}")
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


def _build_finite(n: int, edges: np.ndarray, acyclic: bool = False,
                  largest_component: bool = False) -> Graph:
    """A simple graph on ``0..n-1`` from an ``(m, 2)`` int64 array of edges,
    less self-loops and repeats.

    Each edge is coded ``u * n + v`` in both directions, and one sort gives
    every list in ascending order.  ``largest_component`` keeps only the
    largest component (the lowest id's on a tie), renumbered in ascending
    order, which keeps each list sorted.
    """
    edges = edges[edges[:, 0] != edges[:, 1]]
    codes = np.concatenate((edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]))
    codes.sort()
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))[:codes.size]]
    rows = _rows(n, codes)
    if largest_component:
        inside = np.zeros(n, dtype=bool)
        inside[_largest_component(rows)] = True
        new_id = np.cumsum(inside) - 1
        head, tail = np.divmod(codes, n)
        keep = inside[head]
        n = int(new_id[-1]) + 1
        rows = _rows(n, new_id[head[keep]] * n + new_id[tail[keep]])
    return Graph(rows, acyclic=acyclic)


def _rows(n: int, codes: np.ndarray) -> list[list[int]]:
    """Adjacency lists from sorted, distinct codes ``u * n + v``."""
    head, tail = np.divmod(codes, n)
    stop = np.searchsorted(head, np.arange(n), side="right").tolist()
    flat = tail.tolist()
    return [flat[a:b] for a, b in zip([0, *stop], stop)]


def _build_from_sets(n: int, edges: Iterable[tuple[int, int]], acyclic: bool = False,
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
    return _build_from_sets(count, edges, acyclic=True)


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

    g = _build_from_sets(n, edges, largest_component=True)
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
    return _build_from_sets(n, edges)


def _build_finite_csr(n: int, edges: np.ndarray, acyclic: bool = False,
                      largest_component: bool = False) -> tuple[np.ndarray, np.ndarray, bool]:
    """A simple graph on ``0..n-1`` from an ``(m, 2)`` int64 array of edges,
    less self-loops and repeats.

    Each edge is coded ``u * n + v`` in both directions, and one sort puts
    the codes in the order the graph keeps them.  ``largest_component``
    keeps only the largest component (the lowest id's on a tie), renumbered
    in ascending order, which keeps the codes sorted.
    """
    edges = edges[edges[:, 0] != edges[:, 1]]
    codes = np.concatenate((edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]))
    codes.sort()
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))[:codes.size]]
    if largest_component:
        head, tail = np.divmod(codes, n)
        inside = _label_largest_component(n, head, tail)
        new_id = np.cumsum(inside) - 1
        keep = inside[head]
        n = int(new_id[-1]) + 1
        codes = new_id[head[keep]] * n + new_id[tail[keep]]
    return (*_csr(n, codes), acyclic)


def _csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` (the codes' tails) from the edge codes ``u *
    n + v``, ids in ``0..n-1``; raises InvalidInputError unless they list a
    simple graph with each edge at both ends and each node's neighbours
    ascending: no self-loop, strictly ascending codes, and the sorted codes
    of the reversed edges equal to them."""
    head, tail = np.divmod(codes, max(n, 1))
    if (loop := head == tail).any():
        raise InvalidInputError(f"self-loop at node {head[loop][0]}")
    if (down := codes[1:] <= codes[:-1]).any():
        raise InvalidInputError(f"neighbors of node {head[1:][down][0]} not strictly ascending")
    flipped = tail * n + head
    flipped.sort()
    if not np.array_equal(flipped, codes):
        raise InvalidInputError("an edge is not listed at both ends")
    return np.searchsorted(head, np.arange(n + 1)), tail


class RegularTree:
    """Infinite regular tree of degree ``d``, rooted at node 0.

    Children are materialized on first access to ``neighbors``, or for a
    whole infection order at once by :meth:`expand_in_order`.  Growth
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
        if not 0 <= v < self._next_id:
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

    @property
    def is_fresh(self) -> bool:
        """True until the first node is expanded."""
        return self._next_id == 1

    def expand_in_order(self, order: list[int]) -> None:
        """Expand every node of ``order`` on a fresh tree in one pass, as
        ``neighbors`` calls in that order would.

        ``order`` starts at the root and names each later node after its
        parent, so the children of ``order[k]`` (k >= 1) are numbered
        ``d + 1 + (k - 1)(d - 1)`` onwards, ``d - 1`` of them.
        """
        d = self.d
        owners = [0] * d + np.repeat(order[1:], d - 1).tolist()
        self._next_id = stop = len(owners) + 1
        self._parents = dict(zip(range(1, stop), owners))
        # children[j] holds the (j + 1)-th child of each non-root node, in order.
        children = [range(c, stop, d - 1) for c in range(d + 1, 2 * d)]
        rows = zip(map(self._parents.__getitem__, order[1:]), *children)
        self._adj = dict(zip(order, chain([tuple(range(1, d + 1))], rows)))

    def degree(self, v: int) -> int:
        return self.d

    def max_degree(self) -> int:
        return self.d
