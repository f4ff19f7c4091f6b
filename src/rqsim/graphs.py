"""Graph representations, synthetic generators, and edge-list ingestion.

Two graph flavors share one read interface (``neighbors``/``degree``):

* :class:`Graph` -- a finite undirected simple graph with dense node ids
  ``0..n-1``, its sorted neighbour lists held as CSR arrays.
* :class:`RegularTree` -- an infinite regular tree that records only the
  order in which its nodes were expanded, so a diffusion only ever pays
  for the region it touches.

All generators take a ``numpy.random.Generator`` and are deterministic for
a given seed.
"""

from __future__ import annotations

import math
from itertools import chain, count
from typing import IO

import numpy as np

from .errors import (
    GenerationFailureError,
    InvalidInputError,
    InvalidParameterError,
    ParseError,
    check_int,
)


class Graph:
    """Finite undirected simple graph on ``0..n-1`` in CSR arrays: ``u``'s
    neighbours, ascending, are ``indices[indptr[u]:indptr[u + 1]]``.
    Immutable; safe for concurrent reads.  ``acyclic`` is set by generators
    whose graphs are forests by construction."""

    __slots__ = ("indptr", "indices", "acyclic")
    is_finite = True

    def __init__(self, adjacency: list[list[int]], acyclic: bool = False):
        n, flat = len(adjacency), [*chain.from_iterable(adjacency)]
        if not all(type(v) is int and 0 <= v < n for v in flat):  # a bool, float or numpy id too
            raise InvalidInputError(f"neighbor ids must be of type int and in 0..{n - 1}")
        codes = np.repeat(np.arange(n) * n, [*map(len, adjacency)]) + np.array(flat, dtype=np.int64)
        self.indptr, self.indices = _csr(n, codes)
        self.acyclic = acyclic

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray, acyclic: bool = False) -> Graph:
        """The graph of the ascending int64 codes ``u * n + v`` of its edges, both ways."""
        graph = cls.__new__(cls)
        graph.indptr, graph.indices = _csr(n, codes)
        graph.acyclic = acyclic
        return graph

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> list[int]:
        return self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def max_degree(self) -> int:
        return int(np.diff(self.indptr).max(initial=0))

    def avg_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0


def _csr(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` (the codes' tails) from the edge codes ``u *
    n + v``, ids in ``0..n-1``; raises InvalidInputError unless they list a
    simple graph with each edge at both ends and each node's neighbours
    ascending: no self-loop, strictly ascending codes, and the sorted codes
    of the reversed edges equal to them.  Beside ``codes`` it holds two
    arrays of their size, ``head`` and ``tail``: the reversed codes are
    written over ``head`` once ``indptr`` has been read off it."""
    head, tail = np.divmod(codes, max(n, 1))
    if (loop := head == tail).any():
        raise InvalidInputError(f"self-loop at node {head[loop][0]}")
    del loop
    if (down := codes[1:] <= codes[:-1]).any():
        raise InvalidInputError(f"neighbors of node {head[1:][down][0]} not strictly ascending")
    del down
    indptr = np.searchsorted(head, np.arange(n + 1))
    # tail * n + head, as codes + (tail - head) * (n - 1), in place.
    flipped = np.subtract(tail, head, out=head)
    flipped *= n - 1
    flipped += codes
    flipped.sort()
    if not np.array_equal(flipped, codes):
        raise InvalidInputError("an edge is not listed at both ends")
    return indptr, tail


class RegularTree:
    """Infinite regular tree of degree ``d``, rooted at node 0.

    A node is expanded (its children materialized) on first access to
    ``neighbors``, or for a whole infection order at once by
    :meth:`expand_in_order`; either way it takes the next place of the
    expansion order, which starts at the root.  Ids follow from places
    by one rule: the root's children are ``1..d``, and the node at place
    k >= 1 owns the ``d - 1`` ids from ``2 + k(d - 1)`` on.  So
    node ``v > d`` is a child of the node at place ``(v - 2) // (d - 1)``.
    Growth mutates the instance, so each trial owns a private tree.
    """

    __slots__ = ("d", "_order", "_place")
    acyclic = True
    is_finite = False

    def __init__(self, d: int):
        check_int("regular tree degree", d, 3)
        self.d = d
        self._order: list[int] = []  # expanded nodes, in expansion order
        self._place: dict[int, int] = {}  # each expanded node's place in _order

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The parent (none at the root), then the children in ascending
        order; expands ``v`` first unless it has been."""
        k = self._place.get(v) if type(v) is int else None
        if k is None:
            if type(v) is not int:
                raise InvalidInputError(f"node id {v!r} is not an int")
            # The root exists from the start, any other node once its parent is expanded.
            if not (v == 0 or 0 < v and self.parent_place(v) < len(self._order)):
                raise InvalidInputError(f"node {v} has not been materialized")
            k = len(self._order)
            self.expand_in_order([v])
        if k == 0:
            return tuple(range(1, self.d + 1))
        # parent_place(v) and the children of place k, inline: this runs
        # on every first visit of a respondent.
        w = self.d - 1
        first = 2 + k * w
        return (self._order[abs(v - 2) // w], *range(first, first + w))

    def parent_place(self, v):
        """Place of the parent of materialized node ``v >= 1``; element-wise
        when ``v`` is an int array."""
        # The root's children 1..d all give 0; for v = 1 that is 1 // (d - 1), as d >= 3.
        return abs(v - 2) // (self.d - 1)

    @property
    def is_fresh(self) -> bool:
        """True until the first node is expanded."""
        return not self._order

    def expand_in_order(self, order: list[int]) -> None:
        """Expand the nodes of ``order`` in turn, as ``neighbors`` calls in
        that order would; each must be materialized and unexpanded when
        its turn comes."""
        self._place.update(zip(order, count(len(self._order))))
        self._order += order

    def degree(self, v: int) -> int:
        return self.d

    def max_degree(self) -> int:
        return self.d


def _build_finite(n: int, edges: np.ndarray, acyclic: bool = False,
                  largest_component: bool = False) -> Graph:
    """A simple graph on ``0..n-1`` from an ``(m, 2)`` int64 array of edges,
    less self-loops and repeats.

    Each edge is coded ``u * n + v`` in both directions, and one sort puts
    the codes in the order the graph keeps them.  ``largest_component``
    keeps only the largest component (the lowest id's on a tie), renumbered
    in ascending order, which keeps the codes sorted.  The codes are
    written in place into one array, and copied only to drop a self-loop or
    a repeat, or to renumber the largest component.
    """
    if (loop := edges[:, 0] == edges[:, 1]).any():
        edges = edges[~loop]
    del loop
    m, (u, v) = len(edges), edges.T
    codes = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=codes[:m])
    codes[:m] += v
    np.multiply(v, n, out=codes[m:])
    codes[m:] += u
    del edges, u, v
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)  # each code but a repeat
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    if not keep.all():
        codes = codes[keep]
    del keep
    if largest_component:
        head, tail = np.divmod(codes, n)
        inside = _largest_component(n, head, tail)
        new_id = np.cumsum(inside) - 1
        keep = inside[head]
        n = int(new_id[-1]) + 1
        codes = new_id[head[keep]]
        codes *= n
        codes += new_id[tail[keep]]
        del head, tail
    return Graph._from_codes(n, codes, acyclic)


def _largest_component(n: int, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Whether each node of ``0..n-1`` is in the largest component (the
    lowest id's on a tie), given each edge as (head, tail) both ways.  Each
    round hooks every tree root to the least root it has an edge to, then
    jumps pointers until each node points at its root (Shiloach & Vishkin
    1982): a component ends rooted at its lowest id, in O(log n) rounds."""
    root = np.arange(n)
    while (cross := root[head] != root[tail]).any():
        np.minimum.at(root, root[head[cross]], root[tail[cross]])
        while not np.array_equal(up := root[root], root):
            root = up
    return root == np.bincount(root, minlength=n).argmax()


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
    sizes: list[int] = []  # child counts of the expanded nodes, in order
    count = 1
    with IntegerTape(rng, min_nodes) as tape:
        while count < min_nodes:
            hi = d_max if not sizes else d_max - 1
            sizes.append(min(1 + tape.below(hi), min_nodes - count))
            count += sizes[-1]
    parents = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    edges = np.stack((parents, np.arange(1, count, dtype=np.int64)), axis=1)
    return _build_finite(count, edges, acyclic=True)


def check_galton_watson(d_max: int, min_nodes: int) -> None:
    """Raise InvalidParameterError unless ``make_galton_watson`` takes these."""
    check_int("d_max", d_max, 2)
    check_int("min_nodes", min_nodes, 1)


def make_erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with ``p = avg_degree / (n - 1)``; largest component, renumbered.

    Pairs ``(v, w)``, ``w < v``, are taken in the order ``t = v(v-1)/2 + w``;
    the kept ones are found by skip lengths (Batagelj & Brandes), O(|E|) draws.
    """
    check_erdos_renyi(n, avg_degree)
    p = avg_degree / (n - 1)
    pairs = n * (n - 1) // 2
    at = np.arange(pairs, dtype=np.int64) if p >= 1.0 else _skip_positions(pairs, p, rng)
    first = np.arange(n + 1, dtype=np.int64) * np.arange(-1, n, dtype=np.int64) // 2  # v(v-1)/2
    v = np.searchsorted(first, at, side="right") - 1
    g = _build_finite(n, np.stack((v, at - first[v]), axis=1), largest_component=True)
    if g.n < 2:
        raise GenerationFailureError("largest component has fewer than 2 nodes")
    return g


def _skip_positions(pairs: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Places in ``0..pairs-1`` kept with probability ``p``, each found from
    the last by a skip of ``int(log1p(-u) / log1p(-p))`` for one uniform ``u``.

    Uniforms come from ``rng.random(block)``, and ``rng`` is left where one
    ``rng.random()`` per skip would leave it, the draw that runs past the
    last pair included: the block's state is restored and just the used
    draws are taken again.
    """
    log_q = math.log1p(-p)
    found = []
    last = -1
    while True:
        expect = p * (pairs - 1 - last)
        block = min(_SKIP_BLOCK, int(expect + 4 * math.sqrt(expect)) + 16)
        saved = rng.bit_generator.state
        u = rng.random(block)
        # math.log1p, as the per-skip formula uses; np.log1p may round differently.
        q = np.fromiter(map(math.log1p, (-u).tolist()), dtype=np.float64, count=block) / log_q
        at = last + np.cumsum(np.minimum(q, pairs).astype(np.int64) + 1)
        end = int(np.searchsorted(at, pairs))
        if end < block:
            rng.bit_generator.state = saved
            rng.random(end + 1)
            found.append(at[:end])
            return np.concatenate(found)
        found.append(at)
        last = int(at[-1])


#: Most uniforms one ``rng.random`` call of :func:`_skip_positions` draws.
_SKIP_BLOCK = 1 << 16

#: One more than the largest 32-bit word, and the largest bound an
#: :class:`IntegerTape` takes.
_WORD = 1 << 32


class IntegerTape:
    """Integers below given bounds from ``rng``, decoded from blocks of 32-bit words.

    ``below(h)`` returns what ``int(rng.integers(h))`` would, call for
    call, for ``1 <= h <= 2**32``.  numpy draws such a bound by Lemire's
    method (ACM TOMACS 2019) from the generator's 32-bit words: the high
    half of ``word * h``, drawn again while the low half is below ``2**32
    % h``; ``h = 1`` reads no word.  The words come from
    ``rng.integers(0, 2**32, size=block)``, which reads the same words,
    and each block is kept as a list of ints.
    Used as a context manager, the tape leaves ``rng`` on exit, an
    exception included, where the scalar calls would have: it restores
    the state saved before the block and draws just the used words again.
    """

    __slots__ = ("_rng", "_block", "_saved", "_words", "_at")

    def __init__(self, rng: np.random.Generator, block: int):
        self._rng, self._block = rng, max(1, min(block, _TAPE_BLOCK))
        self._saved = None
        self._words: list[int] = []
        self._at = 0

    def __enter__(self) -> IntegerTape:
        return self

    def __exit__(self, *exc) -> None:
        self._put_back()

    def _put_back(self) -> None:
        """Return the block's unused words to ``rng``."""
        if self._at < len(self._words):
            self._rng.bit_generator.state = self._saved
            self._rng.integers(0, _WORD, size=self._at)

    def _refill(self, k: int) -> None:
        """Draw a new block of at least ``k`` words, starting at the first unused one."""
        self._put_back()
        self._saved = self._rng.bit_generator.state
        self._words = self._rng.integers(0, _WORD, size=max(k, self._block)).tolist()
        self._at = 0

    def take(self, k: int) -> list[int]:
        """The next ``k`` words as they are, for a caller that decodes its own picks."""
        at = self._at
        if at + k > len(self._words):
            self._refill(k)
            at = 0
        self._at = at + k
        return self._words[at:at + k]

    def below(self, h: int) -> int:
        """The next integer in ``0..h-1``: ``int(rng.integers(h))``."""
        if not 1 < h <= _WORD:
            if h == 1:
                return 0
            raise InvalidParameterError(f"bound must be in 1..2**32, got {h}")
        while True:
            if self._at == len(self._words):
                self._refill(1)
            m = self._words[self._at] * h
            self._at += 1
            # A low half of at least h is at least 2**32 % h: the modulo is rarely needed.
            if m & (_WORD - 1) >= h or m & (_WORD - 1) >= _WORD % h:
                return m >> 32


#: Most words one :class:`IntegerTape` block holds.
_TAPE_BLOCK = 1 << 12


def check_erdos_renyi(n: int, avg_degree: float) -> None:
    """Raise InvalidParameterError unless ``make_erdos_renyi`` takes these."""
    check_int("n", n, 2)
    if not 0 < avg_degree <= n - 1:
        raise InvalidParameterError(f"avg_degree must be in (0, {n - 1}], got {avg_degree}")


def make_scale_free(n: int, edge_node_ratio: float, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph with ``|E|/|V|`` close to ``edge_node_ratio``.

    Node ``i`` brings ``floor(ratio*(i+1)) - floor(ratio*i)`` edges (an
    alternating 1/2 pattern at ratio 1.5), attached to existing nodes with
    probability proportional to degree.  Connected by construction.
    """
    check_scale_free(n, edge_node_ratio)
    # The pool is handed over without a name, so that the build frees it.
    return _build_finite(n, _attachment_pool(n, edge_node_ratio, rng).reshape(-1, 2))


def _attachment_pool(n: int, edge_node_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """The edges of :func:`make_scale_free`, flat: one endpoint entry per
    unit of degree, so that a uniform pick of an entry is a
    degree-proportional pick of a node.

    Node i >= 2 picks entries below the pool's length until they name
    ``m[i - 2]`` distinct nodes, then writes ``(u, i)`` for each node u in
    set order.  Each pick is :meth:`IntegerTape.below`'s, decoded inline:
    a node takes the words of its outstanding picks at once, as no word
    but the last of them can complete its picks, and redraws a word as
    ``below`` does.  The owners i are written before any draw.
    """
    sizes = _edge_counts(n, edge_node_ratio)
    edges = 1 + int(sizes.sum())
    if edges > 1 << 30:  # every bound, the pool's length, then stays below the 2**32 a word decodes
        raise InvalidParameterError(f"make_scale_free builds at most 2**30 edges, not {edges}")
    pool = np.empty(2 * edges, dtype=np.int64)
    pool[:2] = 0, 1
    pool[3::2] = np.repeat(np.arange(2, n), sizes)
    entries = memoryview(pool)  # reads and writes entries as ints, not numpy scalars
    with IntegerTape(rng, _TAPE_BLOCK) as tape:
        take, bound = tape.take, 2  # bound: the pool's length so far
        for m in sizes.tolist():
            chosen: set[int] = set()
            floor = _WORD % bound
            while len(chosen) < m:
                for word in take(m - len(chosen)):
                    scaled = word * bound
                    if scaled & 0xFFFFFFFF >= floor:  # the low half
                        chosen.add(entries[scaled >> 32])
            for u in chosen:
                entries[bound] = u
                bound += 2
    return pool


def _edge_counts(n: int, ratio: float) -> np.ndarray:
    """The edges each node i in ``2..n-1`` brings in :func:`make_scale_free`:
    ``max(1, min(i, floor(ratio * (i + 1)) - built))``, ``built`` edges
    existing before it (1 before node 2)."""
    m, built, i = [], 1, 2
    # Once built = floor(ratio * i) with 1 <= ratio < i, each node brings
    # floor(ratio * (i + 1)) - floor(ratio * i), which lies in 1..i.
    while i < n and not (1 <= ratio < i and built == math.floor(ratio * i)):
        m.append(max(1, min(i, math.floor(ratio * (i + 1)) - built)))
        built += m[-1]
        i += 1
    rest = np.diff(np.floor(ratio * np.arange(i, n + 1, dtype=np.int64)))
    return np.concatenate((np.array(m, dtype=np.int64), rest.astype(np.int64)))


def check_scale_free(n: int, edge_node_ratio: float) -> None:
    """Raise InvalidParameterError unless ``make_scale_free`` takes these."""
    check_int("n", n, 3)
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
    edges = np.array([(relabel[u], relabel[v]) for u, v in edges], dtype=np.int64)
    return _build_finite(len(relabel), edges, largest_component=True)
