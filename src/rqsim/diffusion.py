"""Susceptible-infected diffusion with unit-rate exponential edge delays.

Because the delays are memoryless, drawing the next infected node by
picking a boundary edge (infected endpoint, susceptible endpoint)
uniformly at random is exactly equivalent in law to running the race of
exponential clocks, and costs O(1) amortized per step.  The spreading
rate is fixed at 1.  A snapshot is laid out on infection positions, and
this module alone decides that layout; scorers, estimators and
respondents read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import InfeasibleTargetError, InvalidInputError, check_int
from .graphs import IntegerTape, RegularTree

#: Each node's neighbours, by node id.
TreeAdjacency = Mapping[int, Sequence[int]]


@dataclass(frozen=True, eq=False)
class Snapshot:
    """An observed infection: who is infected, in what order, spread by whom.

    ``infected`` lists node ids by infection position (``infected[0]`` is
    the source), ``parent_pos[i] < i`` is the position of the node that
    infected position i (-1 at the source), and ``index`` maps each
    infected id to its position.  ``graph`` is the graph the diffusion ran
    on (``None`` for snapshots restored from JSON); when it is acyclic, or
    absent, the infected subgraph is the parent-edge tree and ``is_tree``
    holds without reading the graph.
    """

    graph: object
    infected: tuple[int, ...]
    parent_pos: Sequence[int]
    index: dict[int, int]

    @staticmethod
    def from_parents(graph, source: int, infected: Sequence[int], parent: Mapping[int, int]) -> "Snapshot":
        """Lay out an infection order and a child -> parent map; raises
        :class:`InvalidInputError` unless the order starts at ``source``,
        names no node twice and gives every later node an earlier parent."""
        if not infected or infected[0] != source:
            raise InvalidInputError("infection order must start at the source")
        index, parent_pos = {source: 0}, [-1]
        for i, v in enumerate(infected[1:], 1):
            if v in index:
                raise InvalidInputError("infection order contains duplicates")
            p = index.get(parent.get(v))  # None without a parent or with a later one
            if p is None:
                raise InvalidInputError(f"node {v} has no earlier parent in the order")
            index[v] = i
            parent_pos.append(p)
        return Snapshot(graph, tuple(infected), parent_pos, index)

    @property
    def n(self) -> int:
        return len(self.infected)

    @property
    def source(self) -> int:
        return self.infected[0]

    def require_graph(self, purpose: str):
        """``graph``; raises :class:`InvalidInputError` naming ``purpose``
        when the snapshot has none, as after :meth:`from_json`."""
        if self.graph is None:
            raise InvalidInputError(f"{purpose} needs the underlying graph, which this snapshot lacks")
        return self.graph

    def position_of(self, v: int) -> int:
        """Infection position of node ``v``; raises unless ``v`` is infected."""
        i = self.index.get(v)
        if i is None:
            raise InvalidInputError(f"node {v} is not infected")
        return i

    @cached_property
    def parent(self) -> dict[int, int]:
        """Node that infected each non-source node, by id."""
        return {v: self.infected[p] for v, p in zip(self.infected[1:], self.parent_pos[1:])}

    @cached_property
    def hops_from_source(self) -> dict[int, int]:
        """Hop distance to the source along the parent-edge tree."""
        return dict(zip(self.infected, self._tree_hops(0)))

    @property
    def _parent_edges_only(self) -> bool:
        """The infected subgraph is the parent-edge tree: the graph is acyclic or absent."""
        return self.graph is None or self.graph.acyclic

    @cached_property
    def local_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Infected neighbours of each position, as positions by ascending
        id, in int64 CSR arrays ``(ptr, nbr)``: the parent edges when the
        graph is acyclic or absent, otherwise the infected-induced subgraph
        of ``graph``, read off its arrays by one lookup of positions."""
        if self._parent_edges_only:
            child, parent = np.arange(1, self.n), np.array(self.parent_pos[1:], dtype=np.int64)
            owner, nbr = np.concatenate((child, parent)), np.concatenate((parent, child))
            rank = np.argsort(np.argsort(self.infected))  # each position's place by id
            nbr = nbr[np.lexsort((rank[nbr], owner))]
            return np.append(0, np.cumsum(np.bincount(owner, minlength=self.n))), nbr
        indptr, indices = self.graph.indptr, self.graph.indices
        ids = np.array(self.infected)
        first, width = indptr[ids], np.diff(indptr)[ids]
        start = np.cumsum(width) - width
        position = np.full(indptr.size - 1, -1)
        position[ids] = np.arange(self.n)
        at = position[indices[np.repeat(first - start, width) + np.arange(width.sum())]]
        kept = np.append(0, np.cumsum(at >= 0))  # infected neighbours before each entry
        return kept[np.append(start, at.size)], at[at >= 0]

    def hop_order(self, centre: int) -> list[int]:
        """Every infected id by hop distance from infected node ``centre``
        in the infected subgraph, ties by ascending id; computed once per
        centre and shared by every caller."""
        order = self._hop_orders.get(centre)
        if order is None:
            ids = np.array(self.infected)
            hops = self._hops_from(self.position_of(centre))
            order = self._hop_orders[centre] = ids[np.lexsort((ids, hops))].tolist()
        return order

    def _hops_from(self, at: int) -> list[int]:
        """Hop distance of each position from position ``at`` in the
        infected subgraph: along the breadth-first tree of
        :attr:`local_csr`, or read off ``parent_pos`` when that is the
        parent-edge tree."""
        if self._parent_edges_only:
            return self._tree_hops(at)
        order, parent_place = breadth_first(self.local_csr, at)
        hops = [0] * self.n
        for u, p in zip(order[1:], parent_place[1:]):
            hops[u] = hops[order[p]] + 1
        return hops

    def _tree_hops(self, at: int) -> list[int]:
        """Hop distance of each position from position ``at`` along the
        parent edges."""
        hops = [-1] * self.n
        k = 0
        while at >= 0:  # ``at`` and its ancestors
            hops[at] = k
            at, k = self.parent_pos[at], k + 1
        # Any other node's path to ``at`` starts with its parent edge.
        for i, p in enumerate(self.parent_pos):
            if hops[i] < 0:
                hops[i] = hops[p] + 1
        return hops

    @cached_property
    def _hop_orders(self) -> dict[int, list[int]]:
        return {}

    @cached_property
    def respondents(self) -> dict[int, tuple]:
        """(neighbours, parent id or None at the source) of each infected
        node queried so far, filled by the respondent model on first use."""
        return {}

    @property
    def induced_edge_count(self) -> int:
        if self._parent_edges_only:
            return self.n - 1
        return self.local_csr[1].size // 2

    @property
    def is_tree(self) -> bool:
        """True when the infected-induced subgraph is itself a tree."""
        return self.induced_edge_count == self.n - 1

    def to_json(self) -> str:
        """Serialize to JSON (``source``, ``infected_order``, ``parent_pairs``)."""
        return json.dumps({"source": self.source, "infected_order": list(self.infected),
                           "parent_pairs": sorted(self.parent.items())})

    @staticmethod
    def from_json(text_or_fp: str | IO[str]) -> "Snapshot":
        """Rebuild a graph-less snapshot from :meth:`to_json` output; raises
        :class:`InvalidInputError` on any document it could not have written."""
        try:
            doc = json.load(text_or_fp) if hasattr(text_or_fp, "read") else json.loads(text_or_fp)
            source = _node_id(doc["source"])
            order = [_node_id(v) for v in doc["infected_order"]]
            pairs = [(_node_id(c), _node_id(p)) for c, p in doc["parent_pairs"]]
        except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise InvalidInputError(f"malformed snapshot document: {exc!r}") from None
        snap = Snapshot.from_parents(None, source, order, dict(pairs))
        # Every later node has an entry, so one more names the source, a
        # node outside the order, or a node twice.
        if len(pairs) != snap.n - 1:
            raise InvalidInputError("need exactly one parent entry per non-source infected node")
        return snap


def breadth_first(adj: TreeAdjacency | tuple[np.ndarray, np.ndarray], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root`` and each node's parent's place in
    it.  ``adj`` maps each node to its neighbours, or is a CSR pair
    ``(ptr, nbr)`` over nodes 0..n-1 such as :attr:`Snapshot.local_csr`;
    each node's neighbours are walked in the order listed, which is by
    ascending id in a snapshot's.  Raises :class:`InvalidInputError` unless
    the walk reaches every node."""
    if isinstance(adj, tuple):
        ptr, nbr = adj[0].tolist(), adj[1].tolist()
        adj = [nbr[a:b] for a, b in zip(ptr, ptr[1:])]
    seen = {root}
    order, parent_place = [root], [-1]
    for i, u in enumerate(order):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                parent_place.append(i)
    if len(order) != len(adj):
        raise InvalidInputError("adjacency is not connected")
    return order, parent_place


def _node_id(x) -> int:
    """A node id read from JSON: an integer, not a float, string or boolean."""
    if type(x) is not int:
        raise TypeError(f"node id {x!r} is not an integer")
    return x


def simulate_si(graph, source: int, n_target: int, rng: np.random.Generator) -> Snapshot:
    """Spread from ``source`` until exactly ``n_target`` nodes are infected.

    Each step selects one boundary edge uniformly at random; its infected
    endpoint becomes the new node's parent.  Raises
    :class:`InfeasibleTargetError` when the reachable component is smaller
    than ``n_target``, and :class:`InvalidInputError` when a finite graph's
    ``source`` is not an int node id.  A fresh :class:`RegularTree` spread
    from its root takes :func:`_spread_on_fresh_tree`, which draws the same
    numbers and returns the same snapshot and tree.  Any other spread takes
    its picks from an :class:`IntegerTape`: the numbers of one
    ``rng.integers`` call per pick, with ``rng`` left where those calls
    leave it, also when the spread raises.
    """
    check_int("n_target", n_target, 1)
    if graph.is_finite and not (type(source) is int and 0 <= source < graph.n):
        raise InvalidInputError(f"source {source!r} is not a node id in 0..{graph.n - 1}")
    if isinstance(graph, RegularTree) and source == 0 and graph.is_fresh:
        return _spread_on_fresh_tree(graph, n_target, rng)
    index, parent_pos = {source: 0}, [-1]  # index keeps the infection order
    # Boundary edge i runs from position held[i] to susceptible node target[i]:
    # two flat lists, so that an edge costs no tuple.
    target = list(graph.neighbors(source))
    held = [0] * len(target)

    with IntegerTape(rng, n_target) as tape:
        below = tape.below
        while len(index) < n_target:
            # Stale entries (already-infected targets) are discarded lazily;
            # redrawing keeps the pick uniform over the live boundary.
            while target:
                i = below(len(target))
                u, v = held[i], target[i]
                target[i] = target[-1]
                target.pop()
                held[i] = held[-1]
                held.pop()
                if v not in index:
                    break
            else:
                raise InfeasibleTargetError(
                    f"reachable component exhausted at {len(index)} < {n_target} nodes"
                )
            index[v] = pos = len(index)
            parent_pos.append(u)
            for w in graph.neighbors(v):
                if w not in index:
                    target.append(w)
                    held.append(pos)

    return Snapshot(graph, tuple(index), parent_pos, index)


def _spread_on_fresh_tree(tree: RegularTree, n_target: int, rng: np.random.Generator) -> Snapshot:
    """:func:`simulate_si` from the root of a fresh regular tree, all picks
    drawn at once.

    On a tree each susceptible node has one infected neighbour, so no
    boundary entry goes stale and the k-th pick is uniform over
    ``d + (k - 1)(d - 2)`` edges.  One broadcast ``rng.integers`` call draws
    every pick and leaves ``rng`` where the scalar calls would.  The
    boundary holds bare child ids, as the tree numbers them once it
    expands the nodes in infection order, so that infection positions are
    the tree's places.

    The k-th pick takes entry i of a boundary of ``last + 1`` entries;
    the last entry moves into its place, and the k-th infected node's
    children join: the first at ``last``, the other ``d - 2`` after it.
    That is the list ``pop()`` and ``+= children`` would build, written
    in place: every id that joins after the first child is known in
    advance, so the list starts with them in the places they will take.
    """
    d = tree.d
    picks = rng.integers(0, d + (d - 2) * np.arange(n_target - 1, dtype=np.int64))
    # Row k - 1 holds the ids of the k-th infected node's children.
    children = np.arange(d + 1, d + 1 + (n_target - 1) * (d - 1)).reshape(-1, d - 1)
    boundary, infected = [*range(1, d + 1), *children[:, 1:].ravel().tolist()], [0]
    for i, last, first in zip(picks.tolist(), count(d - 1, d - 2), children[:, 0].tolist()):
        infected.append(boundary[i])
        boundary[i] = boundary[last]
        boundary[last] = first
    tree.expand_in_order(infected)
    parent_pos = [-1, *tree.parent_place(np.array(infected[1:], dtype=np.int64)).tolist()]
    # The fresh tree's place map is now the infection index; a copy, as the
    # tree's own map grows with later visits.
    return Snapshot(tree, tuple(infected), parent_pos, tree._place.copy())


@lru_cache(maxsize=1)
def _distance_tables(d: int, k: int) -> tuple[list[int], int]:
    """The elementary symmetric sums e_0..e_{k-2} of x_i = 1 + i(d-2), i =
    1..k-2, and the number of size-k infection orderings, by one-row
    dynamic programming in exact integers.  Every l of one law reads these,
    so they are built once per (d, k)."""
    a = k - 2
    e = [1] + [0] * a
    for i in range(1, a + 1):
        x = 1 + i * (d - 2)
        for j in range(i, 0, -1):
            e[j] += x * e[j - 1]
    return e, math.prod(2 + j * (d - 2) for j in range(1, k))


def distance_distribution(d: int, k: int, l: int) -> float:
    """P(the k-th infected node sits l hops from the source) on a d-regular tree.

    Exact closed form: the number of size-k infection topologies placing
    the k-th node at distance l, over the total number of topologies.
    Returns 0.0 for an integer l outside [1, k-1].
    """
    check_int("d", d, 3)
    check_int("k", k, 2)
    check_int("l", l)
    if not 1 <= l <= k - 1:
        return 0.0
    sums, den = _distance_tables(d, k)
    return sums[k - l - 1] * d * (d - 1) ** (l - 1) / den
