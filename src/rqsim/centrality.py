"""Infection-ordering likelihood scores over a snapshot.

For a tree-shaped infected set, the score of node ``v`` is the number of
infection orderings that start at ``v`` and respect adjacency:
``N! * prod(1 / T_u)`` over subtree sizes ``T_u`` with the tree rooted at
``v``; one pass over a snapshot's parent positions gives every score.
Everything is kept in log domain (N = 400 overflows any fixed width
otherwise).  A subset-DP oracle recounts orderings directly for
small trees, and a sequence-likelihood heuristic covers loopy graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diffusion import Snapshot
from .errors import InvalidInputError, InvalidParameterError

TreeAdjacency = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class CentralityTable:
    """Log-scores for every infected node plus the argmax node (ties to the lowest id)."""

    log_r: dict[int, float]
    center: int


def _root_pass(adj: TreeAdjacency, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root`` and each node's parent's place in it."""
    at = {root: 0}
    order, parent_pos = [root], [-1]
    for u in order:
        for v in adj[u]:
            if v not in at:
                at[v] = len(order)
                order.append(v)
                parent_pos.append(at[u])
    if len(order) != len(adj):
        raise InvalidInputError("adjacency is not connected")
    return order, parent_pos


def _rooted(tree: Snapshot | TreeAdjacency, root: int | None = None) -> tuple[Sequence[int], Sequence[int]]:
    """Nodes of ``tree`` parent before child from ``root``, and each one's
    parent position.  Without a root a snapshot keeps its infection order
    and a mapping starts from its lowest id."""
    if not isinstance(tree, Snapshot):
        if not tree:
            raise InvalidInputError("empty tree")
        return _root_pass(tree, min(tree) if root is None else root)
    if not tree.is_tree:
        raise InvalidInputError("infected subgraph is not a tree")
    if root is None:
        return tree.infected, tree.parent_pos
    order, parent_pos = _root_pass(tree.local_adjacency, tree.position_of(root))
    return [tree.infected[i] for i in order], parent_pos


def _sizes(parent_pos: Sequence[int]) -> list[int]:
    """Subtree sizes of a tree listed parent before child, rooted at entry 0."""
    size = [1] * len(parent_pos)
    for i in range(len(parent_pos) - 1, 0, -1):
        size[parent_pos[i]] += size[i]
    return size


def subtree_sizes(tree: Snapshot | TreeAdjacency, root: int) -> dict[int, int]:
    """Size of the subtree hanging below each node when rooted at ``root``."""
    order, parent_pos = _rooted(tree, root)
    return dict(zip(order, _sizes(parent_pos)))


def _tree_scores(parent_pos: Sequence[int]) -> list[float]:
    """Log score of every node of a tree listed parent before child: the
    subtree sizes below entry 0 give its score, and rerooting across an
    edge (parent -> child c) multiplies the score by T_c / (N - T_c)."""
    n = len(parent_pos)
    size = _sizes(parent_pos)
    log = [0.0, *map(math.log, range(1, n + 1))]
    log_r = [math.lgamma(n + 1) - math.fsum(map(log.__getitem__, size))]
    for p, s in zip(parent_pos[1:], size[1:]):
        log_r.append(log_r[p] + log[s] - log[n - s])
    return log_r


def log_rumor_centralities(tree: Snapshot | TreeAdjacency) -> CentralityTable:
    """Log ordering-count score for every node of a tree, in O(N).

    A snapshot is read straight from its parent positions, a mapping from a
    breadth-first pass from its lowest id.
    """
    ids, parent_pos = _rooted(tree)
    log_r = dict(zip(ids, _tree_scores(parent_pos)))
    return CentralityTable(log_r=log_r, center=pick_best(log_r, log_r))


def brute_force_rumor_centrality(tree: Snapshot | TreeAdjacency, root: int) -> int:
    """Count infection orderings starting at ``root`` by subset dynamic programming.

    Counts permutations of the nodes in which every node appears after its
    tree parent; intentionally avoids the product formula so it can serve
    as an independent oracle.  Refuses trees above 10 nodes.
    """
    _, parent_pos = _rooted(tree, root)
    n = len(parent_pos)
    if n > 10:
        raise InvalidParameterError(f"brute force limited to 10 nodes, got {n}")
    full = (1 << n) - 1

    @cache
    def ways(infected_mask: int) -> int:
        # Orderings of the rest, given the infected set; a node can come
        # next once its parent is in.  The root is entry 0.
        if infected_mask == full:
            return 1
        return sum(ways(infected_mask | 1 << i) for i in range(1, n)
                   if not infected_mask >> i & 1 and infected_mask >> parent_pos[i] & 1)

    return ways(1)


def general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles.

    For each candidate root ``v``: take the BFS tree over the infected set
    (discovery order sigma, neighbour ties by ascending id), score it as
    log P(sigma | v) plus the tree ordering-count score of the BFS tree.
    P(sigma | v) is the spreading likelihood of that order: at each step,
    (edges from the current infected prefix to the next node) / (all
    boundary edges of the prefix in the underlying graph).  Costs
    O(N * (N + E_induced)); reads only the induced subgraph and degrees.

    Roots are taken in blocks of ``BLOCK_ENTRIES // (2 * E_induced)``, and
    one level-synchronous BFS serves a whole block (:func:`_bfs_block`).
    Each root's two sums of logarithms are exact and rounded once
    (:func:`_log_sums`), so roots with equal counts tie exactly and the
    lowest id wins.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, adj = snapshot.infected, snapshot.local_adjacency  # neighbour ties by ascending id
    targets = _positions(snapshot, nodes)
    n = len(ids)
    deg = np.array([graph.degree(v) for v in ids], dtype=np.int64)
    width = np.array(list(map(len, adj)), dtype=np.int64)
    stop = np.cumsum(width)
    nbr = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(stop[-1]))
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, BLOCK_ENTRIES // max(nbr.size, 1))

    scores: dict[int, float] = {}
    for b in range(0, len(targets), rows):
        roots = targets[b:b + rows]
        links, rank, size = _bfs_block(np.array(roots, dtype=np.int64), stop, width, nbr)
        log_links = _log_sums(table, links)
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        bounds = np.empty_like(links)
        np.put_along_axis(bounds, rank, deg - 2 * links, axis=1)
        del links, rank
        np.cumsum(bounds, axis=1, out=bounds)
        log_den = _log_sums(table, bounds[:, :-1], size)
        del bounds, size
        for root, num, den in zip(roots, log_links, log_den):
            scores[ids[root]] = log_n_factorial + num - den
    return scores


#: Roots scored together: a block expands at most this many (root,
#: directed induced edge) entries, or one root's if that is more.
BLOCK_ENTRIES = 1 << 15

_ONE = 1 << 53  # log k >= log 2 > 1/2 for k >= 2, so it is a multiple of 1 / _ONE
_HALF = 28
_UNREACHED = 1 << 62


def _log_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """``log k`` for 0 < k < size, and 0 at k = 0, as integers in units of
    ``1 / _ONE``, split into high and low 28-bit halves so that sums of
    thousands of entries stay inside int64.

    One table is kept per process and grown by doubling; the result is a
    view of its first ``size`` entries."""
    global _LOG_TABLE
    have = _LOG_TABLE[0].size
    if have < size:
        scaled = np.array([*map(math.log, range(have, max(size, 2 * have)))]) * _ONE
        fixed = scaled.astype(np.int64)
        if not np.array_equal(fixed, scaled):
            raise ArithmeticError("a log table entry is not a multiple of 2**-53")
        _LOG_TABLE = tuple(np.concatenate((old, new)) for old, new in
                           zip(_LOG_TABLE, (fixed >> _HALF, fixed & ((1 << _HALF) - 1))))
    return _LOG_TABLE[0][:size], _LOG_TABLE[1][:size]


#: The (high, low) halves of every ``log k`` computed so far; entry 0 is 0.
_LOG_TABLE = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))


def _log_sums(table: tuple[np.ndarray, np.ndarray], *parts: np.ndarray) -> list[float]:
    """Per row, the sum of the table entries that ``parts`` index, summed
    exactly and rounded once: the correctly rounded sum, as ``math.fsum``
    gives it."""
    high, low = (sum(half[part].sum(axis=1) for part in parts) for half in table)
    return [((h << _HALF) + lo) / _ONE for h, lo in zip(high.tolist(), low.tolist())]


def _bfs_block(roots: np.ndarray, stop: np.ndarray, width: np.ndarray,
               nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS from every root of a block at once over the CSR adjacency
    (``nbr[stop[u] - width[u]:stop[u]]``, ascending ids), one level at a
    time over a flat frontier of cells ``row * n + node``, in row order.

    Returns (rows, n) arrays: each node's count of neighbours earlier in
    its root's BFS order, its place in that order, and its BFS subtree size.
    """
    n, r = len(width), len(roots)
    cells = r * n
    rank = np.full(cells, _UNREACHED, dtype=np.int64)
    links = np.zeros(cells, dtype=np.int64)
    count = np.ones(r, dtype=np.int64)
    f_row = np.arange(r, dtype=np.int64)
    f_node, f_rank, f_cell = roots, np.zeros(r, dtype=np.int64), f_row * n + roots
    rank[f_cell] = 0
    levels = []
    while f_node.size:
        # Expand the frontier in (row, BFS place, neighbour id) order: the
        # order in which one root's sequential BFS scans these edges.
        k = width[f_node]
        ends = np.cumsum(k)
        src = np.repeat(np.arange(f_node.size, dtype=np.int64), k)
        e_cell = nbr[np.arange(int(ends[-1]), dtype=np.int64) + (stop[f_node] - ends)[src]]
        e_cell += (f_row * n)[src]
        e_rank = rank[e_cell]
        # Each edge counts once, toward its later endpoint.
        later = e_rank > f_rank[src]
        del src  # edge-sized arrays go as soon as used: they set the peak memory
        fresh = (e_rank == _UNREACHED).nonzero()[0]
        del e_rank
        np.add.at(links, e_cell[later], 1)
        cand = e_cell[fresh]
        del later, e_cell
        # An unreached node's first occurrence, the one left holding the
        # smallest stamp, discovers it: that fixes its parent and its place,
        # so ties go to the lowest id as in a sequential BFS.
        stamp = np.arange(_UNREACHED - cand.size, _UNREACHED, dtype=np.int64)
        np.minimum.at(rank, cand, stamp)
        hit = rank[cand] == stamp
        new_cell = cand[hit]
        parent = np.searchsorted(ends, fresh[hit], side="right")  # the frontier entry that found it
        del fresh, cand, stamp, hit
        new_row = f_row[parent]
        # Places continue each row's count; the new cells are sorted by row.
        per_row = np.bincount(new_row, minlength=r)
        count += per_row
        new_rank = np.arange(new_cell.size, dtype=np.int64) + (count - np.cumsum(per_row))[new_row]
        rank[new_cell] = new_rank
        levels.append((new_cell, f_cell[parent]))
        f_row, f_node, f_rank, f_cell = new_row, new_cell - new_row * n, new_rank, new_cell
    if count.min() < n:
        raise InvalidInputError("infected set is disconnected")
    # Subtree sizes, deepest level first.
    size = np.ones(cells, dtype=np.int64)
    while levels:
        cell, parent = levels.pop()
        np.add.at(size, parent, size[cell])
    return links.reshape(r, n), rank.reshape(r, n), size.reshape(r, n)


def _positions(snapshot: Snapshot, nodes: Iterable[int] | None) -> list[int]:
    """Positions of ``nodes`` (default: every infected node) by ascending id."""
    return [snapshot.position_of(v) for v in sorted(snapshot.infected if nodes is None else set(nodes))]


def likelihood_table(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Snapshot log-likelihood by source candidate.

    Tree-shaped infected sets get the exact ordering-count score; loopy
    ones fall back to the BFS-tree heuristic.
    """
    if not snapshot.is_tree:
        return general_graph_scores(snapshot, nodes)
    log_r = _tree_scores(snapshot.parent_pos)
    if nodes is None:
        return dict(zip(snapshot.infected, log_r))
    return {snapshot.infected[i]: log_r[i] for i in _positions(snapshot, nodes)}


def pick_best(scores: Mapping[int, float], pool: Iterable[int]) -> int:
    """Highest-scoring node of ``pool``; ties go to the lowest node id."""
    nodes = list(pool)
    values = list(map(scores.__getitem__, nodes))
    if not values:
        raise InvalidInputError("empty candidate pool")
    top = max(values)
    if values.count(top) == 1:
        return nodes[values.index(top)]
    return min(v for v, s in zip(nodes, values) if s == top)
