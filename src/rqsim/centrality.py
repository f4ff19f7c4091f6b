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
import threading
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diffusion import Snapshot, TreeAdjacency, breadth_first
from .errors import InvalidInputError, InvalidParameterError


@dataclass(frozen=True)
class CentralityTable:
    """Log-scores for every infected node plus the argmax node (ties to the lowest id)."""

    log_r: dict[int, float]
    center: int


def _rooted(tree: Snapshot | TreeAdjacency, root: int | None = None) -> tuple[Sequence[int], Sequence[int]]:
    """Nodes of ``tree`` parent before child from ``root``, and each one's
    parent position.  Without a root a snapshot keeps its infection order
    and a mapping starts from its lowest id.  A mapping must list each
    edge from both ends, once each, between two of its keys, and have no
    cycle."""
    if not isinstance(tree, Snapshot):
        if not tree:
            raise InvalidInputError("empty tree")
        edges = {(u, v) for u, near in tree.items() for v in near}
        for u, v in edges:
            if v not in tree or u == v or (v, u) not in edges:
                raise InvalidInputError(f"tree mapping: node {u} lists {v}, which is not another node listing {u}")
        if len(edges) != sum(map(len, tree.values())):
            raise InvalidInputError("tree mapping lists a neighbour twice")
        if len(edges) > 2 * len(tree) - 2:  # fewer edges: the walk below finds it disconnected
            raise InvalidInputError("tree mapping has a cycle")
        if root is not None and root not in tree:
            raise InvalidInputError(f"root {root} is not a node of the tree")
        return breadth_first(tree, min(tree) if root is None else root)
    if not tree.is_tree:
        raise InvalidInputError("infected subgraph is not a tree")
    if root is None:
        return tree.infected, tree.parent_pos
    order, parent_pos = breadth_first(tree.local_csr, tree.position_of(root))
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
    log = (_log_table(n + 1) / _ONE).tolist()  # exact: each entry is a float times 2**53
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
    boundary edges of the prefix in the underlying graph).  Reads only the
    induced subgraph and degrees.

    One preparation, one finder of BFS orders and one tail.  The
    preparation folds the leaves (one infected neighbour, when N > 2) into
    their hubs: a leaf's BFS order is its hub's with the leaf moved to the
    front, so only the n_r other nodes are BFS roots, and a leaf is never
    the first hop ``NH[v, u]`` (below) for any ``u`` but itself, as a path
    through it could not leave it.  The nodes become columns: the
    non-leaves by falling count of non-leaf neighbours, each keeping its
    neighbours in id order, then the leaves.  The finder
    (:func:`_dense_orders`) gives every non-leaf root's BFS places,
    subtree sizes and counts of earlier non-leaf neighbours at once from
    all-pairs distances.  It rests on one fact: with ties by ascending id,
    the BFS path from ``v`` to ``u`` is the lexicographically smallest
    shortest path, so it starts at ``a = NH[v, u]``, the lowest-id
    neighbour of ``v`` one step closer to ``u``, and goes on as ``a``'s
    own path.  So for d(v, u) >= 2 the BFS parent of ``u`` from ``v`` is
    its parent from ``a``.

    The tail (:func:`_sum_scores`) turns each range of roots into its
    prefix boundaries and its two sums of logarithms per root, exact and
    rounded once (:func:`_wrapped_sums`, :func:`_rounded`), so roots with
    equal counts tie exactly and the lowest id wins, and scores each leaf
    from its hub's row (:func:`_leaf_shifts`).  Every root is scored;
    ``nodes`` selects from the table.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, (ptr, nbr) = snapshot.infected, snapshot.local_csr  # neighbour ties by ascending id
    n = len(ids)
    if 2 * n > _ROW_LIMIT:  # a denominator row holds 2n - 1 logarithms
        raise InvalidInputError(f"{n} infected nodes: too many to score exactly")
    targets = np.argsort(ids) if nodes is None else np.array(_positions(snapshot, nodes), dtype=np.int64)
    if not targets.size:
        return {}
    width = np.diff(ptr)
    leaf = (width == 1) & (n > 2)
    hub = nbr[ptr[:-1][leaf]]  # each leaf's one neighbour, by position
    # A node with no infected neighbour, or two leaves joined (a component
    # of two nodes).
    if n > 1 and not width.all() or leaf[hub].any():
        raise InvalidInputError("infected set is disconnected")
    deg = np.take(np.diff(graph.indptr), ids) if graph.is_finite else np.full(n, graph.max_degree())
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    hung = np.bincount(hub, minlength=n)  # each node's leaves
    col = np.argsort(np.where(leaf, n, hung - width), kind="stable")  # leaves last, in infection order
    n_r = n - hub.size
    node, edge = np.min_scalar_type(n), np.min_scalar_type(nbr.size)
    label = np.argsort(col).astype(node)  # each position's column
    width, deg, hung = width[col], deg[col], hung[col[:n_r]]
    start = np.cumsum(width) - width
    at = np.repeat(ptr[col] - start, width)
    at += np.arange(nbr.size)
    nbr = label.take(nbr.take(at))  # still by id
    del at
    owner = np.repeat(np.arange(n, dtype=node), width)
    hub = nbr.take(start[n_r:]).astype(np.int64)  # by column
    r_width = width[:n_r] - hung
    r_start = np.cumsum(r_width) - r_width
    runs = nbr[:width[:n_r].sum()]  # the non-leaves' neighbour runs
    near = np.flatnonzero(runs < n_r).astype(edge)  # entries between non-leaves
    r_nbr = nbr.take(near)
    leaf_entry = np.zeros(n, dtype=edge)  # by column: the entry from a leaf's hub to it
    hanging = np.flatnonzero(runs >= n_r)
    leaf_entry[nbr.take(hanging)] = hanging
    place, size, links = _dense_orders(nbr, owner, near, r_nbr, r_start, r_width, hub, hung, leaf_entry)
    scores = _sum_scores(place, size, links, deg, hub, leaf_entry[n_r:] - start.take(hub) + 1, table)
    return dict(zip(map(ids.__getitem__, targets.tolist()), scores[label[targets]].tolist()))


def _sum_scores(place: np.ndarray, size: np.ndarray, links: np.ndarray, deg: np.ndarray, hub: np.ndarray,
                leaf_place: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every node's score, by column, from what the finder gives: the
    (n_r, n) BFS places of every node from each non-leaf root, the (n_r,
    n_r) subtree sizes of the non-leaves by root, and their counts of
    earlier neighbours by node (``links[u, v]``), taken a range of whole
    rows of at most ``_DENSE_CELLS`` cells (or one row) at a time.
    ``hub`` is each leaf's hub and ``leaf_place`` its place in its hub's
    order.

    A leaf comes after its hub in a non-leaf root's order, so a non-leaf's
    earlier neighbours are non-leaves, and a leaf's subtree size and count
    of earlier neighbours are 1, which adds no logarithm.  A leaf root is
    scored from its hub's row (:func:`_leaf_shifts`).

    A row's prefix boundaries are the running sum of its boundary steps in
    BFS order: each node's ``deg - 2 * earlier`` (``deg - 2`` for a leaf)
    put at its place in the row, by one (row, place) index for the
    non-leaves and one for the leaves."""
    n, n_r = deg.size, deg.size - hub.size
    scores = np.empty(n)
    span = max(1, _DENSE_CELLS // n)  # roots, or leaves, at a time
    by_hub = np.argsort(hub, kind="stable")
    hubs = hub[by_hub]
    for v0 in range(0, n_r, span):
        v1 = min(v0 + span, n_r)
        earlier = np.ascontiguousarray(links[:, v0:v1].T)
        top = math.lgamma(n + 1) + _rounded(*_wrapped_sums(table, earlier))
        bounds = np.empty((v1 - v0, n), dtype=np.int64)
        rows = np.arange(v1 - v0)[:, None]
        bounds[rows, place[v0:v1, :n_r]] = deg[:n_r] - earlier - earlier  # 2 * earlier may wrap
        bounds[rows, place[v0:v1, n_r:]] = deg[n_r:] - 2
        np.cumsum(bounds, axis=1, out=bounds)
        den = _wrapped_sums(table, bounds[:, :-1], size[v0:v1])
        scores[v0:v1] = top - _rounded(*den)
        lo, hi = np.searchsorted(hubs, (v0, v1))
        for a in range(lo, hi, span):
            w = by_hub[a:min(a + span, hi)]
            row = hub[w] - v0
            shifts = _leaf_shifts(table, bounds, row, leaf_place[w], deg[w + n_r])
            scores[w + n_r] = top[row] - _rounded(*(total[row] + shift for total, shift in zip(den, shifts)))
    return scores


def _leaf_shifts(table: np.ndarray, bounds: np.ndarray, row: np.ndarray,
                 m: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What to add to the (wrapped, float) denominator sums of rows ``row``
    of a range (:func:`_wrapped_sums`) to get those of leaves hung on the
    rows' roots: ``bounds`` holds each row's prefix boundaries B_k (k =
    1..n, column k - 1), ``d`` is each leaf's degree and ``m`` its place in
    its neighbour's BFS order.

    A leaf's BFS order is its neighbour's with the leaf moved to the front.
    The earlier-neighbour counts are the same numbers.  The subtree sizes
    gain log(n - 1): rooted at the leaf, the neighbour has n - 1 nodes
    below it and the leaf n, where they had n and 1.  Of the boundaries,
    B_1..B_{m+1} make way for d and B_j + d - 2 (j = 1..m), and the rest
    are the same.  At m = n - 1 this also adds B_{n-1} + d - 2 and takes
    away B_n, the whole set's boundary: the same number, as the leaf is
    then its neighbour's last node.  The wrapped sum stays exact modulo
    2**64, so the leaf's sum is exact before its one rounding."""
    n = bounds.shape[1]
    ends = np.cumsum(m)
    first = ends - m
    # Each leaf's B_1..B_m, one run per leaf, read off the flat bounds.
    old = bounds.take(np.arange(ends[-1]) + np.repeat(row * n - first, m))
    gain = table[old + np.repeat(d - 2, m)] - table[old]
    rest = table[d] + table[n - 1] - table[bounds[row, m]]
    return np.add.reduceat(gain, first) + rest, np.add.reduceat(gain, first, dtype=np.float64) + rest


_ONE = 1 << 53  # log k >= log 2 > 1/2 for k >= 2, so it is a multiple of 1 / _ONE
_ROW_LIMIT = 1 << 23  # rows of fewer table entries sum below 2**82: _rounded is exact


def _log_table(size: int) -> np.ndarray:
    """``log k`` for 0 < k < size, and 0 at k = 0, as int64 integers in
    units of ``1 / _ONE``: every entry is exact.

    One table is kept per process and grown by doubling, here and nowhere
    else; the result is a view of its first ``size`` entries.  A caller
    reads the kept table once and takes no lock unless it must grow it;
    growing happens under ``_LOG_LOCK``, so threads that grow the table
    at once never replace it by a shorter one."""
    global _LOG_TABLE
    kept = _LOG_TABLE
    if kept.size < size:
        with _LOG_LOCK:
            kept = _LOG_TABLE
            if kept.size < size:
                grown = range(kept.size, max(size, 2 * kept.size))
                scaled = np.fromiter(map(math.log, grown), np.float64, len(grown)) * _ONE
                fixed = scaled.astype(np.int64)
                if not np.array_equal(fixed, scaled):
                    raise ArithmeticError("a log table entry is not a multiple of 2**-53")
                kept = _LOG_TABLE = np.concatenate((kept, fixed))
    return kept[:size]


#: Every ``log k`` computed so far, times ``_ONE``; entry 0 is 0.
_LOG_TABLE = np.zeros(1, dtype=np.int64)
_LOG_LOCK = threading.Lock()


def _wrapped_sums(table: np.ndarray, *parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the sum of the table entries that ``parts`` index, twice:
    in int64, exact modulo 2**64, and in float64.  An entry is below 2**59,
    so the float64 sum of a row of m < ``_ROW_LIMIT`` entries is off by
    less than m**2 * 2**6 <= 2**52; :func:`_rounded` recovers the exact
    sum from the two and rounds it once."""
    sums = [(p.sum(axis=1), p.sum(axis=1, dtype=np.float64)) for p in map(table.take, parts)]
    return sum(w for w, _ in sums), sum(a for _, a in sums)


def _rounded(wrapped: np.ndarray, approx: np.ndarray) -> np.ndarray:
    """Each exact sum S (in units of 2**-53) rounded once, from its int64
    sum ``wrapped`` (S modulo 2**64) and its float64 sum ``approx`` (within
    2**62 of S).  S = k * 2**64 + wrapped = hi * 2**30 + lo, 0 <= lo < 2**30:
    below 2**83, hi * 2**30 is an exact float, adding lo rounds once and
    dividing by 2**53 is exact, so each result is ``math.fsum``'s."""
    k = np.rint((approx - wrapped) / 2**64).astype(np.int64)
    hi = (k << 34) + (wrapped >> 30)
    return (hi * 2.0**30 + (wrapped & ((1 << 30) - 1))) / _ONE


def _dense_orders(nbr: np.ndarray, owner: np.ndarray, near: np.ndarray, r_nbr: np.ndarray, r_start: np.ndarray,
                  r_width: np.ndarray, hub: np.ndarray, hung: np.ndarray,
                  leaf_entry: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-leaf root's BFS places, subtree sizes and counts of
    earlier non-leaf neighbours (as :func:`_sum_scores` reads them), found
    at once (the lemma of :func:`general_graph_scores`).

    The dynamic program runs over the n_r non-leaf nodes: their distances
    (:func:`_distances`), each root's first hop towards each node, and,
    level by level, each node's BFS parent, carried from the first hop's
    as the entry of the parent's neighbour run that reaches it.  Level d
    of a root's order lists its nodes by (parent's place, id), and a leaf
    (``hub`` and ``leaf_entry`` say where it hangs) sits one level below
    its hub: so one sort puts each level's non-leaf cells and the leaves
    of the level above in order, which places every node among all n.
    Subtree sizes start at 1 plus the node's leaves (``hung``) and are
    summed level by level, deepest first.

    The (root, node) cells are sorted by (level, kind, root, node) once,
    and one ``searchsorted`` of those keys gives the boundary table
    ``bound``: where each root's cells of each level and kind start, and
    where each (level, kind) group ends.  Each level is taken in root
    ranges of at most ``_DENSE_CELLS`` cells, and of few enough roots for
    the level's sort keys (:func:`_cuts`), whose starts, lengths and
    per-root counts the table gives.  The
    non-leaves' order by falling count of non-leaf neighbours (``r_width``)
    makes the nodes with a j-th non-leaf neighbour the first rows, so each
    pass over j-th neighbours reads row slices.  Node and entry tables are
    kept in the narrowest unsigned type, and the packed sort keys take
    their width from the snapshot.  A snapshot whose keys no
    ``_KEY_BITS``-bit key holds, far past any whose n_r * n cells fit in
    memory, is refused."""
    n, n_r = leaf_entry.size, r_start.size
    node, edge = owner.dtype, near.dtype
    have = (n_r - np.cumsum(np.bincount(r_width))[:-1]).tolist()  # have[j]: nodes with a j-th (from 0)
    dist = _distances(r_start, r_width, r_nbr)

    # hop[v, u] = j: v's first hop towards u, NH[v, u], is its j-th
    # non-leaf neighbour, so j counts the neighbours before it, none of
    # them nearer.
    hop = np.zeros((n_r, n_r), np.min_scalar_type(r_width[0]))
    unfound = np.ones((n_r, n_r), dtype=bool)
    farther = np.empty((n_r, n_r), dtype=bool)
    for j, c in enumerate(have):
        np.greater_equal(dist.take(r_nbr[r_start[:c] + j], axis=0), dist[:c], out=farther[:c])
        unfound[:c] &= farther[:c]
        hop[:c] += unfound[:c]
    del unfound, farther

    # The cells (v, w) sorted by their keys ((2d + k) << v_bits | v) <<
    # w_bits | w, for level d and kind k (1 for leaves): a leaf is one
    # level below its hub, so 2d + k < 2 * max(dist) + 4, which bounds
    # every key below, the ends of the last group included.  The keys are
    # 32 bits wide while they fit, else 64.  cols keeps each cell's w;
    # bound[d, k, v] is where root v's cells of level d and kind k start,
    # and bound[d, k, n_r] where they end (when n_r = 2**v_bits, the next
    # group's first key is that end's key).
    w_bits, v_bits = (n - 1).bit_length(), (n_r - 1).bit_length()
    wide = np.uint32 if _key_bits((2 * int(dist.max()) + 4).bit_length() + v_bits + w_bits) <= 32 else np.uint64
    cells = np.empty((n_r, n), dtype=wide)
    np.left_shift(dist, w_bits + v_bits + 1, out=cells[:, :n_r], dtype=wide)
    np.left_shift(dist.take(hub, axis=1), w_bits + v_bits + 1, out=cells[:, n_r:], dtype=wide)
    del dist
    cells[:, n_r:] += 3 << w_bits + v_bits
    cells += np.arange(n_r, dtype=wide)[:, None] << w_bits
    cells += np.arange(n, dtype=wide)
    cells = cells.ravel()
    cells.sort()
    levels = int(cells[-1]) >> w_bits + v_bits + 1
    groups = np.arange(2 * levels + 2, dtype=wide) << v_bits + w_bits
    bound = cells.searchsorted(np.add.outer(groups, np.arange(n_r + 1, dtype=wide) << w_bits)).reshape(-1, 2, n_r + 1)
    cells &= (1 << w_bits) - 1
    cols = cells.astype(node)
    del cells
    # place[v, w]: w's place in v's BFS order; parent[v, u]: the entry
    # from u's BFS parent to u.  A level's int64 sort key is (root,
    # parent's place, entry) over the cell (v - v0) * n + w, the root
    # counted from its range's first, v0: for r roots, 2 * bits(r * n) +
    # bits(2E) bits and a sign bit.  So each level is taken in root ranges
    # of at most _DENSE_CELLS cells and at most ``longest`` roots, whose
    # keys fit in _KEY_BITS, or of one root, whose keys are checked.
    e_bits = (nbr.size - 1).bit_length()
    longest = max(1, (1 << (_KEY_BITS - 1 - e_bits) // 2) // n)
    span = min(longest, n_r) * n  # the cells (v - v0) * n + w of a range
    _key_bits((span * nbr.size - 1).bit_length() + (span - 1).bit_length() + 1)
    cuts = {d: _cuts(total, _DENSE_CELLS, longest) for d, total in enumerate(bound[1:].sum(axis=1, dtype=np.int64), 1)}
    place = np.zeros((n_r, n), dtype=node)
    parent = np.zeros((n_r, n_r), dtype=edge)
    placed = np.ones(n_r, dtype=np.int64)  # per root: the nodes placed so far
    rows, offsets = np.arange(0, n_r * n_r, n_r), np.arange(0, n_r * n, n)  # row bases of (n_r, n_r) and (n_r, n)
    for d in range(1, levels + 1):
        for v0, v1 in zip(cuts[d], cuts[d][1:]):
            low = ((v1 - v0) * n - 1).bit_length()
            (a, la), (b, lb) = bound[d, :, v0].tolist(), bound[d, :, v1].tolist()
            kinds = bound[d, :, v0 + 1:v1 + 1] - bound[d, :, v0:v1]  # each root's cells of each kind
            cell = rows[v0:v1].repeat(kinds[0])
            cell += cols[a:b]
            e = r_start[v0:v1].repeat(kinds[0])
            e += hop.ravel().take(cell)
            m = b - a
            entry = np.empty(m + lb - la, dtype=edge)
            if d == 1:  # v's own neighbour
                near.take(e, out=entry[:m])
            else:  # u's parent from NH[v, u]
                e = np.multiply(r_nbr.take(e), n_r, dtype=np.int64)
                e += cols[a:b]
                parent.ravel().take(e, out=entry[:m])
            parent.ravel()[cell] = entry[:m]
            del cell, e
            # With the leaves hung on the level above, sorted by (root,
            # parent's place, entry): each root's level d in BFS order.
            leaf_entry.take(cols[la:lb], out=entry[m:])
            v = np.concatenate((offsets[:v1 - v0],) * 2).repeat(kinds.ravel())
            step = kinds[0] + kinds[1]  # each root's cells
            pay = nbr.take(entry) + v
            key = owner.take(entry) + v
            key = np.add(place[v0:v1].ravel().take(key), v, out=key)
            del v
            key *= nbr.size
            key += entry
            key <<= low
            key |= pay
            del pay, entry
            key.sort()
            key &= (1 << low) - 1
            at = step.cumsum()
            at -= step
            at = (placed[v0:v1] - at).repeat(step)  # each root's place less its first cell's
            at += np.arange(at.size)
            place[v0:v1].ravel()[key] = at
            placed[v0:v1] += step
            del key, at
    del hop

    # size[v, u]: u's subtree from v, its leaves included, summed level
    # by level, deepest first.
    size = np.empty((n_r, n_r), dtype=node)
    size[:] = hung + 1
    for d in range(levels, 0, -1):
        for v0, v1 in zip(cuts[d], cuts[d][1:]):
            a, b = int(bound[d, 0, v0]), int(bound[d, 0, v1])
            v = rows[v0:v1].repeat(bound[d, 0, v0 + 1:v1 + 1] - bound[d, 0, v0:v1])
            cell = cols[a:b] + v
            v += owner.take(parent.ravel().take(cell))
            np.add.at(size.ravel(), v, size.ravel().take(cell))
    del parent, cols

    # links[u, v]: u's non-leaf neighbours earlier in v's BFS order (a
    # node's leaves come after it), over rows of places by node.
    links = np.zeros((n_r, n_r), np.min_scalar_type(r_width[0]))
    by_node = np.ascontiguousarray(place[:, :n_r].T)
    for j, c in enumerate(have):
        links[:c] += by_node.take(r_nbr[r_start[:c] + j], axis=0) < by_node[:c]
    return place, size, links


def _key_bits(bits: int) -> int:
    """``bits``, the width of a packed sort key, once checked: past
    ``_KEY_BITS`` the snapshot is refused."""
    if bits > _KEY_BITS:
        raise InvalidInputError(f"a {bits}-bit sort key: too many infected nodes to score")
    return bits


def _cuts(total: np.ndarray, most: int, longest: int | None = None) -> list[int]:
    """Greedy cuts 0 = c_0 < c_1 < ... = len(total) - 1 of items whose
    running total is ``total`` (item i holds ``total[i + 1] - total[i]``):
    each range [c_j, c_{j+1}) holds at most ``most``, or one item if that
    is more, and at most ``longest`` items, and would break one of the two
    bounds with the next item."""
    cuts = [0]
    while cuts[-1] < total.size - 1:
        a = cuts[-1]
        b = max(a + 1, int(total.searchsorted(total[a] + most, "right")) - 1)
        cuts.append(b if longest is None else min(b, a + longest))
    return cuts


def _distances(start: np.ndarray, width: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """All-pairs hop distances over the neighbour table (``nbr``, runs at
    ``start`` of lengths ``width``), as an (n, n) array: one BFS from every
    node at once, over bitsets of 64 roots to a word (Then et al., "The
    More the Merrier", VLDB 2015).  Bit v of ``seen[u]`` is set once u is
    within the current distance of v.  Raises :class:`InvalidInputError`
    unless every node reaches every other."""
    n = start.size
    words = -(-n // 64)
    node = np.arange(n)
    seen = np.zeros((n, words), dtype="<u8")
    seen[node, node >> 6] = np.left_shift(np.uint64(1), (node & 63).astype(np.uint64))
    front, new = seen.copy(), np.zeros_like(seen)
    # Node ranges whose gathered frontier words number at most
    # _DENSE_CELLS (or one node's).
    end = np.append(start, nbr.size)
    cuts = _cuts(end, _DENSE_CELLS // words)
    dist = np.zeros((n, n), dtype=np.uint8)
    for d in range(1, n):  # the last level is at most n - 1
        for a, b in zip(cuts, cuts[1:]):
            np.bitwise_or.reduceat(front.take(nbr[end[a]:end[b]], axis=0), start[a:b] - end[a], axis=0,
                                   out=new[a:b])
        new &= ~seen
        if not new.any():
            break
        if d == 256:  # past uint8
            dist = dist.astype(np.uint16)
        dist += np.unpackbits((~seen).view(np.uint8), axis=1, count=n, bitorder="little")
        seen |= new
        front, new = new, front
    if not np.unpackbits(seen[0].view(np.uint8), count=n, bitorder="little").all():
        raise InvalidInputError("infected set is disconnected")
    return dist


#: The (root, node) cells of a range of the finder's roots (a level's
#: cells in its level loop, whole rows in the tail's ranges), of a chunk
#: of leaves in the tail, and the words of a node range of its gathered
#: bitset frontier: this bounds their temporaries (about 0.5 MB at 2**14)
#: besides the finder's n_r * n arrays.  :func:`_cuts` cuts the level and
#: frontier ranges from running totals.
_DENSE_CELLS = 1 << 14

#: The widest sort key the finder packs: 64-bit cell keys and int64 level
#: keys.
_KEY_BITS = 64


def _positions(snapshot: Snapshot, nodes: Iterable[int] | None) -> list[int]:
    """Positions of ``nodes`` (default: every infected node) by ascending
    id.  Each of ``nodes`` must be an ``int``, as a source must be for
    :func:`~rqsim.diffusion.simulate_si`: not a bool, float or numpy integer."""
    nodes = snapshot.infected if nodes is None else list(nodes)
    for v in nodes:
        if type(v) is not int:
            raise InvalidInputError(f"node {v!r} is not an int node id")
    return [snapshot.position_of(v) for v in sorted(set(nodes))]


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
    """Highest-scoring node of ``pool``; ties go to the lowest node id.
    ``pool`` may be ``scores`` itself, whose values are then read in order."""
    nodes = list(pool)
    values = list(scores.values() if pool is scores else map(scores.__getitem__, nodes))
    if not values:
        raise InvalidInputError("empty candidate pool")
    top = max(values)
    if values.count(top) == 1:
        return nodes[values.index(top)]
    return min(v for v, s in zip(nodes, values) if s == top)
