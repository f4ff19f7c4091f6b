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

    A leaf (one induced neighbour ``w``, when N > 2) gets no BFS of its
    own: its BFS order is ``w``'s with the leaf moved to the front, so its
    score follows from ``w``'s row (:func:`_leaf_shifts`), and ``w`` is
    scored, but not returned, when it is not asked for.  So a snapshot
    costs O((N - leaves) * (N + E_induced)); a quarter of the nodes of an
    N = 400 er:2000:4 snapshot are leaves, and almost none of sf:4039:22's.

    The other roots are taken in blocks of ``BLOCK_ENTRIES // (2 *
    E_induced)``, and one level-synchronous BFS serves a whole block
    (:func:`_bfs_block`) over the snapshot's own neighbour table.  The
    block's large arrays live in this thread's :class:`_Workspace`.  Each
    root's two sums of logarithms are exact and rounded once
    (:func:`_wrapped_sums`, :func:`_rounded`), so roots with equal counts
    tie exactly and the lowest id wins.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, (ptr, nbr) = snapshot.infected, snapshot.local_csr  # neighbour ties by ascending id
    n = len(ids)
    if 2 * n > _ROW_LIMIT:  # a denominator row holds 2n - 1 logarithms
        raise InvalidInputError(f"{n} infected nodes: too many to score exactly")
    by_id = np.argsort(ids)
    targets = by_id if nodes is None else np.array(_positions(snapshot, nodes), dtype=np.int64)
    deg = np.take(np.diff(graph.indptr), ids) if graph.is_finite else np.full(n, graph.max_degree())
    start, width = ptr[:-1], np.diff(ptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), width)  # each entry's own node
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, BLOCK_ENTRIES // max(nbr.size, 1))
    if targets.size and n > 1 and not width.all():  # a node with no infected neighbour
        raise InvalidInputError("infected set is disconnected")
    is_leaf = (width[targets] == 1) & (n > 2)
    leaf = targets[is_leaf]
    hub = nbr[start[leaf]]
    # Each leaf's place in its neighbour's BFS order: the neighbour's level
    # 1 is its neighbours by ascending id.
    into = np.flatnonzero(width[nbr] == 1)
    place = np.zeros(n, dtype=np.int64)
    place[nbr[into]] = into - start[owner[into]] + 1
    # The roots that get a BFS, by ascending id (in infection order the
    # sf:4039:22 scores took about 4% longer), and each leaf's row among them.
    id_rank = np.argsort(by_id)
    is_root = np.zeros(n, dtype=bool)
    is_root[targets[~is_leaf]] = is_root[hub] = True
    roots = by_id[is_root[by_id]]
    hub_row = np.searchsorted(id_rank[roots], id_rank[hub])
    chunk = max(1, BLOCK_ENTRIES // n)  # leaves at a time: fewer than BLOCK_ENTRIES boundaries

    scores = np.empty(n)  # by position: (log n! + numerator) - denominator
    for b in range(0, roots.size, rows):
        block = roots[b:b + rows]
        order, size = _bfs_block(block, start, width, nbr, owner, id_rank)
        links = _earlier_neighbours(order, start, owner, nbr)
        top = log_n_factorial + _rounded(*_wrapped_sums(table, links))
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        links *= -2
        links += deg
        bounds = np.take(links, order).reshape(links.shape)
        del links
        np.cumsum(bounds, axis=1, out=bounds)
        den = _wrapped_sums(table, bounds[:, :-1], size)
        scores[block] = top - _rounded(*den)
        ours = np.flatnonzero(hub_row // rows == b // rows)  # the leaves of this block's rows
        for a in range(0, ours.size, chunk):
            at = ours[a:a + chunk]
            row, v = hub_row[at] - b, leaf[at]
            shifts = _leaf_shifts(table, bounds, row, place[v], deg[v])
            scores[v] = top[row] - _rounded(*(total[row] + shift for total, shift in zip(den, shifts)))
    return dict(zip(map(ids.__getitem__, targets.tolist()), scores[targets].tolist()))


def _leaf_shifts(table: np.ndarray, bounds: np.ndarray, row: np.ndarray,
                 m: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What to add to the (wrapped, float) denominator sums of rows ``row``
    of a block (:func:`_wrapped_sums`) to get those of leaves hung on the
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


#: Roots scored together: a block expands at most this many (root,
#: directed induced edge) entries, or one root's if that is more.  Larger
#: blocks take fewer numpy calls per score; the workspace grows with them
#: (1.27 MB after an N = 400 sf:4039:22 snapshot, 1.49 MB after er:2000:4).
BLOCK_ENTRIES = 3 << 15

_ONE = 1 << 53  # log k >= log 2 > 1/2 for k >= 2, so it is a multiple of 1 / _ONE
_ROW_LIMIT = 1 << 23  # rows of fewer table entries sum below 2**82: _rounded is exact
_UNREACHED = 1 << 62


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
                scaled = np.array([*map(math.log, range(kept.size, max(size, 2 * kept.size)))]) * _ONE
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


class _Workspace(threading.local):
    """One thread's scratch arrays for the block scorer, by name.

    Each buffer grows to the largest size asked of it and is then reused by
    every block of every score, so that blocks do not allocate, free and
    page-fault their large arrays afresh.  A block holds at most
    ``BLOCK_ENTRIES`` entries (or one root's) and ``n`` cells per root,
    which bounds the buffers.  A block's BFS and its earlier-neighbour pass
    run one after the other, so they share the entry-sized buffers
    (``entries``, ``entries2``, ``entry_flags``)."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: int | tuple[int, ...], dtype: type = np.int64) -> np.ndarray:
        """An uninitialised array of ``shape`` and ``dtype`` over the first
        bytes of buffer ``name``.  It overwrites the last array of that
        name, which must no longer be in use."""
        dtype = np.dtype(dtype)
        nbytes = math.prod((shape,) if isinstance(shape, int) else shape) * dtype.itemsize
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < nbytes:
            buffer = self.buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


_WORKSPACE = _Workspace()


def _bfs_block(roots: np.ndarray, start: np.ndarray, width: np.ndarray, nbr: np.ndarray,
               owner: np.ndarray, id_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFS from every root of a block at once, one level at a time over a
    flat frontier of cells ``row * n + node`` in (row, BFS place) order.
    Every row reads the snapshot's one neighbour table: node ``u``'s
    neighbours are ``nbr[start[u]:start[u] + width[u]]`` (ascending ids),
    and a cell's neighbour cells are its node's neighbours plus its row
    base, ``row * n``.  ``owner`` is the node of each entry of ``nbr``, and
    ``id_rank`` ranks the nodes by id.

    The frontier's discovery stamps rise along it, and a level lists its
    new cells in the order that the stamps give them, so a row's levels,
    one after another, are its BFS order.  A level is found top-down, from
    the frontier's entries, unless the cells not yet found have
    ``_BOTTOM_UP`` times fewer entries; then it is found bottom-up, from
    theirs (direction-optimizing BFS: Beamer, Asanović and Patterson, SC
    2012).  Both give the order and the parents of a sequential BFS with
    neighbour ties by ascending id.  Every node has an infected neighbour
    when n > 1 (the caller checks), so every cell has entries.

    Returns each row's cells in BFS order, row after row (rows · n cells),
    and the (rows, n) BFS subtree sizes.
    """
    n, r = start.size, len(roots)
    stamp = _WORKSPACE.array("stamp", r * n)
    stamp.fill(_UNREACHED)
    unreached = _WORKSPACE.array("unreached", r * n, np.bool_)
    unreached.fill(True)
    # The found cells, level after level, and each one's BFS parent;
    # ends[i] is where level i ends in them (level 0 is the roots).
    found = _WORKSPACE.array("found", r * n)
    parent = _WORKSPACE.array("parent", r * n)
    f_base = np.arange(0, r * n, n, dtype=np.int64)  # the frontier cells' row bases
    f_cell = np.add(f_base, roots, out=found[:r])
    stamp[f_cell] = np.arange(r, dtype=np.int64)
    unreached[f_cell] = False
    unseen = r * nbr.size  # entries of the cells not yet found
    ends = [r]
    while f_cell.size:
        node = f_cell - f_base
        first, k = start.take(node), width.take(node)
        k_ends = k.cumsum()
        m = int(k_ends[-1])
        unseen -= m
        if not unseen:  # every cell is found
            break
        at = ends[-1]
        if unseen * _BOTTOM_UP >= m:
            # Expand the frontier in (row, BFS place, neighbour id) order:
            # the order in which one root's sequential BFS scans these edges.
            e_at, e_cell = _expand(nbr, first, k, k_ends, f_base)
            flags = _WORKSPACE.array("entry_flags", m, np.bool_)
            fresh = unreached.take(e_cell, out=flags, mode="clip").nonzero()[0]
            cand = e_cell[fresh]
            # An unreached cell's first entry, the one whose index is left
            # as its stamp, discovers it: that fixes its parent and its
            # place, so ties go to the lowest id as in a sequential BFS.
            np.minimum.at(stamp, cand, fresh)
            won = fresh[stamp[cand] == fresh]
            new = e_cell.take(won, out=found[at:at + won.size], mode="clip")
            # A new cell's parent is the owner of the entry that found it,
            # in the same row.
            new_base = new // n * n  # floor division is several times faster than %
            np.add(owner.take(e_at.take(won)), new_base, out=parent[at:at + new.size])
        else:
            # Each unreached cell's parent is its frontier neighbour with the
            # smallest stamp (a neighbour found before the frontier would
            # have reached it); the new cells are placed by (parent, node
            # id), as that parent's scan would find them.
            todo = unreached.nonzero()[0]
            base = todo // n * n
            node = todo - base
            first, k = start.take(node), width.take(node)
            k_ends = k.cumsum()
            e_at, e_cell = _expand(nbr, first, k, k_ends, base)
            best = np.minimum.reduceat(stamp.take(e_cell, out=e_at, mode="clip"), k_ends - k)
            got = (best < _UNREACHED).nonzero()[0]
            got = got[np.argsort(best[got] * n + id_rank[node[got]])]
            new = todo.take(got, out=found[at:at + got.size], mode="clip")
            new_base = base.take(got)
            f_cell.take(np.searchsorted(stamp[f_cell], best[got]), out=parent[at:at + new.size], mode="clip")
            stamp[new] = np.arange(new.size, dtype=np.int64)
        unreached[new] = False
        f_cell, f_base = new, new_base
        ends.append(at + new.size)
    if ends[-1] < r * n:
        raise InvalidInputError("infected set is disconnected")
    # Subtree sizes, deepest level first, over the spent stamps.
    size = stamp
    size.fill(1)
    for a, b in zip(ends[-2::-1], ends[:0:-1]):
        np.add.at(size, parent[a:b], size[found[a:b]])
    # Each row's cells in BFS order, over the spent parents: level by level,
    # and within a level in discovery order, which a stable (radix) sort by
    # row keeps.
    row = _WORKSPACE.array("row", r * n, np.min_scalar_type(r))
    np.floor_divide(found, n, out=row, casting="unsafe")
    return found.take(np.argsort(row, kind="stable"), out=parent, mode="clip"), size.reshape(r, n)


def _expand(nbr: np.ndarray, first: np.ndarray, k: np.ndarray, ends: np.ndarray,
            base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the neighbour runs that start at ``first`` (lengths
    ``k``, all at least 1, and their running sum ``ends``) of cells with
    row bases ``base``, in order: each entry's place in ``nbr`` and its
    neighbour cell, written into the workspace."""
    m = int(ends[-1])
    at = _WORKSPACE.array("entries", m)
    # Places step by 1 within a run and jump at each run's first entry:
    # one running sum of those steps.
    at.fill(1)
    at[0] = first[0]
    at[ends[:-1]] = first[1:] - first[:-1] - k[:-1] + 1
    at.cumsum(out=at)
    cell = nbr.take(at, out=_WORKSPACE.array("entries2", m), mode="clip")
    cell += np.repeat(base, k)
    return at, cell


#: A BFS level goes bottom-up once the unreached cells have this many
#: times fewer entries than the frontier, as a bottom-up entry costs more.
#: Measured on N = 400 snapshots: at 4 the sf:4039:22 scores take about
#: 0.9 of the all-top-down time and er:2000:4 (mostly top-down) about 1.0.
_BOTTOM_UP = 4


def _earlier_neighbours(order: np.ndarray, start: np.ndarray, owner: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Per (row, node), its count of neighbours earlier in the row's BFS
    order, from ``order``, each row's cells in that order (as
    :func:`_bfs_block` gives them): one pass over every (row, directed
    induced edge) entry, comparing the BFS places of the entry's node
    (``owner``) and neighbour, held in the narrowest unsigned type, as the
    two entry-sized arrays are the block's largest."""
    n = start.size
    r = order.size // n
    if not nbr.size:  # a lone node: reduceat needs at least one entry
        return np.zeros((r, n), dtype=np.int64)
    kind = np.min_scalar_type(n)
    place = _WORKSPACE.array("place", (r, n), kind)
    np.put(place, order, np.arange(n, dtype=kind))  # repeated: each row's cells get 0..n-1
    shape = (r, nbr.size)
    nbr_place = np.take(place, nbr, axis=1, out=_WORKSPACE.array("entries", shape, kind), mode="clip")
    own_place = np.take(place, owner, axis=1, out=_WORKSPACE.array("entries2", shape, kind), mode="clip")
    earlier = np.less(nbr_place, own_place, out=_WORKSPACE.array("entry_flags", shape, np.bool_))
    return np.add.reduceat(earlier, start, axis=1, dtype=np.int64)


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
