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

    Two paths give the same scores (``==``).  A sparse snapshot takes
    :func:`_block_scores`, one level-synchronous BFS per block of roots.
    A dense one, whose mean induced degree 2E/n is at least
    ``_DENSE_DEGREE`` and whose n² cells fit the block's memory budget
    (:func:`_is_dense`), takes :func:`_dense_scores`, which finds every
    root's BFS order at once from all-pairs distances.  It rests on one
    fact: with ties by ascending id, the BFS path from ``v`` to ``u`` is
    the lexicographically smallest shortest path, so it starts at
    ``a = NH[v, u]``, the lowest-id neighbour of ``v`` one step closer to
    ``u``, and goes on as ``a``'s own path.  So for d(v, u) >= 2 the BFS
    parent of ``u`` from ``v`` is its parent from ``a``, and level d of
    ``v``'s order lists its nodes ``u`` by (``a``, place of ``u`` in
    ``a``'s order).  Each root's two sums of logarithms are exact and
    rounded once (:func:`_wrapped_sums`, :func:`_rounded`) on both paths,
    so roots with equal counts tie exactly and the lowest id wins.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, (ptr, nbr) = snapshot.infected, snapshot.local_csr  # neighbour ties by ascending id
    n = len(ids)
    if 2 * n > _ROW_LIMIT:  # a denominator row holds 2n - 1 logarithms
        raise InvalidInputError(f"{n} infected nodes: too many to score exactly")
    by_id = np.argsort(ids)
    targets = by_id if nodes is None else np.array(_positions(snapshot, nodes), dtype=np.int64)
    if not targets.size:
        return {}
    if n > 1 and not np.diff(ptr).all():  # a node with no infected neighbour
        raise InvalidInputError("infected set is disconnected")
    deg = np.take(np.diff(graph.indptr), ids) if graph.is_finite else np.full(n, graph.max_degree())
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    if _is_dense(n, nbr.size):
        scores = _dense_scores(ptr, nbr, deg, table)
    else:
        scores = _block_scores(targets, by_id, ptr, nbr, deg, table)
    return dict(zip(map(ids.__getitem__, targets.tolist()), scores[targets].tolist()))


def _is_dense(n: int, entries: int) -> bool:
    """Whether a snapshot of ``n`` infected nodes and ``entries`` = 2E
    directed induced edges takes the dense path: its mean induced degree
    is at least ``_DENSE_DEGREE`` and its n² cells, at most about 8 bytes
    each, fit in the 16 bytes per entry of a block's two entry-sized
    int64 arrays."""
    return entries >= _DENSE_DEGREE * n and n * n <= 2 * BLOCK_ENTRIES


#: The mean induced degree 2E/n from which the dense path is the faster.
#: On 104 er and sf snapshots of N = 100 to 400 (2 vCPUs) it took 1.1-2.3
#: times the block path's time at 2E/n below 3, 0.8-1.7 from 3 to 3.7,
#: 0.8-1.03 from 3.7 to 4, 0.73-0.98 from 4 to 5 and 0.32-0.99 above 5
#: (0.40 on N = 400 sf:4039:22 snapshots).
_DENSE_DEGREE = 4


def _block_scores(targets: np.ndarray, by_id: np.ndarray, ptr: np.ndarray, nbr: np.ndarray,
                  deg: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Scores of the roots at positions ``targets`` (and of some others), by
    position, one BFS per block of roots.

    A leaf (one induced neighbour ``w``, when N > 2) gets no BFS of its
    own: its BFS order is ``w``'s with the leaf moved to the front, so its
    score follows from ``w``'s row (:func:`_leaf_shifts`), and ``w`` is
    scored, but not returned, when it is not asked for.  So a snapshot
    costs O((N - leaves) * (N + E_induced)); a quarter of the nodes of an
    N = 400 er:2000:4 snapshot are leaves.

    The other roots are taken in blocks of ``BLOCK_ENTRIES // (2 *
    E_induced)``, and one level-synchronous BFS serves a whole block
    (:func:`_bfs_block`) over the snapshot's own neighbour table.  The
    block's large arrays live in this thread's :class:`_Workspace`.
    """
    n = ptr.size - 1
    start, width = ptr[:-1], np.diff(ptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), width)  # each entry's own node
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, BLOCK_ENTRIES // max(nbr.size, 1))
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
        order, size = _bfs_block(block, start, width, nbr, owner)
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
    return scores


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
               owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFS from every root of a block at once, one level at a time over a
    flat frontier of cells ``row * n + node`` in (row, BFS place) order.
    Every row reads the snapshot's one neighbour table: node ``u``'s
    neighbours are ``nbr[start[u]:start[u] + width[u]]`` (ascending ids),
    and a cell's neighbour cells are its node's neighbours plus its row
    base, ``row * n``.  ``owner`` is the node of each entry of ``nbr``.

    The frontier's discovery stamps rise along it, and a level lists its
    new cells in the order that the stamps give them, so a row's levels,
    one after another, are its BFS order, with the parents of a sequential
    BFS with neighbour ties by ascending id.  Every node has an infected
    neighbour when n > 1 (the caller checks), so every cell has entries.

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
        # Expand the frontier in (row, BFS place, neighbour id) order: the
        # order in which one root's sequential BFS scans these edges.  Each
        # entry's place in nbr steps by 1 within a run and jumps at each
        # run's first entry: one running sum of those steps.
        e_at = _WORKSPACE.array("entries", m)
        e_at.fill(1)
        e_at[0] = first[0]
        e_at[k_ends[:-1]] = first[1:] - first[:-1] - k[:-1] + 1
        e_at.cumsum(out=e_at)
        e_cell = nbr.take(e_at, out=_WORKSPACE.array("entries2", m), mode="clip")
        e_cell += np.repeat(f_base, k)
        flags = _WORKSPACE.array("entry_flags", m, np.bool_)
        fresh = unreached.take(e_cell, out=flags, mode="clip").nonzero()[0]
        cand = e_cell[fresh]
        # An unreached cell's first entry, the one whose index is left as
        # its stamp, discovers it: that fixes its parent and its place, so
        # ties go to the lowest id as in a sequential BFS.
        np.minimum.at(stamp, cand, fresh)
        won = fresh[stamp[cand] == fresh]
        new = e_cell.take(won, out=found[at:at + won.size], mode="clip")
        # A new cell's parent is the owner of the entry that found it, in
        # the same row.
        new_base = new // n * n  # floor division is several times faster than %
        np.add(owner.take(e_at.take(won)), new_base, out=parent[at:at + new.size])
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


def _dense_scores(ptr: np.ndarray, nbr: np.ndarray, deg: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every root's score, by position, from every BFS order found at once
    (the lemma of :func:`general_graph_scores`).  Over (root, node) cells,
    whole rows of n at a time: the distances (:func:`_distances`); each
    root's first hop towards each node; then, level by level, each node's
    BFS place and parent, read off its first hop's; then each node's count
    of earlier neighbours.  Per chunk of roots, the subtree sizes and the
    sums are those of :func:`_block_scores`.  The n² arrays are uint8 or
    uint16, and the temporaries are bounded by ``_DENSE_CELLS``.

    The nodes are renumbered by falling induced degree, each keeping its
    neighbours in id order, so that the nodes with a j-th neighbour are
    the first rows: each pass over j-th neighbours reads row slices."""
    n = ptr.size - 1
    by_width = np.argsort(-np.diff(ptr), kind="stable")
    label = np.empty(n, dtype=np.int64)
    label[by_width] = np.arange(n)
    width, deg = np.diff(ptr)[by_width], deg[by_width]
    start = np.cumsum(width) - width
    nbr = label[nbr[np.repeat(ptr[by_width] - start, width) + np.arange(nbr.size)]]  # still by id
    have = (n - np.cumsum(np.bincount(width))[:-1]).tolist()  # have[j]: nodes with a j-th (from 0)
    dist = _distances(start, width, nbr)
    levels = int(dist.max())
    rows = max(1, _DENSE_CELLS // n)  # roots at a time

    # hop[v, u] = j: v's first hop towards u, NH[v, u], is its j-th
    # neighbour, so j counts the neighbours before it, none of them nearer.
    hop = np.zeros((n, n), np.min_scalar_type(width[0]))
    unfound = np.ones((n, n), dtype=bool)
    farther = np.empty((n, n), dtype=bool)
    for j, c in enumerate(have):
        np.greater_equal(dist.take(nbr[start[:c] + j], axis=0), dist[:c], out=farther[:c])
        unfound[:c] &= farther[:c]
        hop[:c] += unfound[:c]
    del unfound, farther

    # place[u, v]: u's place in v's BFS order; parent[v, u]: u's BFS parent.
    kind = np.min_scalar_type(n)
    place, parent = np.zeros((n, n), kind), np.zeros((n, n), kind)
    placed = np.ones(n, dtype=np.int64)  # per root: the nodes placed so far
    low = (n * n - 1).bit_length()  # key bits below the sort order, for u * n + v
    for d in range(1, levels + 1):
        for v0 in range(0, n, rows):
            at_d = dist[v0:v0 + rows] == d
            count = np.count_nonzero(at_d, axis=1)
            cell = np.flatnonzero(at_d)
            v = np.repeat(np.arange(v0, v0 + count.size), count)
            u = cell - np.repeat(np.arange(0, count.size * n, n), count)
            cell += v0 * n  # v * n + u
            j = hop.ravel().take(cell)
            a = start.take(v)
            a += j
            a = nbr.take(a)  # v's first hop towards u: u itself at d = 1
            if d == 1:
                parent.ravel()[cell] = v
            else:
                at = a * n
                at += u
                parent.ravel()[cell] = parent.ravel().take(at)
                del at
            del cell
            # Level d of v's order lists u by (j, u's place in a's order);
            # the key's low bits carry the place's cell, u * n + v.
            u *= n
            a += u
            key = v * n
            key += j
            key *= n
            key += place.ravel().take(a)
            del a
            key <<= low
            u += v
            key |= u
            del u
            key.sort()
            key &= (1 << low) - 1
            first = placed[v0:v0 + rows] - np.cumsum(count) + count  # each root's place minus its first cell
            place.ravel()[key] = np.arange(key.size) + np.repeat(first, count)
            placed[v0:v0 + rows] += count
    del hop

    # Per root, the exact sum of its log subtree sizes, summed per chunk
    # of roots level by level, deepest first; summed before the
    # earlier-neighbour pass so that the distances and parents are freed
    # first (a warm N = 400 sf:4039:22 score peaks at 1.56 MB, not 1.74).
    size_wrapped, size_approx = np.empty(n, dtype=np.int64), np.empty(n)
    for v0 in range(0, n, rows):
        size = np.ones((min(rows, n - v0), n), dtype=np.int64)
        for d in range(levels, 0, -1):
            at_d = dist[v0:v0 + rows] == d
            cell = np.flatnonzero(at_d)
            base = np.repeat(np.arange(0, at_d.size, n), np.count_nonzero(at_d, axis=1))  # each cell's row
            np.add.at(size.ravel(), base + parent[v0:v0 + rows].ravel().take(cell), size.ravel().take(cell))
        size_wrapped[v0:v0 + rows], size_approx[v0:v0 + rows] = _wrapped_sums(table, size)
    del dist, parent, size

    # links[u, v]: u's neighbours earlier in v's BFS order.
    links = np.zeros((n, n), np.min_scalar_type(width[0]))
    for j, c in enumerate(have):
        links[:c] += place.take(nbr[start[:c] + j], axis=0) < place[:c]

    scores = np.empty(n)
    log_n_factorial = math.lgamma(n + 1)
    for v0 in range(0, n, rows):
        r = min(rows, n - v0)
        count = links[:, v0:v0 + r]
        top = log_n_factorial + _rounded(*_wrapped_sums(table, count.T))
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        bounds = np.empty((r, n), dtype=np.int64)
        step = deg[:, None] - count
        step -= count
        bounds.ravel()[place[:, v0:v0 + r] + np.arange(0, r * n, n)] = step
        np.cumsum(bounds, axis=1, out=bounds)
        wrapped, approx = _wrapped_sums(table, bounds[:, :-1])
        scores[v0:v0 + r] = top - _rounded(wrapped + size_wrapped[v0:v0 + r], approx + size_approx[v0:v0 + r])
    return scores[label]


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
    # _DENSE_CELLS (or one node's); none without entries (n = 1: no level).
    end = np.append(start, nbr.size)
    cuts, a = [], 0
    while a < n and nbr.size:
        b = max(a + 1, int(np.searchsorted(end, end[a] + _DENSE_CELLS // words, "right")) - 1)
        cuts.append((a, b))
        a = b
    dist = np.zeros((n, n), dtype=np.uint8)
    for d in range(1, n + 1):  # the last level is at most n - 1
        for a, b in cuts:
            np.bitwise_or.reduceat(front.take(nbr[end[a]:end[b]], axis=0), start[a:b] - end[a], axis=0,
                                   out=new[a:b])
        new &= ~seen
        if not new.any():
            break
        if d > np.iinfo(dist.dtype).max:
            dist = dist.astype(np.uint16)
        dist += np.unpackbits((~seen).view(np.uint8), axis=1, count=n, bitorder="little")
        seen |= new
        front, new = new, front
    if not np.unpackbits(seen[0].view(np.uint8), count=n, bitorder="little").all():
        raise InvalidInputError("infected set is disconnected")
    return dist


#: The (root, node) cells in a chunk of the dense path's root rows, and
#: the words of a chunk of its gathered bitset frontier: this bounds its
#: temporaries (about 0.6 MB at 2**14) besides its n² arrays.
_DENSE_CELLS = 1 << 14


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
