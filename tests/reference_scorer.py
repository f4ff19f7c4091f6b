"""Hot-path implementations as first written, kept as differential oracles.

``rqsim`` rewrote these on infection positions; this module keeps the
originals unchanged so the tests can compare old and new output:

* the dict-based loopy BFS-tree scorer (``general_graph_scores``);
* its successor on infection positions, one sequential BFS and one
  ``math.fsum`` per root (``per_root_general_graph_scores``);
* the first block scorer, whose level-synchronous BFS ranks each level's
  new nodes, finds parents by search and counts earlier neighbours per
  level (``block_general_graph_scores``);
* its successor, which orders each level by discovery stamps, may find a
  level bottom-up and allocates its block arrays afresh for every block
  (``stamp_general_graph_scores``);
* the block scorer's loop as it was before leaves were scored
  from their neighbour's BFS: one BFS row for every requested root, over
  the block BFS that ``rqsim.centrality`` had when its block finder was
  deleted (``all_roots_general_graph_scores``, ``_final_bfs_block``);
* its successor, the block path as it was before it shared the dense
  path's leaf folding and sums: leaves scored from their neighbour's row,
  and BFS rows only for the requested roots and the neighbours of the
  requested leaves (``leaf_block_general_graph_scores``);
* the global-id induced adjacency a snapshot used to cache
  (``induced_adjacency``), and the list view of ``local_csr`` it cached
  later (``local_adjacency``), which the oracles here read;
* the DFS-and-reroot tree scorer (``log_rumor_centralities``);
* the hop ordering of batch candidates (``hop_candidates``);
* the exact sums of logarithms the block scorers were first written
  with: wrapped int64 and float64 row sums, recombined and rounded by
  Python big-integer division (``_log_sums``), so that no oracle rounds
  with the code it checks.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from rqsim import centrality
from rqsim.centrality import CentralityTable, _log_table, _positions, pick_best
from rqsim.diffusion import Snapshot
from rqsim.errors import InvalidInputError

TreeAdjacency = Mapping[int, Sequence[int]]


def _wrapped_sums(table: np.ndarray, *parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the sum of the table entries that ``parts`` index, twice:
    in int64, exact modulo 2**64, and in float64, far closer than 2**62 to
    the exact sum."""
    sums = [(p.sum(axis=1), p.sum(axis=1, dtype=np.float64)) for p in map(table.take, parts)]
    return sum(w for w, _ in sums), sum(a for _, a in sums)


def big_int_rounded(wrapped: np.ndarray, approx: np.ndarray) -> list[float]:
    """Each exact sum, rounded once, from its int64 sum ``wrapped`` (exact
    modulo 2**64) and its float64 sum ``approx`` (within 2**62): the exact
    sum is the one integer congruent to the first and near the second, and
    Python's int / int division rounds it correctly."""
    return [(w + (round((a - w) / 2**64) << 64)) / 2**53 for w, a in zip(wrapped.tolist(), approx.tolist())]


def _log_sums(table: np.ndarray, *parts: np.ndarray) -> list[float]:
    """Per row, the sum of the table entries that ``parts`` index, summed
    exactly and rounded once: the correctly rounded sum, as ``math.fsum``
    gives it."""
    return big_int_rounded(*_wrapped_sums(table, *parts))


def induced_adjacency(snapshot: Snapshot) -> dict[int, list[int]]:
    """Adjacency of the infected-induced subgraph of ``graph``, sorted.

    Without a graph this is the parent-edge tree, the only edges known.
    """
    if snapshot.graph is None:
        adj: dict[int, list[int]] = {v: [] for v in snapshot.infected}
        for child, par in snapshot.parent.items():
            adj[child].append(par)
            adj[par].append(child)
        for lst in adj.values():
            lst.sort()
        return adj
    members = frozenset(snapshot.infected)
    return {
        v: sorted(w for w in snapshot.graph.neighbors(v) if w in members)
        for v in snapshot.infected
    }


def local_adjacency(snapshot: Snapshot) -> list[list[int]]:
    """``snapshot.local_csr`` as one list of positions per position."""
    ptr, nbr = snapshot.local_csr
    flat, bounds = nbr.tolist(), ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _as_tree_adjacency(tree: Snapshot | TreeAdjacency) -> TreeAdjacency:
    if isinstance(tree, Snapshot):
        adj = induced_adjacency(tree)
        if sum(len(nbrs) for nbrs in adj.values()) // 2 != tree.n - 1:
            raise InvalidInputError("infected subgraph is not a tree")
        return adj
    return tree


def _root_pass(adj: TreeAdjacency, root: int) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Iterative DFS order, parent map, and subtree sizes rooted at ``root``."""
    parent = {root: -1}
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
                stack.append(v)
    if len(order) != len(adj):
        raise InvalidInputError("adjacency is not connected")
    sizes = {v: 1 for v in order}
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            sizes[p] += sizes[v]
    return order, parent, sizes


def log_score_at_root(tree: Snapshot | TreeAdjacency, root: int) -> float:
    """Direct evaluation log(N!) - sum(log T_u) for a single root."""
    adj = _as_tree_adjacency(tree)
    _, _, sizes = _root_pass(adj, root)
    return math.lgamma(len(sizes) + 1) - sum(math.log(s) for s in sizes.values())


def log_rumor_centralities(tree: Snapshot | TreeAdjacency) -> CentralityTable:
    """Log ordering-count score for every node of a tree, in O(N).

    One rooted pass computes subtree sizes; rerooting across an edge
    (u -> child c) multiplies the score by T_c / (N - T_c).
    """
    adj = _as_tree_adjacency(tree)
    n = len(adj)
    if n == 0:
        raise InvalidInputError("empty tree")
    root = min(adj)
    order, parent, sizes = _root_pass(adj, root)

    log_r = {root: math.lgamma(n + 1) - sum(math.log(s) for s in sizes.values())}
    for v in order[1:]:
        s = sizes[v]
        log_r[v] = log_r[parent[v]] + math.log(s) - math.log(n - s)

    return CentralityTable(log_r=log_r, center=pick_best(log_r, log_r))


def hop_candidates(snapshot: Snapshot, size: int, scores: Mapping[int, float]) -> list[int]:
    """``select_candidates_na``'s hop ordering: from the likelihood center
    level by level outward, within-level ties by ascending node id."""
    center = pick_best(scores, scores)
    adj = induced_adjacency(snapshot)
    result = [center]
    seen = {center}
    level = [center]
    while level and len(result) < size:
        frontier = sorted({w for u in level for w in adj[u] if w not in seen})
        for w in frontier:
            seen.add(w)
            result.append(w)
            if len(result) == size:
                break
        level = frontier
    return result


def _bfs_order_and_tree(adj: TreeAdjacency, root: int) -> tuple[list[int], dict[int, int]]:
    """BFS discovery order and parent map; neighbor ties by ascending id."""
    parent = {root: -1}
    order = [root]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    return order, parent


def general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles.

    For each candidate root ``v``: take the BFS tree over the infected set
    (discovery order sigma), score it as log P(sigma | v) plus the tree
    ordering-count score of the BFS tree.  P(sigma | v) is the spreading
    likelihood of that order: at each step, (edges from the current
    infected prefix to the next node) / (all boundary edges of the prefix
    in the underlying graph).
    """
    if snapshot.graph is None:
        raise InvalidInputError("general-graph scoring needs the underlying graph")
    adj = induced_adjacency(snapshot)
    graph = snapshot.graph
    members = frozenset(snapshot.infected)
    n = snapshot.n
    targets = sorted(members) if nodes is None else sorted(set(nodes))
    for v in targets:
        if v not in members:
            raise InvalidInputError(f"node {v} is not infected")

    scores: dict[int, float] = {}
    for v in targets:
        order, parent = _bfs_order_and_tree(adj, v)
        if len(order) < n:
            raise InvalidInputError("infected set is disconnected")
        if n == 1:
            scores[v] = 0.0
            continue

        tree_adj: dict[int, list[int]] = {u: [] for u in order}
        for u in order[1:]:
            tree_adj[u].append(parent[u])
            tree_adj[parent[u]].append(u)
        log_r = log_score_at_root(tree_adj, v)

        log_p = 0.0
        in_prefix = {v}
        boundary = graph.degree(v)
        for w in order[1:]:
            links = sum(1 for x in graph.neighbors(w) if x in in_prefix)
            log_p += math.log(links) - math.log(boundary)
            boundary += graph.degree(w) - 2 * links
            in_prefix.add(w)
        scores[v] = log_p + log_r
    return scores


def per_root_general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles.

    For each candidate root ``v``: take the BFS tree over the infected set
    (discovery order sigma, neighbour ties by ascending id), score it as
    log P(sigma | v) plus the tree ordering-count score of the BFS tree.
    P(sigma | v) is the spreading likelihood of that order: at each step,
    (edges from the current infected prefix to the next node) / (all
    boundary edges of the prefix in the underlying graph).  Costs
    O(N * (N + E_induced)); reads only the induced subgraph and degrees.
    """
    if snapshot.graph is None:
        raise InvalidInputError("general-graph scoring needs the underlying graph")
    ids, adj = snapshot.infected, local_adjacency(snapshot)  # neighbour ties by ascending id
    targets = _positions(snapshot, nodes)
    n = len(ids)
    deg = [snapshot.graph.degree(v) for v in ids]
    induced_edges = snapshot.induced_edge_count
    b_total = sum(deg) - 2 * induced_edges  # boundary of the whole infected set
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    log_of = [0.0, *map(math.log, range(1, max(n, b_total + induced_edges) + 1))].__getitem__

    scores: dict[int, float] = {}
    for root in targets:
        pos, parent, links = [-1] * n, [0] * n, [0] * n
        pos[root] = 0
        order = [root]
        # links[w] counts w's neighbours earlier in the order: each edge is
        # counted once, from the scan of its earlier endpoint.
        for u in order:
            pu = pos[u]
            for x in adj[u]:
                px = pos[x]
                if px < 0:
                    pos[x] = len(order)
                    parent[x] = u
                    links[x] = 1
                    order.append(x)
                elif px > pu:
                    links[x] += 1
        if len(order) < n:
            raise InvalidInputError("infected set is disconnected")

        # One reverse sweep yields BFS-tree subtree sizes and prefix boundaries.
        size, bounds, boundary = [1] * n, [], b_total
        for w in order[:0:-1]:
            boundary -= deg[w] - 2 * links[w]
            bounds.append(boundary)
            size[parent[w]] += size[w]
        # fsum does not depend on term order, so roots with equal counts tie
        # exactly and the lowest id wins.
        denominator = math.fsum(map(log_of, bounds + size))
        scores[ids[root]] = math.lgamma(n + 1) + math.fsum(map(log_of, links)) - denominator
    return scores


def block_general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
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
    ids, adj = snapshot.infected, local_adjacency(snapshot)  # neighbour ties by ascending id
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


#: The block size of ``block_general_graph_scores`` and
#: ``stamp_general_graph_scores``.
BLOCK_ENTRIES = 1 << 15

_UNREACHED = 1 << 62


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


def stamp_general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles.

    For each candidate root ``v``: take the BFS tree over the infected set
    (discovery order sigma, neighbour ties by ascending id), score it as
    log P(sigma | v) plus the tree ordering-count score of the BFS tree.
    P(sigma | v) is the spreading likelihood of that order: at each step,
    (edges from the current infected prefix to the next node) / (all
    boundary edges of the prefix in the underlying graph).  Costs
    O(N * (N + E_induced)); reads only the induced subgraph and degrees.

    Roots are taken in blocks of ``BLOCK_ENTRIES // (2 * E_induced)``, and
    one level-synchronous BFS serves a whole block
    (:func:`_stamp_bfs_block`).  Each root's two sums of logarithms are exact and rounded once
    (:func:`_log_sums`), so roots with equal counts tie exactly and the
    lowest id wins.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, adj = snapshot.infected, local_adjacency(snapshot)  # neighbour ties by ascending id
    targets = _positions(snapshot, nodes)
    n = len(ids)
    deg = np.array([graph.degree(v) for v in ids], dtype=np.int64)
    width = np.array(list(map(len, adj)), dtype=np.int64)
    start = np.cumsum(width) - width
    nbr = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(width.sum()))
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, BLOCK_ENTRIES // max(nbr.size, 1))
    cells = _stamp_cell_tables(min(rows, len(targets)), start, width, nbr)
    id_rank = np.argsort(np.argsort(ids))

    scores: dict[int, float] = {}
    for b in range(0, len(targets), rows):
        roots = targets[b:b + rows]
        order, size = _stamp_bfs_block(np.array(roots, dtype=np.int64), n, cells, id_rank)
        links = _stamp_earlier_neighbours(order, start, width, nbr)
        log_links = _log_sums(table, links)
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        bounds = np.take_along_axis(deg - 2 * links, order, axis=1)
        del links, order
        np.cumsum(bounds, axis=1, out=bounds)
        log_den = _log_sums(table, bounds[:, :-1], size)
        del bounds, size
        for root, num, den in zip(roots, log_links, log_den):
            scores[ids[root]] = log_n_factorial + num - den
    return scores


def _stamp_cell_tables(rows: int, start: np.ndarray, width: np.ndarray,
                       nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR adjacency (``nbr[start[u]:start[u] + width[u]]``, ascending
    ids) of ``rows`` copies of the infected set, one per row of a block,
    over cells ``row * n + node``: each cell's neighbour cells, and each
    cell's start and width in that list.  Every block reads its rows'
    share of the one table."""
    n = len(width)
    row = np.arange(rows, dtype=np.int64)[:, None]
    return ((row * n + nbr).ravel(), (row * nbr.size + start).ravel(), np.tile(width, rows))


def _stamp_bfs_block(roots: np.ndarray, n: int, cells: tuple[np.ndarray, np.ndarray, np.ndarray],
                     id_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFS from every root of a block at once over the cell tables of
    :func:`_stamp_cell_tables`, one level at a time over a flat frontier of
    cells in (row, BFS place) order; ``id_rank`` ranks the nodes by id.

    The frontier's discovery stamps rise along it, and a level lists its
    new cells in the order that the stamps give them, so a row's levels,
    one after another, are its BFS order.  A level is found top-down, from
    the frontier's entries, unless the cells not yet found have
    ``_BOTTOM_UP`` times fewer entries; then it is found bottom-up, from
    theirs (direction-optimizing BFS: Beamer, Asanović and Patterson, SC
    2012).  Both give the order and the parents of a sequential BFS with
    neighbour ties by ascending id.

    Returns (rows, n) arrays: the nodes of each row in BFS order, and each
    node's BFS subtree size.
    """
    cell_nbr, cell_start, cell_width = cells
    r = len(roots)
    if n > 1 and not cell_width.all():  # a node with no infected neighbour
        raise InvalidInputError("infected set is disconnected")
    stamp = np.full(r * n, _UNREACHED, dtype=np.int64)
    f_cell = np.arange(0, r * n, n, dtype=np.int64) + roots
    stamp[f_cell] = np.arange(r, dtype=np.int64)
    unseen = int(cell_width[:r * n].sum())  # entries of the cells not yet found
    found, levels = [f_cell], []
    while f_cell.size:
        k = cell_width[f_cell]
        ends = np.cumsum(k)
        m = int(ends[-1])
        unseen -= m
        if not unseen:  # every cell is found
            break
        if unseen * _BOTTOM_UP >= m:
            # Expand the frontier in (row, BFS place, neighbour id) order:
            # the order in which one root's sequential BFS scans these edges.
            src = np.repeat(np.arange(f_cell.size, dtype=np.int64), k)
            e_cell = cell_nbr[np.arange(m, dtype=np.int64) + (cell_start[f_cell] - ends + k)[src]]
            fresh = (stamp[e_cell] == _UNREACHED).nonzero()[0]
            cand = e_cell[fresh]
            del e_cell  # edge-sized arrays go as soon as used: they set the peak memory
            # An unreached cell's first entry, the one whose index is left
            # as its stamp, discovers it: that fixes its parent and its
            # place, so ties go to the lowest id as in a sequential BFS.
            np.minimum.at(stamp, cand, fresh)
            hit = stamp[cand] == fresh
            parent = f_cell[src[fresh[hit]]]
            del src, fresh
            f_cell = cand[hit]
        else:
            # Each unreached cell's parent is its frontier neighbour with the
            # smallest stamp (a neighbour found before the frontier would
            # have reached it); the new cells are placed by (parent, node
            # id), as that parent's scan would find them.
            todo = (stamp == _UNREACHED).nonzero()[0]
            k = cell_width[todo]
            ends = np.cumsum(k)
            e_stamp = stamp[cell_nbr[np.repeat(cell_start[todo] - ends + k, k)
                                     + np.arange(int(ends[-1]), dtype=np.int64)]]
            best = np.minimum.reduceat(e_stamp, ends - k)
            del e_stamp
            got = (best < _UNREACHED).nonzero()[0]
            got = got[np.argsort(best[got] * n + id_rank[todo[got] % n])]
            parent = f_cell[np.searchsorted(stamp[f_cell], best[got])]
            f_cell = todo[got]
            stamp[f_cell] = np.arange(f_cell.size, dtype=np.int64)
        found.append(f_cell)
        levels.append((f_cell, parent))
    cell = np.concatenate(found)
    if cell.size < r * n:
        raise InvalidInputError("infected set is disconnected")
    # Each row's cells in BFS order: level by level, and within a level in
    # discovery order, which a stable (radix) sort by row keeps.
    row = (cell // n).astype(np.min_scalar_type(r))
    order = cell[np.argsort(row, kind="stable")].reshape(r, n) - np.arange(0, r * n, n, dtype=np.int64)[:, None]
    # Subtree sizes, deepest level first.
    size = np.ones(r * n, dtype=np.int64)
    while levels:
        cell, parent = levels.pop()
        np.add.at(size, parent, size[cell])
    return order, size.reshape(r, n)


#: A BFS level goes bottom-up once the unreached cells have this many
#: times fewer entries than the frontier, as a bottom-up entry costs more.
#: Measured on N = 400 snapshots: at 4 the sf:4039:22 scores take about
#: 0.9 of the all-top-down time and er:2000:4 (mostly top-down) about 1.0.
_BOTTOM_UP = 4


def _stamp_earlier_neighbours(order: np.ndarray, start: np.ndarray, width: np.ndarray,
                              nbr: np.ndarray) -> np.ndarray:
    """Per (row, node), its count of neighbours earlier in the row's BFS
    order ``order``: one pass over every (row, directed induced edge)
    entry, comparing BFS places held in the narrowest unsigned type, as
    the two entry-sized arrays are the block's largest."""
    r, n = order.shape
    if not nbr.size:  # a lone node: reduceat needs at least one entry
        return np.zeros((r, n), dtype=np.int64)
    kind = np.min_scalar_type(n)
    place = np.empty((r, n), dtype=kind)
    np.put_along_axis(place, order, np.arange(n, dtype=kind)[None, :], axis=1)
    earlier = np.take(place, nbr, axis=1) < np.repeat(place, width, axis=1)
    return np.add.reduceat(earlier, start, axis=1, dtype=np.int64)


def all_roots_general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles.

    For each candidate root ``v``: take the BFS tree over the infected set
    (discovery order sigma, neighbour ties by ascending id), score it as
    log P(sigma | v) plus the tree ordering-count score of the BFS tree.
    P(sigma | v) is the spreading likelihood of that order: at each step,
    (edges from the current infected prefix to the next node) / (all
    boundary edges of the prefix in the underlying graph).  Costs
    O(N * (N + E_induced)); reads only the induced subgraph and degrees.

    Roots are taken in blocks of ``FINAL_BLOCK_ENTRIES // (2 *
    E_induced)``, and one level-synchronous BFS serves a whole block
    (:func:`_final_bfs_block`), every root its own row.  Each
    root's two sums of logarithms are exact and rounded once
    (:func:`_log_sums`), so roots with equal counts tie exactly and the
    lowest id wins.
    """
    graph = snapshot.require_graph("general-graph scoring")
    ids, (ptr, nbr) = snapshot.infected, snapshot.local_csr  # neighbour ties by ascending id
    targets = _positions(snapshot, nodes)
    n = len(ids)
    deg = np.take(np.diff(graph.indptr), ids) if graph.is_finite else np.full(n, graph.max_degree())
    start, width = ptr[:-1], np.diff(ptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), width)  # each entry's own node
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, FINAL_BLOCK_ENTRIES // max(nbr.size, 1))
    if targets and n > 1 and not width.all():  # a node with no infected neighbour
        raise InvalidInputError("infected set is disconnected")

    scores: dict[int, float] = {}
    for b in range(0, len(targets), rows):
        roots = targets[b:b + rows]
        order, size = _final_bfs_block(np.array(roots, dtype=np.int64), start, width, nbr, owner)
        links = _earlier_neighbours(order, start, owner, nbr)
        log_links = _log_sums(table, links)
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        links *= -2
        links += deg
        bounds = np.take(links, order).reshape(links.shape)
        del links
        np.cumsum(bounds, axis=1, out=bounds)
        log_den = _log_sums(table, bounds[:, :-1], size)
        for root, num, den in zip(roots, log_links, log_den):
            scores[ids[root]] = log_n_factorial + num - den
    return scores


def _earlier_neighbours(order: np.ndarray, start: np.ndarray, owner: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Per (row, node), its count of neighbours earlier in the row's BFS
    order, from ``order``, each row's cells in that order (as
    :func:`_final_bfs_block` gives them): one pass over every
    (row, directed induced edge) entry, comparing the BFS places of the
    entry's node (``owner``) and neighbour, held in the narrowest unsigned
    type, as the two entry-sized arrays are the block's largest."""
    n = start.size
    r = order.size // n
    if not nbr.size:  # a lone node: reduceat needs at least one entry
        return np.zeros((r, n), dtype=np.int64)
    kind = np.min_scalar_type(n)
    place = np.empty((r, n), dtype=kind)
    np.put(place, order, np.arange(n, dtype=kind))  # repeated: each row's cells get 0..n-1
    earlier = place.take(nbr, axis=1, mode="clip") < place.take(owner, axis=1, mode="clip")
    return np.add.reduceat(earlier, start, axis=1, dtype=np.int64)


def leaf_block_general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Source scores for snapshots whose infected set may contain cycles,
    as the block path gave them before it shared the dense path's leaf
    folding and sums (:func:`_block_scores`).  Reads only the induced
    subgraph and degrees."""
    graph = snapshot.require_graph("general-graph scoring")
    ids, (ptr, nbr) = snapshot.infected, snapshot.local_csr  # neighbour ties by ascending id
    n = len(ids)
    by_id = np.argsort(ids)
    targets = by_id if nodes is None else np.array(_positions(snapshot, nodes), dtype=np.int64)
    if not targets.size:
        return {}
    if n > 1 and not np.diff(ptr).all():  # a node with no infected neighbour
        raise InvalidInputError("infected set is disconnected")
    deg = np.take(np.diff(graph.indptr), ids) if graph.is_finite else np.full(n, graph.max_degree())
    table = _log_table(max(n, int(deg.sum()) - nbr.size // 2) + 1)
    scores = _block_scores(targets, by_id, ptr, nbr, deg, table)
    return dict(zip(map(ids.__getitem__, targets.tolist()), scores[targets].tolist()))


def _block_scores(targets: np.ndarray, by_id: np.ndarray, ptr: np.ndarray, nbr: np.ndarray,
                  deg: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Scores of the roots at positions ``targets`` (and of some others), by
    position, one BFS per block of roots.

    A leaf (one induced neighbour ``w``, when N > 2) gets no BFS of its
    own: its BFS order is ``w``'s with the leaf moved to the front, so its
    score follows from ``w``'s row (:func:`rqsim.centrality._leaf_shifts`),
    and ``w`` is scored, but not returned, when it is not asked for.  So a
    snapshot costs O((N - leaves) * (N + E_induced)); a quarter of the
    nodes of an N = 400 er:2000:4 snapshot are leaves.

    The other roots are taken in blocks of ``FINAL_BLOCK_ENTRIES // (2 *
    E_induced)``, and one level-synchronous BFS serves a whole block
    (:func:`_final_bfs_block`) over the snapshot's own neighbour table.
    """
    n = ptr.size - 1
    start, width = ptr[:-1], np.diff(ptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), width)  # each entry's own node
    log_n_factorial = math.lgamma(n + 1)
    rows = max(1, FINAL_BLOCK_ENTRIES // max(nbr.size, 1))
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
    chunk = max(1, FINAL_BLOCK_ENTRIES // n)  # leaves at a time: fewer than FINAL_BLOCK_ENTRIES boundaries

    scores = np.empty(n)  # by position: (log n! + numerator) - denominator
    for b in range(0, roots.size, rows):
        block = roots[b:b + rows]
        order, size = _final_bfs_block(block, start, width, nbr, owner)
        links = _earlier_neighbours(order, start, owner, nbr)
        top = log_n_factorial + centrality._rounded(*_wrapped_sums(table, links))
        # Prefix boundaries: the running sum of deg - 2 * links in BFS order.
        links *= -2
        links += deg
        bounds = np.take(links, order).reshape(links.shape)
        del links
        np.cumsum(bounds, axis=1, out=bounds)
        den = _wrapped_sums(table, bounds[:, :-1], size)
        scores[block] = top - centrality._rounded(*den)
        ours = np.flatnonzero(hub_row // rows == b // rows)  # the leaves of this block's rows
        for a in range(0, ours.size, chunk):
            at = ours[a:a + chunk]
            row, v = hub_row[at] - b, leaf[at]
            shifts = centrality._leaf_shifts(table, bounds, row, place[v], deg[v])
            scores[v] = top[row] - centrality._rounded(*(total[row] + shift for total, shift in zip(den, shifts)))
    return scores


#: The block width of ``all_roots_general_graph_scores`` and
#: ``leaf_block_general_graph_scores``: ``rqsim.centrality.BLOCK_ENTRIES``
#: when the block finder was deleted.
FINAL_BLOCK_ENTRIES = 3 << 15


def _final_bfs_block(roots: np.ndarray, start: np.ndarray, width: np.ndarray, nbr: np.ndarray,
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
    stamp = np.full(r * n, _UNREACHED, dtype=np.int64)
    unreached = np.ones(r * n, dtype=bool)
    # The found cells, level after level, and each one's BFS parent;
    # ends[i] is where level i ends in them (level 0 is the roots).
    found = np.empty(r * n, dtype=np.int64)
    parent = np.empty(r * n, dtype=np.int64)
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
        e_at = np.ones(m, dtype=np.int64)
        e_at[0] = first[0]
        e_at[k_ends[:-1]] = first[1:] - first[:-1] - k[:-1] + 1
        e_at.cumsum(out=e_at)
        e_cell = np.repeat(f_base, k)
        e_cell += nbr.take(e_at, mode="clip")
        fresh = unreached.take(e_cell, mode="clip").nonzero()[0]
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
    # Subtree sizes, deepest level first, over the spent stamps (here and
    # below, fresh arrays fault more pages per score).
    size = stamp
    size.fill(1)
    for a, b in zip(ends[-2::-1], ends[:0:-1]):
        np.add.at(size, parent[a:b], size[found[a:b]])
    # Each row's cells in BFS order, over the spent parents: level by level,
    # and within a level in discovery order, which a stable (radix) sort by
    # row keeps.
    row = (found // n).astype(np.min_scalar_type(r))
    return found.take(np.argsort(row, kind="stable"), out=parent, mode="clip"), size.reshape(r, n)
