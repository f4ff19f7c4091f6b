"""Hot-path implementations as first written, kept as differential oracles.

``rqsim`` rewrote these on infection positions; this module keeps the
originals unchanged so the tests can compare old and new output:

* the dict-based loopy BFS-tree scorer (``general_graph_scores``);
* its successor on infection positions, one sequential BFS and one
  ``math.fsum`` per root (``per_root_general_graph_scores``);
* the global-id induced adjacency a snapshot used to cache
  (``induced_adjacency``);
* the DFS-and-reroot tree scorer (``log_rumor_centralities``);
* the hop ordering of batch candidates (``hop_candidates``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from rqsim.centrality import CentralityTable, _positions, pick_best
from rqsim.diffusion import Snapshot
from rqsim.errors import InvalidInputError

TreeAdjacency = Mapping[int, Sequence[int]]


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
    ids, adj = snapshot.infected, snapshot.local_adjacency  # neighbour ties by ascending id
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
