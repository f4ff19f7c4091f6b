"""Infection-ordering likelihood scores over a snapshot.

For a tree-shaped infected set, the score of node ``v`` is the number of
infection orderings that start at ``v`` and respect adjacency:
``N! * prod(1 / T_u)`` over subtree sizes ``T_u`` with the tree rooted at
``v``.  Everything is kept in log domain (N = 400 overflows any fixed
width otherwise).  A subset-DP oracle recounts orderings directly for
small trees, and a sequence-likelihood heuristic covers loopy graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .diffusion import Snapshot
from .errors import InvalidInputError, InvalidParameterError

TreeAdjacency = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class CentralityTable:
    """Log-scores for every infected node plus the argmax node.

    Ties at the maximum break toward the lowest node id so repeated runs
    agree.
    """

    log_r: dict[int, float]
    center: int


def _as_tree_adjacency(tree: Snapshot | TreeAdjacency) -> TreeAdjacency:
    if isinstance(tree, Snapshot):
        if not tree.is_tree:
            raise InvalidInputError("infected subgraph is not a tree")
        return tree.induced_adjacency
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


def subtree_sizes(tree: Snapshot | TreeAdjacency, root: int) -> dict[int, int]:
    """Size of the subtree hanging below each node when rooted at ``root``."""
    adj = _as_tree_adjacency(tree)
    _, _, sizes = _root_pass(adj, root)
    return sizes


def log_score_at_root(tree: Snapshot | TreeAdjacency, root: int) -> float:
    """Direct evaluation log(N!) - sum(log T_u) for a single root."""
    adj = _as_tree_adjacency(tree)
    sizes = subtree_sizes(adj, root)
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


def brute_force_rumor_centrality(tree: Snapshot | TreeAdjacency, root: int) -> int:
    """Count infection orderings starting at ``root`` by subset dynamic programming.

    Counts permutations of the nodes in which every node appears after its
    tree parent; intentionally avoids the product formula so it can serve
    as an independent oracle.  Refuses trees above 10 nodes.
    """
    adj = _as_tree_adjacency(tree)
    n = len(adj)
    if n > 10:
        raise InvalidParameterError(f"brute force limited to 10 nodes, got {n}")
    order, parent, _ = _root_pass(adj, root)
    index = {v: i for i, v in enumerate(order)}
    children_masks = [0] * n
    for v in order[1:]:
        children_masks[index[parent[v]]] |= 1 << index[v]

    full = (1 << n) - 1
    memo: dict[int, int] = {full: 1}

    def ways(infected_mask: int) -> int:
        cached = memo.get(infected_mask)
        if cached is not None:
            return cached
        total = 0
        for i in range(n):
            bit = 1 << i
            if infected_mask & bit:
                continue
            par = parent[order[i]]
            if par == -1 or infected_mask & (1 << index[par]):
                total += ways(infected_mask | bit)
        memo[infected_mask] = total
        return total

    return ways(1 << index[root])


def general_graph_scores(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
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
    induced = snapshot.induced_adjacency
    ids = sorted(induced)  # local ids by ascending global id keep BFS ties
    local = {v: i for i, v in enumerate(ids)}
    targets = ids if nodes is None else sorted(set(nodes))
    for v in targets:
        if v not in local:
            raise InvalidInputError(f"node {v} is not infected")

    n = len(ids)
    adj = [[local[w] for w in induced[v]] for v in ids]
    deg = [snapshot.graph.degree(v) for v in ids]
    induced_edges = sum(map(len, adj)) // 2
    b_total = sum(deg) - 2 * induced_edges  # boundary of the whole infected set
    # A prefix's boundary edges leave the infected set or reach a later
    # infected node, so no count below runs past the table.
    log_of = [0.0, *map(math.log, range(1, max(n, b_total + induced_edges) + 1))].__getitem__

    scores: dict[int, float] = {}
    for v in targets:
        pos, parent, links = [-1] * n, [0] * n, [0] * n
        root = local[v]
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
        # exactly and the lowest id wins, as on the tree path.
        denominator = math.fsum(map(log_of, bounds + size))
        scores[v] = math.lgamma(n + 1) + math.fsum(map(log_of, links)) - denominator
    return scores


def likelihood_table(snapshot: Snapshot, nodes: Iterable[int] | None = None) -> dict[int, float]:
    """Snapshot log-likelihood by source candidate.

    Tree-shaped infected sets get the exact ordering-count score; loopy
    ones fall back to the BFS-tree heuristic.
    """
    if snapshot.is_tree:
        table = log_rumor_centralities(snapshot).log_r
        if nodes is None:
            return table
        return {v: table[v] for v in nodes}
    return general_graph_scores(snapshot, nodes)


def pick_best(scores: Mapping[int, float], pool: Iterable[int]) -> int:
    """Highest-scoring node of ``pool``; ties go to the lowest node id."""
    best = None
    for v in pool:
        key = (scores[v], -v)
        if best is None or key > best[0]:
            best = (key, v)
    if best is None:
        raise InvalidInputError("empty candidate pool")
    return best[1]
