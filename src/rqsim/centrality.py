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
from typing import Iterable, Mapping, Sequence

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


def log_score_at_root(tree: Snapshot | TreeAdjacency, root: int) -> float:
    """Direct evaluation log(N!) - sum(log T_u) for a single root."""
    sizes = _sizes(_rooted(tree, root)[1])
    return math.lgamma(len(sizes) + 1) - sum(math.log(s) for s in sizes)


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
