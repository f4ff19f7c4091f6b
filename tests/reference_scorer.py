"""The loopy BFS-tree scorer as first written, kept as a differential oracle.

``general_graph_scores`` in ``rqsim.centrality`` was rewritten on dense
local ids; this module keeps the original dict-based implementation
unchanged so the tests can compare the two score by score.
"""

from __future__ import annotations

import math
from typing import Iterable

from rqsim.centrality import TreeAdjacency, log_score_at_root
from rqsim.diffusion import Snapshot
from rqsim.errors import InvalidInputError


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
    adj = snapshot.induced_adjacency
    graph = snapshot.graph
    members = snapshot.infected_set
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
