"""Scorer check: rqsim's likelihood table against an independent oracle.

The detection check of ``run.py`` has little power on the loopy
workloads, which run only a few dozen trials. This check instead draws
snapshots of the workload's own graph from the benchmark's seed and
compares every entry of ``rqsim.likelihood_table`` with a plain
re-derivation of the same scores, written from the definitions and
sharing no code with rqsim:

* tree-shaped infected sets: log(N!) - sum over u of log T_u, where T_u is
  the size of the subtree below u when the tree is rooted at the
  candidate (rumor centrality);
* loopy infected sets (the BFS-tree heuristic of Shah & Zaman): BFS over
  the infected-induced subgraph with ties by ascending id, scored as the
  rumor centrality of the BFS tree plus the log-likelihood of its
  discovery order, each step weighing (edges from the infected prefix to
  the next node) over (all boundary edges of the prefix).

Tables are compared after subtracting their maxima, so a rewrite may
drop a constant from every score, but not change any ranking or gap.
"""

from __future__ import annotations

import math

#: Largest allowed |difference| of two max-shifted log scores.
TOLERANCE = 1e-6


def _rumor_centrality(adj: dict[int, list[int]], root: int) -> tuple[list[int], float]:
    """BFS order from ``root`` over ``adj`` (ties by ascending id) and the
    log rumor centrality of the resulting BFS tree at ``root``."""
    parent = {root: None}
    order = [root]
    for u in order:
        for w in sorted(adj[u]):
            if w not in parent:
                parent[w] = u
                order.append(w)
    size = dict.fromkeys(order, 1)
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return order, math.lgamma(len(order) + 1) - sum(math.log(s) for s in size.values())


def oracle_scores(graph, infected) -> dict[int, float]:
    """Log score of every infected node as a source candidate."""
    members = set(infected)
    induced = {v: [w for w in graph.neighbors(v) if w in members] for v in infected}
    if sum(len(nbrs) for nbrs in induced.values()) // 2 == len(members) - 1:
        return {v: _rumor_centrality(induced, v)[1] for v in infected}

    scores = {}
    for v in infected:
        order, log_r = _rumor_centrality(induced, v)
        if len(order) != len(members):
            raise ValueError("infected set is disconnected")
        prefix = {v}
        boundary = len(graph.neighbors(v))
        log_p = 0.0
        for w in order[1:]:
            links = sum(1 for x in graph.neighbors(w) if x in prefix)
            log_p += math.log(links / boundary)
            boundary += len(graph.neighbors(w)) - 2 * links
            prefix.add(w)
        scores[v] = log_p + log_r
    return scores


def compare(got: dict[int, float], want: dict[int, float]) -> tuple[float, str | None]:
    """(largest max-shifted difference, reason the tables disagree or None)."""
    if set(got) != set(want):
        return math.inf, f"table covers {len(got)} nodes, oracle {len(want)}"
    top_got, top_want = max(got.values()), max(want.values())
    worst = max(abs((got[v] - top_got) - (want[v] - top_want)) for v in want)
    if not worst <= TOLERANCE:
        return worst, f"scores differ from the oracle by up to {worst:.3g} > {TOLERANCE}"
    return worst, None
