"""Batch and adaptive estimators as written before their per-respondent
rewrite, kept as a differential oracle.

``rqsim.estimators`` now takes each batch vote straight from the
designations, counts descendants with one peel of the predecessor graph,
reuses one hop order per snapshot and centre, and reads each respondent's
neighbours and parent from a per-snapshot memo.  This module keeps the
earlier routines unchanged: a vote over every neighbour through
``_majority``, one descendant DFS per candidate and a hop BFS per call.
Fed the same generator, both must return equal outcomes and read the same
number of uniforms.
"""

from __future__ import annotations

import logging
from typing import Mapping

import numpy as np

from reference_scorer import local_adjacency
from rqsim.centrality import likelihood_table, pick_best
from rqsim.diffusion import Snapshot
from rqsim.errors import InvalidParameterError
from rqsim.estimators import (
    ADConfig,
    EstimationOutcome,
    NAConfig,
    _estimate_pool,
    check_candidate_order,
)
from rqsim.respondent import TruthModel, UniformTape, query_rounds

logger = logging.getLogger(__name__)


def _majority(counts: Mapping[int, int], tape: UniformTape) -> int | None:
    """Key with the largest count; None if empty.  A tie is broken by one
    uniform u read from ``tape``: the tied keys, in ascending order, at
    index ``int(u * ties)``."""
    if not counts:
        return None
    top = max(counts.values())
    args = [w for w, c in counts.items() if c == top]
    if len(args) == 1:
        return args[0]
    args.sort()
    return args[int(tape.random() * len(args))]


def select_candidates_na(
    snapshot: Snapshot,
    size: int,
    order: str = "hop",
    scores: Mapping[int, float] | None = None,
) -> list[int]:
    """Ordered respondent list for batch querying: a hop BFS from the
    likelihood centre on every call, cut at ``size``."""
    check_candidate_order(order)
    if size < 1:
        raise InvalidParameterError(f"size must be >= 1, got {size}")
    n = snapshot.n
    if size > n:
        logger.warning("candidate size %d clamped to infected count %d", size, n)
        size = n
    if scores is None:
        scores = likelihood_table(snapshot)

    if order == "centrality":
        return sorted(scores, key=lambda v: (-scores[v], v))[:size]

    ids, adj = snapshot.infected, local_adjacency(snapshot)
    level = [snapshot.index[pick_best(scores, scores)]]
    result = level[:]
    seen = set(level)
    while level and len(result) < size:
        frontier = sorted({w for u in level for w in adj[u] if w not in seen}, key=ids.__getitem__)
        for w in frontier:
            seen.add(w)
            result.append(w)
            if len(result) == size:
                break
        level = frontier
    return [ids[i] for i in result]


def descendant_counts(pred: Mapping[int, int], candidates) -> dict[int, int]:
    """For each candidate v, how many other nodes' predecessor chains lead
    to v: one cycle-safe DFS over the reversed edges per candidate."""
    children: dict[int, list[int]] = {}
    for v, w in pred.items():
        children.setdefault(w, []).append(v)
    e_counts: dict[int, int] = {}
    for v in candidates:
        seen = {v}
        stack = list(children.get(v, ()))
        count = 0
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            count += 1
            stack.extend(children.get(u, ()))
        e_counts[v] = count
    return e_counts


def run_mvna(
    snapshot: Snapshot,
    config: NAConfig,
    model: TruthModel,
    rng: np.random.Generator,
    *,
    scores: Mapping[int, float] | None = None,
) -> EstimationOutcome:
    """Batch majority-voting estimation; uses exactly r * floor(K/r) budget."""
    graph = snapshot.require_graph("batch querying")
    model.validate_for_degree(graph.max_degree())
    r, K = config.repetitions, config.budget
    if scores is None:
        scores = likelihood_table(snapshot)
    candidates = select_candidates_na(snapshot, min(K // r, snapshot.n), config.candidate_order, scores)
    tape = UniformTape(rng)

    s_i: set[int] = set()
    pred: dict[int, int] = {}
    for v in candidates:
        rec = query_rounds(v, snapshot, r, model, tape)
        if 2 * rec.yes_count >= r:
            s_i.add(v)
        counts = dict.fromkeys(graph.neighbors(v), 0)
        counts.update(rec.designations)
        pred[v] = _majority(counts, tape)

    e_counts = descendant_counts(pred, candidates)
    max_e = max(e_counts.values())
    s_d = {v for v, c in e_counts.items() if c == max_e}

    estimate = pick_best(scores, _estimate_pool(s_i, s_d, model.p, candidates))

    return EstimationOutcome(
        estimate=estimate,
        s_i=frozenset(s_i),
        s_d=frozenset(s_d),
        budget_used=r * len(candidates),
        predecessor_edges=pred,
        e_counts=e_counts,
        candidates=tuple(candidates),
    )


def run_mvad(
    snapshot: Snapshot,
    config: ADConfig,
    model: TruthModel,
    rng: np.random.Generator,
    *,
    scores: Mapping[int, float] | None = None,
) -> EstimationOutcome:
    """Adaptive majority-voting estimation: a walk from the likelihood
    centre steered by each visit's majority over infected designations."""
    graph = snapshot.require_graph("adaptive querying")
    model.validate_for_degree(graph.max_degree())
    r, K = config.repetitions, config.budget
    if scores is None:
        scores = likelihood_table(snapshot)
    infected = snapshot.index
    tape = UniformTape(rng)

    s = pick_best(scores, scores)
    remaining = K
    s_i: set[int] = set()
    eta: dict[int, int] = {}
    estimate: int | None = None

    while remaining >= r:
        remaining -= r
        if model.p == 1.0 and s == snapshot.source:
            estimate = s
            break
        rec = query_rounds(s, snapshot, r, model, tape)
        if model.p < 1.0:
            eta[s] = eta.get(s, 0) + 1
            if 2 * rec.yes_count >= r:
                s_i.add(s)

        nxt = _majority({w: c for w, c in rec.designations.items() if w in infected}, tape)
        if nxt is None:
            inf_nbrs = [w for w in graph.neighbors(s) if w in infected]
            nxt = inf_nbrs[int(tape.random() * len(inf_nbrs))] if inf_nbrs else s
        s = nxt

    budget_used = K - remaining
    s_d: set[int] = set()
    if estimate is None:
        if eta:
            max_eta = max(eta.values())
            s_d = {v for v, c in eta.items() if c == max_eta}
        else:
            s_d = set(infected)
        estimate = pick_best(scores, _estimate_pool(s_i, s_d, model.p, infected))

    return EstimationOutcome(
        estimate=estimate,
        s_i=frozenset(s_i),
        s_d=frozenset(s_d),
        budget_used=budget_used,
        eta=eta,
    )
