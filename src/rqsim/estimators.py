"""Majority-voting source estimators for batch and adaptive querying.

Both schemes spend a budget of K question pairs, r per respondent:

* batch ("na"): query the floor(K/r) infected nodes closest to the
  likelihood center up front, majority-vote the identity answers into a
  set S_I and the direction answers into per-respondent predecessor
  edges, and score candidates by how many descendants they collect in
  the predecessor graph (S_D).
* adaptive ("ad"): walk from the likelihood center, each visit asking r
  pairs and following the majority-designated neighbor; S_D holds the
  most-visited nodes.

The final estimate is the maximum-likelihood node of S_I intersect S_D,
falling back to the union (S_I alone when identity answers are perfect)
and ultimately the full candidate pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .budget import choose_r_star  # noqa: F401  (also importable from here)
from .centrality import likelihood_table, pick_best
from .diffusion import Snapshot
from .errors import InvalidParameterError, check_int
from .respondent import TruthModel, UniformTape, query_rounds
from .respondent import answer_dir  # noqa: F401  (perfbench/tracer.py wraps it here)

logger = logging.getLogger(__name__)

CANDIDATE_ORDERS = ("hop", "centrality")


@dataclass(frozen=True)
class NAConfig:
    """Batch-querying parameters: total budget K and repetitions r per node."""

    budget: int
    repetitions: int
    candidate_order: str = "hop"

    def __post_init__(self):
        _check_budget_pair(self.budget, self.repetitions)
        check_candidate_order(self.candidate_order)


@dataclass(frozen=True)
class ADConfig:
    """Adaptive-querying parameters: total budget K and repetitions r per visit."""

    budget: int
    repetitions: int

    def __post_init__(self):
        _check_budget_pair(self.budget, self.repetitions)


def check_candidate_order(order: str) -> None:
    if order not in CANDIDATE_ORDERS:
        raise InvalidParameterError(
            f"candidate_order must be one of {CANDIDATE_ORDERS}, got {order!r}"
        )


def _check_budget_pair(budget: int, repetitions: int) -> None:
    check_int("repetitions", repetitions, 1)
    check_int("budget", budget, 1)
    if repetitions > budget:
        raise InvalidParameterError(
            f"repetitions ({repetitions}) cannot exceed the budget ({budget})"
        )


@dataclass
class EstimationOutcome:
    """Estimate plus the intermediate evidence that produced it."""

    estimate: int
    s_i: frozenset[int]
    s_d: frozenset[int]
    budget_used: int
    eta: dict[int, int] | None = None
    predecessor_edges: dict[int, int] | None = None
    e_counts: dict[int, int] | None = None
    candidates: tuple[int, ...] = field(default_factory=tuple)


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


def _descendant_counts(pred: Mapping[int, int]) -> dict[int, int]:
    """For each key v of ``pred``, how many other keys have a chain of
    ``pred`` links that reaches v, in O(len(pred)).

    ``pred`` is a functional graph on its keys (a link to a non-key, or
    to None, ends a chain).  Peeling keys with no incoming link, leaves
    first, adds each key's in-tree size to its successor's; the keys left
    over lie on cycles, and every member of a cycle is reached by the
    in-trees of the whole cycle.
    """
    indegree = dict.fromkeys(pred, 0)
    for w in pred.values():
        if w in indegree:
            indegree[w] += 1
    size = dict.fromkeys(pred, 1)
    leaves = [v for v, k in indegree.items() if k == 0]
    for v in leaves:  # grows while it is read
        w = pred[v]
        if w in size:
            size[w] += size[v]
            indegree[w] -= 1
            if indegree[w] == 0:
                leaves.append(w)
    counts = {v: k - 1 for v, k in size.items()}
    for v in pred:
        if indegree[v]:
            cycle = [v]
            while (w := pred[cycle[-1]]) != v:
                cycle.append(w)
            reached = sum(map(size.__getitem__, cycle)) - 1
            for w in cycle:
                indegree[w] = 0
                counts[w] = reached
    return counts


def _estimate_pool(
    s_i: set[int], s_d: set[int], p: float, fallback: Iterable[int]
) -> Iterable[int]:
    """Nodes the estimate is picked from: S_I & S_D, else S_I alone when
    identity answers are perfect, else the union, else ``fallback``."""
    inter = s_i & s_d
    if inter:
        return inter
    if p == 1.0 and s_i:
        return s_i
    return (s_i | s_d) or fallback


def select_candidates_na(
    snapshot: Snapshot,
    size: int,
    order: str = "hop",
    scores: Mapping[int, float] | None = None,
    centre: int | None = None,
) -> list[int]:
    """Ordered respondent list for batch querying.

    ``hop`` mode (the analyzed default) starts at the likelihood center
    and adds infected nodes level by level outward, within-level ties by
    ascending node id, as a prefix of the snapshot's one hop order from
    that centre.  ``centrality`` mode sorts by descending score.  Sizes
    above the infected count are clamped with a warning.  ``centre`` is
    ``pick_best(scores, scores)`` when the caller already has it.
    """
    check_candidate_order(order)
    check_int("size", size, 1)
    n = snapshot.n
    if size > n:
        logger.warning("candidate size %d clamped to infected count %d", size, n)
        size = n
    if scores is None:
        scores = likelihood_table(snapshot)

    if order == "centrality":
        return sorted(scores, key=lambda v: (-scores[v], v))[:size]

    return snapshot.hop_order(pick_best(scores, scores) if centre is None else centre)[:size]


def run_mvna(
    snapshot: Snapshot,
    config: NAConfig,
    model: TruthModel,
    rng: np.random.Generator,
    *,
    scores: Mapping[int, float] | None = None,
    centre: int | None = None,
) -> EstimationOutcome:
    """Batch majority-voting estimation; uses exactly r * floor(K/r) budget.

    Every candidate gets one predecessor edge (its most-designated
    neighbor, random tie break, even when no direction answer arrived);
    descendant counts over the resulting predecessor graph come from one
    peel of it.  ``scores`` is the snapshot's full likelihood table and
    ``centre`` its likelihood centre when the caller already has them.
    """
    graph = snapshot.require_graph("batch querying")
    model.validate_for_degree(graph.max_degree())
    r, K = config.repetitions, config.budget
    if scores is None:
        scores = likelihood_table(snapshot)
    candidates = select_candidates_na(snapshot, min(K // r, snapshot.n), config.candidate_order, scores, centre)
    tape = UniformTape(rng)

    s_i: set[int] = set()
    pred: dict[int, int] = {}
    respondents = snapshot.respondents
    for v in candidates:
        rec = query_rounds(v, snapshot, r, model, tape)
        if 2 * rec.yes_count >= r:
            s_i.add(v)
        votes = rec.designations
        if len(votes) == 1:
            [pred[v]] = votes
        else:
            # Undesignated neighbours count 0: they can win only when none was designated.
            pred[v] = _majority(votes or dict.fromkeys(respondents[v][0], 0), tape)
    e_counts = _descendant_counts(pred)

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
    centre: int | None = None,
) -> EstimationOutcome:
    """Adaptive majority-voting estimation.

    The walk starts at the likelihood center and is steered by the
    majority direction answer of each visit.  Respondents are always
    infected nodes: the querier observes the snapshot, so designations
    pointing outside it are discarded as known-false, and a visit that
    yields no usable designation moves to a uniformly random infected
    neighbor.  Revisits are allowed and accumulate in eta.  With perfect
    identity answers the walk halts the moment it queries the source.
    ``scores`` is the snapshot's full likelihood table and ``centre`` its
    likelihood centre when the caller already has them.
    """
    graph = snapshot.require_graph("adaptive querying")
    model.validate_for_degree(graph.max_degree())
    r, K = config.repetitions, config.budget
    if scores is None:
        scores = likelihood_table(snapshot)
    infected, respondents = snapshot.index, snapshot.respondents
    tape = UniformTape(rng)

    s = pick_best(scores, scores) if centre is None else centre
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

        votes = rec.designations
        if len(votes) == 1:
            [nxt] = votes
            if nxt not in infected:
                nxt = None
        elif votes:
            nxt = _majority({w: c for w, c in votes.items() if w in infected}, tape)
        else:
            nxt = None
        if nxt is None:
            inf_nbrs = [w for w in respondents[s][0] if w in infected]
            nxt = inf_nbrs[int(tape.random() * len(inf_nbrs))] if inf_nbrs else s
        s = nxt

    budget_used = K - remaining
    # The walk only halts at the source when p = 1, and eta stays empty then.
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
