"""Noisy respondent model for identity and direction questions.

A queried node first answers "are you the source?" truthfully with
probability ``p``.  Only on a "no" is it asked "which neighbor spread the
information to you?", answered with the true parent with probability
``q`` and otherwise a uniformly random other neighbor.  One id/dir pair
costs one unit of budget, so an r-round visit costs r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffusion import Snapshot
from .errors import InvalidInputError, InvalidParameterError


@dataclass(frozen=True)
class TruthModel:
    """Per-question truthfulness probabilities.

    ``p`` must exceed 1/2 and ``q`` must exceed 1/d for the governing
    degree d; the degree-dependent part is checked against a concrete
    graph via :meth:`validate_for_degree`.
    """

    p: float
    q: float

    def __post_init__(self):
        if not 0.5 < self.p <= 1.0:
            raise InvalidParameterError(f"p must be in (1/2, 1], got {self.p}")
        if not 0.0 < self.q <= 1.0:
            raise InvalidParameterError(f"q must be in (0, 1], got {self.q}")

    def validate_for_degree(self, d: int) -> None:
        if d >= 1 and self.q <= 1.0 / d:
            raise InvalidParameterError(
                f"q={self.q} is uninformative for degree {d} (needs q > {1.0 / d:.4g})"
            )


@dataclass
class AnswerRecord:
    """Tally of one respondent's answers over ``rounds`` id/dir pairs."""

    respondent: int
    rounds: int
    yes_count: int = 0
    designations: dict[int, int] = field(default_factory=dict)

    @property
    def yes_fraction(self) -> float:
        return self.yes_count / self.rounds

    def check_conservation(self) -> bool:
        return self.yes_count + sum(self.designations.values()) == self.rounds


def answer_id(v: int, source: int, p: float, rng: np.random.Generator) -> bool:
    """One identity answer: the truth with probability ``p``, else its negation."""
    truth = v == source
    return truth if rng.random() < p else not truth


def answer_dir(v: int, snapshot: Snapshot, q: float, rng: np.random.Generator) -> int:
    """One direction answer from infected node ``v``.

    A non-source names its true parent with probability ``q`` and a
    uniform other neighbor otherwise (the lie uses the respondent's actual
    degree).  The source, reachable here only after a lying "no", has no
    parent and names a uniform neighbor.  A degree-1 non-source can only
    name its parent.
    """
    at = snapshot.position_of(v)
    nbrs = snapshot.graph.neighbors(v)
    deg = len(nbrs)
    if deg == 0:
        raise InvalidInputError(f"respondent {v} is isolated")
    if at == 0:
        return nbrs[int(rng.integers(deg))]
    parent = snapshot.infected[snapshot.parent_pos[at]]
    if deg == 1 or rng.random() < q:
        return parent
    i = int(rng.integers(deg - 1))
    w = nbrs[i]
    return nbrs[deg - 1] if w == parent else w


def query_rounds(
    v: int,
    snapshot: Snapshot,
    r: int,
    model: TruthModel,
    rng: np.random.Generator,
) -> AnswerRecord:
    """Ask ``r`` independent id/dir pairs of node ``v`` (budget cost: r).

    Each round draws an identity answer; a direction answer is drawn only
    after a "no", so yes_count plus total designations always equals r.
    """
    if r < 1:
        raise InvalidParameterError(f"repetition count must be >= 1, got {r}")
    rec = AnswerRecord(respondent=v, rounds=r)
    for _ in range(r):
        if answer_id(v, snapshot.source, model.p, rng):
            rec.yes_count += 1
        else:
            w = answer_dir(v, snapshot, model.q, rng)
            rec.designations[w] = rec.designations.get(w, 0) + 1
    return rec
