"""Noisy respondent model for identity and direction questions.

A queried node first answers "are you the source?" truthfully with
probability ``p``.  Only on a "no" is it asked "which neighbor spread the
information to you?", answered with the true parent with probability
``q`` and otherwise a uniformly random other neighbor.  One id/dir pair
costs one unit of budget, so an r-round visit costs r.

Answers read nothing but ``rng.random()``.  The estimators pass a
:class:`UniformTape`, which refills a block of uniforms from the row's
``Generator`` and hands them out one at a time, in the order scalar
``Generator.random()`` calls would return them, converting to a Python
float only the uniforms that are read; an integer pick below n is
``int(u * n)`` of one uniform u.

A respondent's neighbours and parent are looked up once per snapshot,
on its first visit, into ``Snapshot.respondents``; from then on that
table is the only place any visit reads them, the estimators' walk
fallback and all-"yes" vote included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .diffusion import Snapshot
from .errors import InvalidInputError, InvalidParameterError

#: Uniforms a :class:`UniformTape` draws from its generator per refill.
BLOCK = 1024


class UniformTape:
    """Uniforms on [0, 1) from ``rng``, drawn ``BLOCK`` at a time.

    ``random()`` returns the numbers ``rng.random()`` would, in the same
    order, but the generator advances a whole block at each refill.  A
    block is read through a ``memoryview``, so that only the uniforms
    handed out become Python floats: a row often reads a tenth of one.
    """

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: memoryview(rng.random(BLOCK)), None)
        self.random = chain.from_iterable(blocks).__next__


@dataclass(frozen=True)
class TruthModel:
    """Per-question truthfulness probabilities.

    ``p`` must exceed 1/2 and ``q`` must exceed 1/d for a governing
    degree d of at least 2 (a degree-1 respondent can only name its
    parent); the degree-dependent part is checked against a concrete
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
        if d >= 2 and self.q <= 1.0 / d:
            raise InvalidParameterError(
                f"q={self.q} is uninformative for degree {d} (needs q > {1.0 / d:.4g})"
            )


@dataclass(slots=True)
class AnswerRecord:
    """Tally of one respondent's answers over ``rounds`` id/dir pairs."""

    respondent: int
    rounds: int
    yes_count: int = 0
    designations: dict[int, int] = field(default_factory=dict)


def _respondent(v: int, snapshot: Snapshot) -> tuple:
    """(neighbors, parent or None at the source) of infected node ``v``,
    looked up once per snapshot into ``snapshot.respondents``."""
    found = snapshot.respondents.get(v)
    if found is None:
        graph = snapshot.require_graph("answering")
        at = snapshot.position_of(v)
        parent = snapshot.infected[snapshot.parent_pos[at]] if at else None
        found = snapshot.respondents[v] = (graph.neighbors(v), parent)
    return found


def answer_dir(
    v: int, snapshot: Snapshot, q: float, rng: np.random.Generator | UniformTape
) -> int:
    """One direction answer from infected node ``v``: the direction
    answer of a :func:`query_rounds` round whose identity answer was "no".

    A non-source names its true parent with probability ``q`` and a
    uniform other neighbor otherwise (the lie uses the respondent's actual
    degree).  The source, reachable here only after a lying "no", has no
    parent and names a uniform neighbor.  A degree-1 non-source can only
    name its parent.
    """
    # At p = 1 a uniform of 0 is a non-source's "no" and 1 is the source's;
    # the round reads it first and then the uniforms of ``rng``.
    no = 1.0 if _respondent(v, snapshot)[1] is None else 0.0
    after_no = SimpleNamespace(random=chain((no,), iter(rng.random, None)).__next__)
    [w] = query_rounds(v, snapshot, 1, TruthModel(p=1.0, q=q), after_no).designations
    return w


def query_rounds(
    v: int,
    snapshot: Snapshot,
    r: int,
    model: TruthModel,
    rng: np.random.Generator | UniformTape,
) -> AnswerRecord:
    """Ask ``r`` independent id/dir pairs of infected node ``v`` (budget cost: r).

    Each round draws an identity answer; a direction answer is drawn only
    after a "no", so yes_count plus total designations always equals r.
    A direction answer is the true parent with probability ``q`` (always
    at degree 1) and otherwise the other neighbor at ``int(u * (deg - 1))``
    of one uniform u, the last neighbor standing in for the parent; the
    source has no parent and names the neighbor at ``int(u * deg)``.
    """
    if r < 1:
        raise InvalidParameterError(f"repetition count must be >= 1, got {r}")
    nbrs, parent = snapshot.respondents.get(v) or _respondent(v, snapshot)
    p, q, random = model.p, model.q, rng.random
    # "Yes" is the truthful answer of the source and the lie of any other node.
    truthful_yes = parent is None
    deg = len(nbrs)
    yes = 0
    designations: dict[int, int] = {}
    for _ in range(r):
        if (random() < p) == truthful_yes:
            yes += 1
            continue
        if truthful_yes:
            if not deg:
                raise InvalidInputError(f"respondent {v} is isolated")
            w = nbrs[int(random() * deg)]
        elif deg == 1 or random() < q:
            w = parent
        else:
            w = nbrs[int(random() * (deg - 1))]
            if w == parent:
                w = nbrs[deg - 1]
        designations[w] = designations.get(w, 0) + 1
    return AnswerRecord(v, r, yes, designations)
