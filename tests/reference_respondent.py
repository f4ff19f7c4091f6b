"""Respondent answers as first written, kept as a differential oracle.

``rqsim.respondent.query_rounds`` now tallies a visit in one routine that
reads only ``rng.random()``, and the estimators hand it a block-drawn
:class:`~rqsim.respondent.UniformTape`.  This module keeps the original
scalar routines unchanged (one call per identity answer, one per
direction answer, ``rng.integers`` for every integer pick), so the tests
can feed both the same uniforms through :class:`TapeShim` and require
identical tallies and tie-break picks.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from rqsim.diffusion import Snapshot
from rqsim.errors import InvalidInputError, InvalidParameterError
from rqsim.respondent import AnswerRecord, TruthModel, UniformTape


class TapeShim:
    """A generator stand-in reading ``tape``: ``integers(n)`` is ``int(u * n)``."""

    def __init__(self, tape: UniformTape):
        self.random = tape.random

    def integers(self, n: int) -> int:
        return int(self.random() * n)


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


def _majority(counts: Mapping[int, int], rng: np.random.Generator) -> int | None:
    """Key with the largest count; uniform random tie break; None if empty."""
    if not counts:
        return None
    top = max(counts.values())
    args = sorted(w for w, c in counts.items() if c == top)
    return args[0] if len(args) == 1 else args[int(rng.integers(len(args)))]
