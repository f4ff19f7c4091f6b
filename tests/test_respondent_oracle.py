"""The one-routine respondent tally against the scalar original, and its law.

``reference_respondent`` keeps the answers as first written: one call per
identity and per direction answer, ``Generator.integers`` for integer
picks.  Fed the same uniforms through its shim, it must give exactly the
tallies, designations and tie-break picks the rewrite gives.
"""

import numpy as np
import pytest

import reference_respondent as reference
from conftest import snapshot_of, star_graph
from rqsim.diffusion import simulate_si
from rqsim.errors import InvalidInputError
from rqsim.estimators import ADConfig, NAConfig, _majority, run_mvad, run_mvna
from rqsim.graphs import Graph, make_erdos_renyi, make_galton_watson, make_regular_tree
from rqsim.respondent import BLOCK, TruthModel, UniformTape, query_rounds

N = 60

BUILDERS = {
    "regular:3": lambda rng: make_regular_tree(3),
    "gw:6": lambda rng: make_galton_watson(6, 4 * N, rng),
    "er:120:4": lambda rng: make_erdos_renyi(120, 4.0, rng),
}

MODELS = [TruthModel(p=0.7, q=0.6), TruthModel(p=1.0, q=0.6), TruthModel(p=0.7, q=1.0),
          TruthModel(p=1.0, q=1.0), TruthModel(p=0.55, q=0.9)]


def seeded_snapshot(family: str, seed: int):
    rng = np.random.default_rng(seed)
    graph = BUILDERS[family](rng)
    source = int(rng.integers(graph.n)) if graph.is_finite else 0
    return simulate_si(graph, source, N, rng)


def test_tape_replays_the_scalar_stream():
    tape = UniformTape(np.random.default_rng(7))
    n = 2 * BLOCK + 5
    assert [tape.random() for _ in range(n)] == np.random.default_rng(7).random(n).tolist()


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tally_matches_reference(family, seed):
    snap = seeded_snapshot(family, seed)
    graph = snap.graph
    if family == "gw:6":  # Galton-Watson leaves: degree-1 respondents
        assert any(len(graph.neighbors(v)) == 1 for v in snap.infected[1:])
    for m, model in enumerate(MODELS):
        for r in (1, 3, 8):
            stream = 1000 * seed + 10 * m + r
            tape = UniformTape(np.random.default_rng(stream))
            shim = reference.TapeShim(UniformTape(np.random.default_rng(stream)))
            for v in snap.infected:  # the source first, then every non-source
                new = query_rounds(v, snap, r, model, tape)
                old = reference.query_rounds(v, snap, r, model, shim)
                assert new == old
                assert list(new.designations.items()) == list(old.designations.items())
                # the batch scheme's vote: every neighbor, most of them tied at 0
                counts = dict.fromkeys(graph.neighbors(v), 0)
                counts.update(new.designations)
                assert _majority(counts, tape) == reference._majority(counts, shim)
            assert tape.random() == shim.random()  # both read the same number of uniforms


def test_tie_breaks_match_reference():
    tape = UniformTape(np.random.default_rng(3))
    shim = reference.TapeShim(UniformTape(np.random.default_rng(3)))
    for counts in ({5: 2, 1: 2, 9: 2}, {4: 1, 2: 1}, {8: 0, 3: 0, 6: 0, 1: 0}, {2: 3, 7: 1}, {}):
        for _ in range(200):
            assert _majority(counts, tape) == reference._majority(counts, shim)


def test_errors_keep_their_types():
    isolated = snapshot_of(Graph([[]]), 0, [0], {})
    model = TruthModel(p=0.6, q=0.9)
    for fn, rng in ((query_rounds, UniformTape(np.random.default_rng(1))),
                    (reference.query_rounds, reference.TapeShim(UniformTape(np.random.default_rng(1))))):
        with pytest.raises(InvalidInputError):
            fn(0, isolated, 50, model, rng)  # the source lies "no" and must name a neighbor
        with pytest.raises(InvalidInputError):
            fn(2, snapshot_of(star_graph(3), 0, [0, 1], {1: 0}), 3, TruthModel(p=1.0, q=0.9), rng)


class CountingGenerator:
    """A ``Generator`` that records how each draw was asked for."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple] = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self._rng.random(size)

    def integers(self, *args, **kwargs):
        self.calls.append(("integers", args))
        return self._rng.integers(*args, **kwargs)


@pytest.mark.parametrize("p", [0.8, 1.0])
def test_estimators_draw_only_blocks(p):
    snap = seeded_snapshot("gw:6", 4)
    model = TruthModel(p=p, q=0.8)
    for run, config in ((run_mvna, NAConfig(budget=2000, repetitions=2)),
                        (run_mvad, ADConfig(budget=2000, repetitions=2))):
        rng = CountingGenerator(9)
        run(snap, config, model, rng)
        assert rng.calls and set(rng.calls) == {("random", BLOCK)}


#: Upper 0.001 point of chi-square with 3 degrees of freedom.
CHI2_3DF_999 = 16.266


@pytest.mark.parametrize("who", ["source", "non-source"])
def test_answer_law_chi_square(who):
    p, q, rounds = 0.7, 0.6, 30_000
    snap = seeded_snapshot("regular:3", 11)
    v = snap.source if who == "source" else snap.infected[7]
    nbrs = snap.graph.neighbors(v)
    if who == "source":
        expect = {"yes": p, **{w: (1 - p) / 3 for w in nbrs}}
    else:
        parent = snap.parent[v]
        expect = {"yes": 1 - p, **{w: p * (q if w == parent else (1 - q) / 2) for w in nbrs}}
    rec = query_rounds(v, snap, rounds, TruthModel(p=p, q=q), UniformTape(np.random.default_rng(12)))
    seen = {"yes": rec.yes_count, **rec.designations}
    assert set(seen) <= set(expect)
    stat = sum((seen.get(k, 0) - rounds * e) ** 2 / (rounds * e) for k, e in expect.items())
    assert stat < CHI2_3DF_999
