"""The estimators' per-respondent rewrite against the code it replaced.

``reference_estimators`` keeps ``run_mvna`` and ``run_mvad`` as they were
before the direct batch vote, the one-peel descendant counts, the shared
hop order and the per-snapshot respondent memo.  Both read a counting
tape over the same generator stream and must return equal outcomes after
reading the same number of uniforms.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_estimators as reference
import rqsim.estimators as estimators
from rqsim.centrality import likelihood_table
from rqsim.diffusion import Snapshot
from rqsim.estimators import ADConfig, NAConfig, _descendant_counts, run_mvad, run_mvna, select_candidates_na
from rqsim.respondent import TruthModel, UniformTape, query_rounds
from test_respondent_oracle import MODELS, seeded_snapshot

FAMILIES = ("regular:3", "gw:6", "er:120:4")


class CountingTape:
    """A :class:`UniformTape` that counts the uniforms read from it."""

    def __init__(self, rng: np.random.Generator):
        self.reads = 0
        draw = UniformTape(rng).random

        def random() -> float:
            self.reads += 1
            return draw()

        self.random = random


@pytest.fixture
def tapes(monkeypatch) -> list[CountingTape]:
    """Every tape either estimator makes, in the order they were made."""
    made: list[CountingTape] = []

    def make(rng):
        made.append(CountingTape(rng))
        return made[-1]

    monkeypatch.setattr(estimators, "UniformTape", make)
    monkeypatch.setattr(reference, "UniformTape", make)
    return made


def twin(snap: Snapshot) -> Snapshot:
    """The same snapshot as a new object, so that it shares no memo."""
    return Snapshot(snap.graph, snap.infected, snap.parent_pos, snap.index)


def assert_same_run(new, old, tapes):
    assert new == old
    for name in ("predecessor_edges", "e_counts", "eta"):
        if getattr(new, name) is not None:
            assert list(getattr(new, name).items()) == list(getattr(old, name).items())
    assert tapes[-2].reads == tapes[-1].reads


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimators_match_reference(family, seed, tapes):
    snap = seeded_snapshot(family, seed)
    old_snap = twin(snap)
    table = likelihood_table(snap)
    for m, model in enumerate(MODELS):
        for r in (1, 3, 8):
            for K in (r, 20, 60, 8 * snap.n):
                stream = 1000 * seed + 100 * m + 10 * r + K
                for order in ("hop", "centrality"):
                    config = NAConfig(budget=K, repetitions=r, candidate_order=order)
                    new = run_mvna(snap, config, model, np.random.default_rng(stream), scores=table)
                    old = reference.run_mvna(old_snap, config, model, np.random.default_rng(stream),
                                             scores=table)
                    assert_same_run(new, old, tapes)
                config = ADConfig(budget=K, repetitions=r)
                new = run_mvad(snap, config, model, np.random.default_rng(stream), scores=table)
                old = reference.run_mvad(old_snap, config, model, np.random.default_rng(stream),
                                         scores=table)
                assert_same_run(new, old, tapes)


@pytest.mark.parametrize("family", FAMILIES)
def test_estimators_match_reference_without_scores(family, tapes):
    snap = seeded_snapshot(family, 5)
    model = TruthModel(p=0.7, q=0.6)
    for run, ref, config in ((run_mvna, reference.run_mvna, NAConfig(budget=30, repetitions=2)),
                             (run_mvad, reference.run_mvad, ADConfig(budget=30, repetitions=2))):
        new = run(snap, config, model, np.random.default_rng(9))
        old = ref(twin(snap), config, model, np.random.default_rng(9))
        assert_same_run(new, old, tapes)


@pytest.mark.parametrize("family", FAMILIES)
def test_hop_order_prefixes_match_reference(family):
    snap = seeded_snapshot(family, 3)
    assert snap.is_tree == (family != "er:120:4")  # parent_pos and breadth-first paths
    table = likelihood_table(snap)
    for snap in (snap, Snapshot.from_json(snap.to_json())):  # with and without the graph
        for size in range(1, snap.n + 1):
            assert select_candidates_na(snap, size, "hop", table) == reference.select_candidates_na(
                twin(snap), size, "hop", table
            )


class CountingGraph:
    """A graph that counts its ``neighbors`` calls and forwards every other
    attribute (``max_degree``, ``acyclic``, the CSR arrays) to ``graph``."""

    def __init__(self, graph):
        self.graph, self.calls = graph, 0

    def neighbors(self, v):
        self.calls += 1
        return self.graph.neighbors(v)

    def __getattr__(self, name):
        return getattr(self.graph, name)


def test_respondent_looked_up_once_per_snapshot():
    snap = seeded_snapshot("er:120:4", 0)
    graph = CountingGraph(snap.graph)
    counted = Snapshot(graph, snap.infected, snap.parent_pos, snap.index)
    tape = UniformTape(np.random.default_rng(1))
    model = TruthModel(p=0.7, q=0.6)
    for v in snap.infected[:5] * 4:
        query_rounds(v, counted, 3, model, tape)
    assert graph.calls == 5
    assert list(counted.respondents) == list(snap.infected[:5])


@pytest.mark.parametrize("family", ["regular:3", "er:120:4"])
@pytest.mark.parametrize("seed", [0, 1])
def test_rows_look_up_each_respondent_once_per_snapshot(family, seed):
    """Whole batch and adaptive rows on one snapshot, as a trial runs them:
    the walk's no-designation steps and the all-"yes" batch votes read the
    respondent table too, so each respondent costs one ``neighbors`` call."""
    snap = seeded_snapshot(family, seed)
    graph = CountingGraph(snap.graph)
    counted = Snapshot(graph, snap.infected, snap.parent_pos, snap.index)
    table = likelihood_table(snap)
    model = TruthModel(p=0.7, q=0.6)
    for r in (1, 2):
        for K in (r, 7, 20, 60, 200):
            stream = np.random.default_rng([seed, r, K])
            run_mvna(counted, NAConfig(budget=K, repetitions=r), model, stream, scores=table)
            run_mvad(counted, ADConfig(budget=K, repetitions=r), model, stream, scores=table)
            assert graph.calls == len(counted.respondents)
    assert len(counted.respondents) > 1


def functional_graphs():
    """A link per key: to another key, to itself, to a node that is not a
    key, or to None (an isolated respondent)."""
    keys = st.lists(st.integers(0, 30), min_size=1, max_size=25, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: st.one_of(st.sampled_from(ks), st.integers(31, 35), st.none()) for k in ks}
    ))


@settings(max_examples=300, deadline=None)
@given(functional_graphs())
@example({1: 2, 2: 1})  # a 2-cycle
@example({1: 2, 2: 3, 3: 1, 4: 1, 5: 4, 6: 2, 7: 40})  # a 3-cycle with in-trees, a link out
@example({1: 2, 2: 3, 3: 40, 4: 3, 5: None})  # chains that leave the keys
@example({1: 2, 2: 1, 3: 4, 4: 5, 5: 3, 6: 5, 7: 6})  # two cycles
def test_descendant_peel_matches_dfs(pred):
    peeled = _descendant_counts(pred)
    assert list(peeled.items()) == list(reference.descendant_counts(pred, list(pred)).items())
