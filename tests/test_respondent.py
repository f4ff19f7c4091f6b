"""Identity/direction answer sampling and per-respondent tallies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_path_snapshot, snapshot_of, star_graph
from rqsim.diffusion import Snapshot, simulate_si
from rqsim.errors import InvalidInputError, InvalidParameterError
from rqsim.graphs import Graph, make_regular_tree
from rqsim.respondent import AnswerRecord, TruthModel, answer_dir, query_rounds


class TestTruthModel:
    def test_bounds(self):
        TruthModel(p=0.51, q=0.4)
        TruthModel(p=1.0, q=1.0)
        with pytest.raises(InvalidParameterError):
            TruthModel(p=0.5, q=0.5)
        with pytest.raises(InvalidParameterError):
            TruthModel(p=0.9, q=0.0)
        with pytest.raises(InvalidParameterError):
            TruthModel(p=1.1, q=0.5)

    def test_degree_validation(self):
        m = TruthModel(p=0.8, q=0.25)
        m.validate_for_degree(5)
        with pytest.raises(InvalidParameterError):
            m.validate_for_degree(4)  # needs q > 1/4

    def test_degree_one_accepts_any_q(self):
        # A degree-1 respondent names its parent without drawing against q.
        for q in (0.01, 0.5, 0.9, 1.0):
            TruthModel(p=0.8, q=q).validate_for_degree(1)
        with pytest.raises(InvalidParameterError):
            TruthModel(p=0.8, q=0.5).validate_for_degree(2)  # needs q > 1/2


class TestAnswerId:
    def test_perfect_truth(self, rng):
        snap = full_path_snapshot(4)
        model = TruthModel(p=1.0, q=0.8)
        assert query_rounds(0, snap, 50, model, rng).yes_count == 50
        assert query_rounds(3, snap, 50, model, rng).yes_count == 0

    def test_lie_frequency(self):
        rng = np.random.default_rng(8)
        n = 100_000
        # node 1 is not the source, so each "yes" is a lie
        lies = query_rounds(1, full_path_snapshot(3), n, TruthModel(p=0.7, q=0.8), rng).yes_count
        assert abs((n - lies) / n - 0.7) < 0.01


class TestAnswerDir:
    def test_perfect_truth_names_parent(self, rng):
        snap = full_path_snapshot(4)
        for v in (1, 2, 3):
            for _ in range(20):
                assert answer_dir(v, snap, 1.0, rng) == snap.parent[v]

    def test_biased_frequencies_on_degree_3(self):
        rng = np.random.default_rng(21)
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 10, rng)
        v = snap.infected[3]
        counts: dict[int, int] = {}
        n = 100_000
        for _ in range(n):
            w = answer_dir(v, snap, 0.6, rng)
            counts[w] = counts.get(w, 0) + 1
        parent = snap.parent[v]
        assert abs(counts[parent] / n - 0.6) < 0.01
        for w in t.neighbors(v):
            if w != parent:
                assert abs(counts.get(w, 0) / n - 0.2) < 0.01

    def test_uninformative_point_is_uniform(self):
        rng = np.random.default_rng(4)
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 8, rng)
        v = snap.infected[2]
        counts: dict[int, int] = {}
        n = 60_000
        for _ in range(n):
            w = answer_dir(v, snap, 1 / 3, rng)
            counts[w] = counts.get(w, 0) + 1
        for w in t.neighbors(v):
            assert abs(counts.get(w, 0) / n - 1 / 3) < 0.012

    def test_source_answers_uniform_over_neighbors(self):
        rng = np.random.default_rng(5)
        g = star_graph(4)
        order = [0, 1, 2, 3, 4]
        snap = snapshot_of(g, 0, order, {i: 0 for i in (1, 2, 3, 4)})
        counts: dict[int, int] = {}
        n = 40_000
        for _ in range(n):
            w = answer_dir(0, snap, 0.9, rng)
            counts[w] = counts.get(w, 0) + 1
        for w in (1, 2, 3, 4):
            assert abs(counts[w] / n - 0.25) < 0.015

    def test_degree_one_respondent_names_parent(self, rng):
        snap = full_path_snapshot(3)
        # node 2 is the path end: parent is its only neighbor
        for _ in range(10):
            assert answer_dir(2, snap, 0.6, rng) == 1

    def test_rejects_uninfected(self, rng):
        g = star_graph(3)
        snap = snapshot_of(g, 0, [0, 1], {1: 0})
        with pytest.raises(InvalidInputError):
            answer_dir(2, snap, 0.9, rng)

    def test_rejects_isolated(self, rng):
        snap = snapshot_of(Graph([[]]), 0, [0], {})
        with pytest.raises(InvalidInputError):
            answer_dir(0, snap, 0.9, rng)


class TestQueryRounds:
    def test_truthful_non_source(self, rng):
        snap = full_path_snapshot(4)
        rec = query_rounds(2, snap, 5, TruthModel(p=1.0, q=1.0), rng)
        assert rec.yes_count == 0
        assert sum(rec.designations.values()) == 5
        assert rec.designations == {1: 5}

    def test_truthful_source(self, rng):
        snap = full_path_snapshot(4)
        rec = query_rounds(0, snap, 5, TruthModel(p=1.0, q=1.0), rng)
        assert rec.yes_count == 5
        assert rec.designations == {}

    def test_direction_volume_is_binomial(self):
        rng = np.random.default_rng(9)
        snap = full_path_snapshot(4)
        rec = query_rounds(2, snap, 1000, TruthModel(p=0.8, q=0.7), rng)
        dirs = sum(rec.designations.values())
        assert abs(dirs - 800) <= 40
        assert rec.yes_count + dirs == rec.rounds

    def test_rejects_zero_rounds(self, rng):
        snap = full_path_snapshot(3)
        with pytest.raises(InvalidParameterError):
            query_rounds(1, snap, 0, TruthModel(p=0.9, q=0.9), rng)

    def test_majority_bound_on_source(self):
        # empirical P(majority yes at the source) is at least the
        # closed-form lower bound, minus Monte Carlo noise
        rng = np.random.default_rng(10)
        snap = full_path_snapshot(3)
        trials = 4000
        for p, r in [(0.6, 3), (0.8, 5)]:
            model = TruthModel(p=p, q=0.8)
            hits = sum(
                query_rounds(0, snap, r, model, rng).yes_count / r >= 0.5 for _ in range(trials)
            )
            phat = hits / trials
            bound = p + (1 - p) * (1 - math.exp(-((p - 0.5) ** 2) * math.log(r)))
            se = math.sqrt(phat * (1 - phat) / trials)
            assert phat >= bound - 3 * se

    def test_id_answers_pass_lag1_independence(self):
        # chi-square on consecutive answer pairs, alpha = 0.01, df = 1
        rng = np.random.default_rng(14)
        snap = full_path_snapshot(3)
        model = TruthModel(p=0.7, q=0.8)
        stream = [query_rounds(1, snap, 1, model, rng).yes_count for _ in range(6000)]
        table = [[0, 0], [0, 0]]
        for a, b in zip(stream, stream[1:]):
            table[int(a)][int(b)] += 1
        total = sum(map(sum, table))
        row = [sum(table[i]) for i in range(2)]
        col = [table[0][j] + table[1][j] for j in range(2)]
        stat = 0.0
        for i in range(2):
            for j in range(2):
                expect = row[i] * col[j] / total
                stat += (table[i][j] - expect) ** 2 / expect
        assert stat < 6.635


@settings(max_examples=30, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.501, max_value=1.0),
    q=st.floats(min_value=0.34, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_conservation_property(r, p, q, seed):
    rng = np.random.default_rng(seed)
    snap = full_path_snapshot(5)
    for v in (0, 2, 4):
        rec = query_rounds(v, snap, r, TruthModel(p=p, q=q), rng)
        assert rec.yes_count + sum(rec.designations.values()) == rec.rounds
        assert 0 <= rec.yes_count <= r


def test_answer_record_fields():
    rec = AnswerRecord(respondent=7, rounds=4, yes_count=1, designations={2: 3})
    assert rec.yes_count / rec.rounds == 0.25
    assert rec.yes_count + sum(rec.designations.values()) == rec.rounds


@pytest.mark.parametrize("ask", [
    lambda snap, rng: query_rounds(snap.source, snap, 3, TruthModel(0.8, 0.8), rng),
    lambda snap, rng: answer_dir(snap.infected[1], snap, 0.8, rng),
], ids=["query_rounds", "answer_dir"])
def test_graphless_snapshot_is_invalid_input(ask, rng):
    """A snapshot restored from JSON has no graph to answer from."""
    snap = Snapshot.from_json(simulate_si(make_regular_tree(3), 0, 20, rng).to_json())
    with pytest.raises(InvalidInputError, match="graph"):
        ask(snap, rng)
