"""Batch and adaptive majority-voting estimators."""

import numpy as np
import pytest

from conftest import full_path_snapshot, snapshot_of, star_graph
from reference_scorer import local_adjacency
from rqsim.diffusion import Snapshot, simulate_si
from rqsim.errors import InvalidInputError, InvalidParameterError
from rqsim.estimators import (
    ADConfig,
    NAConfig,
    choose_r_star,
    run_mvad,
    run_mvna,
    select_candidates_na,
)
from rqsim.graphs import make_regular_tree
from rqsim.respondent import TruthModel


def tree_snapshot(n: int, seed: int, d: int = 3):
    rng = np.random.default_rng(seed)
    return simulate_si(make_regular_tree(d), 0, n, rng), rng


class TestConfigs:
    def test_repetitions_must_fit_budget(self):
        NAConfig(budget=10, repetitions=10)
        with pytest.raises(InvalidParameterError):
            NAConfig(budget=10, repetitions=11)
        with pytest.raises(InvalidParameterError):
            ADConfig(budget=10, repetitions=0)
        with pytest.raises(InvalidParameterError):
            NAConfig(budget=10, repetitions=2, candidate_order="sideways")

    @pytest.mark.parametrize("make", [NAConfig, ADConfig])
    @pytest.mark.parametrize("budget, repetitions", [(10.5, 2), (10, 2.0), (True, True), (10, True)])
    def test_counts_must_be_integers(self, make, budget, repetitions):
        # A fractional budget would fail inside run_mvna's slicing, or come
        # back from run_mvad as a float budget_used.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make(budget, repetitions)

    def test_numpy_integer_counts_accepted(self):
        assert NAConfig(np.int64(10), np.int32(2)).budget == 10


class TestCandidateSelection:
    @pytest.mark.parametrize("size", [5.0, True, 0])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(InvalidParameterError):
            select_candidates_na(tree_snapshot(30, 0), size)

    def test_size_one_is_center_in_both_modes(self):
        snap = full_path_snapshot(7)
        assert select_candidates_na(snap, 1, "hop") == [3]
        assert select_candidates_na(snap, 1, "centrality") == [3]

    def test_hop_ring_on_path(self):
        snap = full_path_snapshot(5)
        assert select_candidates_na(snap, 3, "hop") == [2, 1, 3]

    def test_full_size_is_permutation(self):
        snap, _ = tree_snapshot(40, seed=3)
        chosen = select_candidates_na(snap, 40, "hop")
        assert sorted(chosen) == sorted(snap.infected)
        chosen = select_candidates_na(snap, 40, "centrality")
        assert sorted(chosen) == sorted(snap.infected)

    def test_oversize_clamps_with_warning(self, caplog):
        snap = full_path_snapshot(5)
        with caplog.at_level("WARNING"):
            chosen = select_candidates_na(snap, 12, "hop")
        assert len(chosen) == 5
        assert any("clamped" in m for m in caplog.messages)

    def test_centrality_mode_is_descending(self):
        snap, _ = tree_snapshot(25, seed=9)
        from rqsim.centrality import likelihood_table

        table = likelihood_table(snap)
        chosen = select_candidates_na(snap, 25, "centrality")
        scores = [table[v] for v in chosen]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_hop_levels_sorted_within_level(self):
        snap, _ = tree_snapshot(30, seed=4)
        chosen = select_candidates_na(snap, 30, "hop")
        ids = snap.infected
        adj = {ids[i]: [ids[j] for j in nbrs] for i, nbrs in enumerate(local_adjacency(snap))}
        center = chosen[0]
        # BFS levels from the center
        level = {center: 0}
        frontier = [center]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in level:
                        level[w] = level[u] + 1
                        nxt.append(w)
            frontier = nxt
        lv = [level[v] for v in chosen]
        assert lv == sorted(lv)
        for a, b in zip(chosen, chosen[1:]):
            if level[a] == level[b]:
                assert a < b


class TestMVNA:
    def test_perfect_answers_find_source(self):
        snap, rng = tree_snapshot(60, seed=5)
        model = TruthModel(p=1.0, q=1.0)
        out = run_mvna(snap, NAConfig(budget=60, repetitions=1), model, rng)
        assert out.estimate == snap.source
        assert out.s_i == frozenset({snap.source})

    def test_budget_accounting_discards_remainder(self):
        snap, rng = tree_snapshot(50, seed=6)
        model = TruthModel(p=0.8, q=0.8)
        out = run_mvna(snap, NAConfig(budget=47, repetitions=3), model, rng)
        assert len(out.candidates) == 47 // 3
        assert out.budget_used == 3 * (47 // 3)
        assert out.budget_used <= 47

    def test_every_candidate_has_one_predecessor_edge(self):
        snap, rng = tree_snapshot(80, seed=7)
        model = TruthModel(p=0.7, q=0.6)
        out = run_mvna(snap, NAConfig(budget=120, repetitions=2), model, rng)
        assert set(out.predecessor_edges) == set(out.candidates)
        assert set(out.e_counts) == set(out.candidates)
        graph = snap.graph
        for v, w in out.predecessor_edges.items():
            assert w in graph.neighbors(v)

    def test_descendant_counts_terminate_on_cycles(self, rng):
        # two nodes designating each other must not hang the traversal
        g = star_graph(2)  # path 1-0-2
        snap = snapshot_of(g, 0, [0, 1, 2], {1: 0, 2: 0})
        model = TruthModel(p=0.51, q=0.51)
        out = run_mvna(snap, NAConfig(budget=30, repetitions=10), model, rng)
        assert out.estimate in snap.index

    def test_estimate_always_infected(self):
        for seed in range(8):
            snap, rng = tree_snapshot(30, seed=seed)
            model = TruthModel(p=0.6, q=0.5)
            out = run_mvna(snap, NAConfig(budget=40, repetitions=4), model, rng)
            assert out.estimate in snap.index

    def test_perfect_id_miss_falls_back_to_s_d(self):
        # source outside the candidate set and p = 1: S_I stays empty
        snap = full_path_snapshot(9)
        rng = np.random.default_rng(2)
        model = TruthModel(p=1.0, q=0.9)
        out = run_mvna(snap, NAConfig(budget=3, repetitions=1), model, rng)
        assert snap.source not in out.candidates
        assert out.s_i == frozenset()
        assert out.estimate in set(out.candidates)

    def test_seeded_determinism(self):
        snap, _ = tree_snapshot(70, seed=8)
        model = TruthModel(p=0.75, q=0.7)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(31337)
            outs.append(run_mvna(snap, NAConfig(budget=90, repetitions=3), model, rng))
        assert outs[0] == outs[1]

    def test_uninformative_direction_leaves_s_d_signal_free(self):
        # at q -> 1/d the descendant filter picks essentially random
        # candidates; at informative q it locks onto the source
        rng = np.random.default_rng(99)
        rates = {}
        for q in (1 / 3 + 1e-9, 0.9):
            hits = 0
            trials = 60
            for _ in range(trials):
                t = make_regular_tree(3)
                snap = simulate_si(t, 0, 200, rng)
                out = run_mvna(snap, NAConfig(budget=150, repetitions=3), TruthModel(p=0.8, q=q), rng)
                hits += int(snap.source in out.s_d)
            rates[q] = hits / trials
        assert rates[1 / 3 + 1e-9] < 0.25
        assert rates[0.9] > 0.6

    def test_centrality_order_mode_runs(self):
        snap, rng = tree_snapshot(40, seed=10)
        model = TruthModel(p=0.9, q=0.9)
        out = run_mvna(
            snap, NAConfig(budget=40, repetitions=1, candidate_order="centrality"), model, rng
        )
        assert out.estimate in snap.index


class TestMVAD:
    def test_perfect_answers_walk_to_source(self):
        # q = 1 steers every step along the true parent chain
        for seed in range(6):
            snap, rng = tree_snapshot(60, seed=seed)
            model = TruthModel(p=1.0, q=1.0)
            out = run_mvad(snap, ADConfig(budget=240, repetitions=2), model, rng)
            assert out.estimate == snap.source
            from rqsim.centrality import likelihood_table, pick_best

            table = likelihood_table(snap)
            center = pick_best(table, table)
            dist = _tree_distance(snap, center, snap.source)
            assert out.budget_used == 2 * (dist + 1)

    def test_budget_never_exceeded(self):
        snap, rng = tree_snapshot(50, seed=12)
        model = TruthModel(p=0.7, q=0.7)
        out = run_mvad(snap, ADConfig(budget=71, repetitions=7), model, rng)
        assert out.budget_used <= 71
        assert out.budget_used == 7 * (71 // 7)

    def test_eta_counts_visits_and_allows_revisits(self):
        snap, rng = tree_snapshot(30, seed=13)
        model = TruthModel(p=0.8, q=0.8)
        out = run_mvad(snap, ADConfig(budget=300, repetitions=1), model, rng)
        assert sum(out.eta.values()) == 300
        assert max(out.eta.values()) > 1  # revisits happen on a 30-node set
        assert all(v in snap.index for v in out.eta)

    def test_all_yes_visit_moves_to_uniform_infected_neighbor(self):
        # star with the source at the center: with p near 1 the center
        # answers yes every round, so each hop is a uniform leaf pick
        g = star_graph(4)
        snap = snapshot_of(g, 0, [0, 1, 2, 3, 4], {i: 0 for i in (1, 2, 3, 4)})
        model = TruthModel(p=0.999, q=0.9)
        first_hops = {}
        for seed in range(400):
            rng = np.random.default_rng(seed)
            out = run_mvad(snap, ADConfig(budget=2, repetitions=1), model, rng)
            # eta records the two visited nodes: center then one leaf
            visited = [v for v in out.eta if v != 0]
            if len(visited) == 1:
                first_hops[visited[0]] = first_hops.get(visited[0], 0) + 1
        total = sum(first_hops.values())
        assert set(first_hops) <= {1, 2, 3, 4}
        for leaf in (1, 2, 3, 4):
            assert abs(first_hops.get(leaf, 0) / total - 0.25) < 0.08

    def test_walk_stays_on_infected_nodes(self):
        for seed in range(5):
            snap, rng = tree_snapshot(25, seed=seed)
            model = TruthModel(p=0.6, q=0.4)
            out = run_mvad(snap, ADConfig(budget=125, repetitions=5), model, rng)
            assert set(out.eta) <= snap.index.keys()
            assert out.estimate in snap.index

    def test_seeded_determinism(self):
        snap, _ = tree_snapshot(45, seed=14)
        model = TruthModel(p=0.7, q=0.6)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(888)
            outs.append(run_mvad(snap, ADConfig(budget=60, repetitions=2), model, rng))
        assert outs[0] == outs[1]

    def test_perfect_id_exhausted_budget_falls_back_to_center(self):
        # source far from the start and budget too small to reach it
        snap = full_path_snapshot(15)
        rng = np.random.default_rng(3)
        model = TruthModel(p=1.0, q=1.0)
        out = run_mvad(snap, ADConfig(budget=2, repetitions=1), model, rng)
        assert out.estimate != snap.source  # cannot have reached node 0
        assert out.estimate in snap.index


def _tree_distance(snap, a: int, b: int) -> int:
    hops = snap.hops_from_source
    # walk both up to the source, counting
    seen = {}
    x, dist = a, 0
    while True:
        seen[x] = dist
        if x == snap.source:
            break
        x = snap.parent[x]
        dist += 1
    x, dist = b, 0
    while x not in seen:
        x = snap.parent[x]
        dist += 1
    return dist + seen[x]


class TestChooseRStar:
    def test_reference_values(self):
        assert choose_r_star("na", "sufficient", 200, 3, 2 / 3, 2 / 3) == 3
        assert choose_r_star("ad", "sufficient", 200, 3, 2 / 3, 2 / 3) == 4

    def test_perfect_id_gives_one_for_na(self):
        for K in (3, 50, 1000, 10**6):
            assert choose_r_star("na", "sufficient", K, 3, 1.0, 0.7) == 1

    def test_clamped_to_budget(self):
        # low truthfulness inflates r beyond a tiny budget
        r = choose_r_star("ad", "necessary", 3, 3, 0.51, 0.34)
        assert 1 <= r <= 3

    def test_never_below_one(self):
        for scheme in ("na", "ad"):
            for kind in ("necessary", "sufficient"):
                assert choose_r_star(scheme, kind, 10, 3, 1.0, 1.0) == 1

    def test_small_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            choose_r_star("na", "sufficient", 2, 3, 0.8, 0.8)
        with pytest.raises(InvalidParameterError):
            choose_r_star("na", "sufficient", 100, 2, 0.8, 0.8)
        with pytest.raises(InvalidParameterError):
            choose_r_star("na", "someday", 100, 3, 0.8, 0.8)

    def test_grows_with_untruthfulness(self):
        low = choose_r_star("na", "sufficient", 10**6, 3, 0.95, 0.95)
        high = choose_r_star("na", "sufficient", 10**6, 3, 0.55, 0.4)
        assert high > low


@pytest.mark.parametrize("estimate", [
    lambda snap, rng: run_mvna(snap, NAConfig(budget=10, repetitions=2), TruthModel(0.8, 0.8), rng),
    lambda snap, rng: run_mvad(snap, ADConfig(budget=10, repetitions=2), TruthModel(0.8, 0.8), rng),
], ids=["na", "ad"])
def test_graphless_snapshot_is_invalid_input(estimate, rng):
    """A snapshot restored from JSON has no graph to query."""
    snap = Snapshot.from_json(simulate_si(make_regular_tree(3), 0, 20, rng).to_json())
    with pytest.raises(InvalidInputError, match="graph"):
        estimate(snap, rng)
