"""Ordering-count scores: exact tree values, rerooting, and the BFS heuristic."""

import math

import numpy as np
import pytest

from conftest import full_path_snapshot, graph_from_edges, random_tree_adjacency, snapshot_of
from reference_scorer import log_score_at_root
from rqsim.centrality import (
    brute_force_rumor_centrality,
    general_graph_scores,
    likelihood_table,
    log_rumor_centralities,
    pick_best,
    subtree_sizes,
)
from rqsim.diffusion import simulate_si
from rqsim.errors import InvalidInputError, InvalidParameterError
from rqsim.graphs import make_regular_tree

PATH3 = {0: [1], 1: [0, 2], 2: [1]}
STAR4 = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}


class TestBruteForceOracle:
    def test_path_rooted_at_middle(self):
        assert brute_force_rumor_centrality(PATH3, 1) == 2

    def test_path_rooted_at_leaf_is_forced(self):
        for n in (2, 5, 8):
            adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)}
            assert brute_force_rumor_centrality(adj, 0) == 1

    def test_star_center(self):
        assert brute_force_rumor_centrality(STAR4, 0) == 6
        assert brute_force_rumor_centrality(STAR4, 1) == 2

    def test_refuses_large_trees(self, rng):
        adj = random_tree_adjacency(11, rng)
        with pytest.raises(InvalidParameterError):
            brute_force_rumor_centrality(adj, 0)


class TestSubtreeSizes:
    def test_sizes_sum_and_root(self):
        sizes = subtree_sizes(STAR4, 0)
        assert sizes[0] == 4
        assert sizes[1] == sizes[2] == sizes[3] == 1

    def test_recursive_consistency(self, rng):
        adj = random_tree_adjacency(40, rng)
        sizes = subtree_sizes(adj, 0)
        assert sizes[0] == 40
        # every node: size = 1 + sizes of its children (BFS away from root)
        parent = {0: -1}
        order = [0]
        for u in order:
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    order.append(v)
        for v in order:
            kids = [w for w in adj[v] if parent.get(w) == v]
            assert sizes[v] == 1 + sum(sizes[w] for w in kids)


class TestLogCentralities:
    def test_path_of_three(self):
        table = log_rumor_centralities(PATH3)
        assert math.exp(table.log_r[1]) == pytest.approx(2.0)
        assert math.exp(table.log_r[0]) == pytest.approx(1.0)
        assert math.exp(table.log_r[2]) == pytest.approx(1.0)
        assert table.center == 1

    def test_star(self):
        table = log_rumor_centralities(STAR4)
        assert math.exp(table.log_r[0]) == pytest.approx(6.0)
        for leaf in (1, 2, 3):
            assert math.exp(table.log_r[leaf]) == pytest.approx(2.0)

    def test_single_node(self):
        table = log_rumor_centralities({5: []})
        assert table.log_r[5] == pytest.approx(0.0)
        assert table.center == 5

    def test_matches_brute_force_on_random_small_trees(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            adj = random_tree_adjacency(n, rng)
            table = log_rumor_centralities(adj)
            for v in adj:
                expect = brute_force_rumor_centrality(adj, v)
                assert math.exp(table.log_r[v]) == pytest.approx(expect, rel=1e-9)

    def test_rerooting_matches_direct_evaluation(self, rng):
        for n in (2, 17, 60, 200):
            adj = random_tree_adjacency(n, rng)
            table = log_rumor_centralities(adj)
            for v in adj:
                direct = log_score_at_root(adj, v)
                assert table.log_r[v] == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_argmax_invariant_under_log_shift(self, rng):
        adj = random_tree_adjacency(50, rng)
        table = log_rumor_centralities(adj)
        shifted = {v: s + 123.456 for v, s in table.log_r.items()}
        assert pick_best(shifted, shifted) == table.center

    def test_tie_break_lowest_id(self):
        # both ends of a 2-path have one ordering each
        table = log_rumor_centralities({0: [1], 1: [0]})
        assert table.center == 0
        # Tables keyed in infection order, not by id, with a tie at the
        # top: the table as its own pool, its key list and a set pick alike.
        path = likelihood_table(simulate_si(graph_from_edges(2, [(0, 1)]), 1, 2, np.random.default_rng(0)))
        assert list(path) == [1, 0]
        for scores, want in ((path, 0), ({5: 1.0, 9: 2.0, 3: 2.0, 7: 0.5}, 3)):
            assert pick_best(scores, scores) == pick_best(scores, list(scores)) == pick_best(scores, set(scores)) == want

    def test_rejects_non_tree_snapshot(self, rng):
        tri = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        snap = snapshot_of(tri, 0, [0, 1, 2], {1: 0, 2: 1})
        with pytest.raises(InvalidInputError):
            log_rumor_centralities(snap)

    def test_rejects_disconnected(self):
        with pytest.raises(InvalidInputError):
            log_rumor_centralities({0: [1], 1: [0], 2: []})

    @pytest.mark.parametrize("adj", [{0: [1]}, {0: [1], 1: []}, {0: [1], 1: [0, 1]}, {0: [1, 1], 1: [0, 0]},
                                     {0: [1, 2], 1: [0, 2], 2: [0, 1]}],
                             ids=["not-a-key", "asymmetric", "self-loop", "repeat", "cycle"])
    @pytest.mark.parametrize("score", [log_rumor_centralities, lambda adj: subtree_sizes(adj, 0),
                                       lambda adj: brute_force_rumor_centrality(adj, 0)],
                             ids=["log_rumor_centralities", "subtree_sizes", "brute_force"])
    def test_rejects_malformed_mappings(self, adj, score):
        with pytest.raises(InvalidInputError):
            score(adj)

    def test_rejects_a_root_outside_the_mapping(self):
        with pytest.raises(InvalidInputError):
            subtree_sizes(PATH3, 7)


class TestGeneralGraphScores:
    def test_tree_snapshot_argmax_matches_exact(self, rng):
        # diffusion snapshots on regular trees: the heuristic's order
        # likelihood is root-independent, so the argmax must coincide
        for trial in range(50):
            d = int(rng.integers(3, 6))
            n = int(rng.integers(2, 51))
            t = make_regular_tree(d)
            snap = simulate_si(t, 0, n, rng)
            exact = log_rumor_centralities(snap)
            heur = general_graph_scores(snap)
            assert pick_best(heur, heur) == exact.center

    def test_triangle_symmetry(self, rng):
        tri = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        snap = snapshot_of(tri, 0, [0, 1, 2], {1: 0, 2: 0})
        scores = general_graph_scores(snap)
        assert scores[0] == pytest.approx(scores[1])
        assert scores[1] == pytest.approx(scores[2])

    def test_two_nodes_score_equally(self):
        g = graph_from_edges(2, [(0, 1)])
        snap = snapshot_of(g, 0, [0, 1], {1: 0})
        scores = general_graph_scores(snap)
        assert scores[0] == pytest.approx(scores[1])

    def test_subset_evaluation(self, rng):
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 20, rng)
        full = general_graph_scores(snap)
        part = general_graph_scores(snap, nodes=[snap.infected[0], snap.infected[5]])
        for v, s in part.items():
            assert s == pytest.approx(full[v])

    def test_rejects_uninfected_node(self, rng):
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 5, rng)
        outside = max(snap.infected) + 10_000
        with pytest.raises(InvalidInputError):
            general_graph_scores(snap, nodes=[outside])
        with pytest.raises(InvalidInputError):
            likelihood_table(snap, nodes=[outside])

    @pytest.mark.parametrize("node", [True, False, 0.0, 1.0, np.int64(1)], ids=repr)
    @pytest.mark.parametrize("loopy", [False, True], ids=["tree", "loopy"])
    def test_rejects_ids_that_are_not_ints(self, loopy, node):
        """An id equal to an infected one but not an ``int`` is refused on
        the tree path and on the loopy path, alone or beside int ids."""
        if loopy:
            g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
            snap = snapshot_of(g, 0, [0, 1, 3, 2], {1: 0, 3: 0, 2: 1})
        else:
            snap = full_path_snapshot(4)
        assert snap.is_tree != loopy and {0, 1} <= set(snap.infected)
        for nodes in ([node], [1, node]):
            with pytest.raises(InvalidInputError, match="is not an int node id"):
                likelihood_table(snap, nodes=nodes)
        assert list(likelihood_table(snap, nodes=[1, 0, 1])) == [0, 1]


class TestLikelihoodTable:
    def test_dispatches_to_exact_on_trees(self):
        snap = full_path_snapshot(5)
        table = likelihood_table(snap)
        exact = log_rumor_centralities(snap)
        assert table == exact.log_r

    def test_dispatches_to_heuristic_on_loops(self, rng):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        snap = snapshot_of(g, 0, [0, 1, 3, 2], {1: 0, 3: 0, 2: 1})
        assert not snap.is_tree
        table = likelihood_table(snap)
        assert set(table) == set(snap.infected)
