"""Spread simulation and the hop-distance law of the k-th infection."""

import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, path_graph
from rqsim import diffusion
from rqsim.centrality import likelihood_table
from rqsim.diffusion import Snapshot, breadth_first, distance_distribution, simulate_si
from rqsim.errors import InfeasibleTargetError, InvalidInputError, InvalidParameterError
from rqsim.graphs import make_erdos_renyi, make_regular_tree


def assert_valid_snapshot(snap: Snapshot):
    assert snap.infected[0] == snap.source
    seen = {snap.source}
    for v in snap.infected[1:]:
        p = snap.parent[v]
        assert p in seen, "parent must be infected earlier"
        assert p in snap.graph.neighbors(v), "parent must be adjacent"
        seen.add(v)
    assert len(seen) == len(snap.infected)


class TestSimulateSI:
    def test_path_from_endpoint_is_forced(self, rng):
        g = path_graph(4)
        snap = simulate_si(g, 0, 3, rng)
        assert snap.infected == (0, 1, 2)
        assert snap.parent == {1: 0, 2: 1}

    def test_second_infection_uniform_over_children(self):
        rng = np.random.default_rng(3)
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(10_000):
            t = make_regular_tree(3)
            snap = simulate_si(t, 0, 2, rng)
            counts[snap.infected[1]] += 1
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 3) < 0.02

    def test_tree_validity_on_loopy_graph(self, rng):
        g = make_erdos_renyi(200, 4.0, rng)
        snap = simulate_si(g, 0, 100, rng)
        assert_valid_snapshot(snap)
        # parent edges form a spanning tree of the infected set
        assert len(snap.parent) == snap.n - 1

    def test_infeasible_target(self, rng):
        g = path_graph(3)
        with pytest.raises(InfeasibleTargetError):
            simulate_si(g, 0, 4, rng)

    def test_deterministic_given_seed(self):
        g1 = make_regular_tree(3)
        g2 = make_regular_tree(3)
        s1 = simulate_si(g1, 0, 50, np.random.default_rng(77))
        s2 = simulate_si(g2, 0, 50, np.random.default_rng(77))
        assert s1.infected == s2.infected
        assert s1.parent == s2.parent

    def test_a_fresh_tree_spread_owns_its_index(self):
        tree = make_regular_tree(3)
        snap = simulate_si(tree, 0, 50, np.random.default_rng(4))
        expected = dict(zip(snap.infected, range(50)))
        assert list(snap.index.items()) == list(expected.items())
        tree.neighbors(tree.neighbors(snap.infected[-1])[-1])  # grows the tree past the spread
        assert list(snap.index.items()) == list(expected.items())

    def test_rejects_bad_target(self, rng):
        with pytest.raises(InvalidParameterError):
            simulate_si(path_graph(3), 0, 0, rng)

    @pytest.mark.parametrize("graph", ["tree", "path"])
    @pytest.mark.parametrize("n_target", [5.5, 3.0, True])
    def test_rejects_a_target_that_is_not_an_integer(self, graph, n_target, rng):
        # A float target would fail in numpy, and True would run as 1.
        graph = make_regular_tree(3) if graph == "tree" else path_graph(8)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            simulate_si(graph, 0, n_target, rng)

    def test_rejects_negative_source_on_regular_tree(self):
        with pytest.raises(InvalidInputError):
            simulate_si(make_regular_tree(3), -1, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("source", [-1, 50, True, 2.0, np.int64(3), "3", None])
    def test_rejects_a_finite_graph_source_that_is_not_a_node_id(self, source):
        # -1 once spread from node 49's neighbours under a snapshot labelled -1.
        g = make_erdos_renyi(50, 4.0, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError):
            simulate_si(g, source, 5, rng)
        assert rng.bit_generator.state == state
        assert simulate_si(g, g.n - 1, 5, rng).source == g.n - 1


class TestSnapshotStructure:
    def test_hops_from_source(self, rng):
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 30, rng)
        hops = snap.hops_from_source
        assert hops[snap.source] == 0
        for v in snap.infected[1:]:
            assert hops[v] == hops[snap.parent[v]] + 1

    def test_is_tree_flags(self, rng):
        t = make_regular_tree(3)
        snap = simulate_si(t, 0, 25, rng)
        assert snap.is_tree
        # a triangle is not a tree once fully infected
        tri = make_erdos_renyi(3, 2.0, rng)
        if tri.num_edges == 3:
            full = simulate_si(tri, 0, 3, rng)
            assert not full.is_tree

    def test_json_round_trip(self, rng):
        t = make_regular_tree(4)
        snap = simulate_si(t, 0, 20, rng)
        text = snap.to_json()
        back = Snapshot.from_json(text)
        assert back.source == snap.source
        assert back.infected == snap.infected
        assert back.parent == snap.parent

    def test_from_json_validates(self):
        for doc in (
            {"source": 0, "infected_order": [0, 2], "parent_pairs": [[2, 1]]},  # parent not infected earlier
            {"source": 0, "infected_order": [1, 0], "parent_pairs": [[1, 0]]},  # order does not start at the source
            {"source": 0, "infected_order": [0, 1, 1], "parent_pairs": [[1, 0]]},  # duplicate
            {"source": 0, "infected_order": [0, 1]},  # no parent entries
            {"source": "a", "infected_order": [0, 1], "parent_pairs": [[1, 0]]},  # non-integer id
            [1, 2],  # not an object
            {"source": 0, "infected_order": [0, 1], "parent_pairs": [[1]]},  # entry is not a pair
            {"source": 0.7, "infected_order": [0.2, 1.9, 2.5], "parent_pairs": [[1.9, 0.2], [2.5, 1]]},  # floats
            {"source": True, "infected_order": [1, 0], "parent_pairs": [[0, 1]]},  # a boolean id
            {"source": "0", "infected_order": ["0", "1"], "parent_pairs": [["1", "0"]]},  # string ids
        ):
            with pytest.raises(InvalidInputError):
                Snapshot.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["notes\n", "", '{"source": 0,', "[1, 2"])
    def test_from_json_rejects_text_that_is_not_json(self, text):
        for given in (text, io.StringIO(text)):
            with pytest.raises(InvalidInputError, match="malformed snapshot document"):
                Snapshot.from_json(given)

    def test_breadth_first_over_csr_rows(self):
        # Rows 0: [1, 2], 1: [0], 2: [0], and then a lone node 3.
        ptr, nbr = np.array([0, 2, 3, 4, 4]), np.array([1, 2, 0, 0])
        assert breadth_first((ptr[:4], nbr), 1) == ([1, 0, 2], [-1, 0, 1])
        with pytest.raises(InvalidInputError, match="not connected"):
            breadth_first((ptr, nbr), 1)

    @pytest.mark.parametrize("pairs", [
        [[1, 0], [5, 1]],  # an entry for a node outside the order
        [[1, 0], [0, 1]],  # an entry for the source
        [[1, 0], [1, 0]],  # two entries for one node
    ])
    def test_from_json_needs_one_parent_entry_per_non_source_node(self, pairs):
        doc = {"source": 0, "infected_order": [0, 1], "parent_pairs": pairs}
        with pytest.raises(InvalidInputError):
            Snapshot.from_json(json.dumps(doc))

    @pytest.mark.parametrize("tree", [False, True], ids=["loopy", "tree"])
    @pytest.mark.parametrize("centre", [4, -1, 99])
    def test_hop_order_rejects_an_uninfected_centre(self, tree, centre):
        # A triangle 0-1-2 with a tail 2-3-4, or the tail's path alone.
        edges = [(1, 2), (2, 3), (3, 4)] + ([] if tree else [(0, 2)])
        snap = Snapshot.from_parents(graph_from_edges(5, [(0, 1), *edges]), 0, [0, 1, 2], {1: 0, 2: 1})
        assert snap.is_tree == tree
        for call in (snap.hop_order, snap.position_of, lambda v: likelihood_table(snap, [v])):
            with pytest.raises(InvalidInputError, match="not infected"):
                call(centre)
        assert snap.hop_order(2) == ([2, 1, 0] if tree else [2, 0, 1])


def exact_distance_probability(d: int, k: int, l: int) -> Fraction:
    """Independent exact oracle: elementary symmetric sums by enumeration."""
    if not 1 <= l <= k - 1:
        return Fraction(0)
    a, b = k - 2, k - l - 1
    xs = [1 + i * (d - 2) for i in range(1, a + 1)]
    sym = sum((math.prod(c) for c in combinations(xs, b)), 0) if b else 1
    den = math.prod(2 + j * (d - 2) for j in range(1, k))
    return Fraction(sym * d * (d - 1) ** (l - 1), den)


class TestDistanceDistribution:
    def test_second_infection_always_adjacent(self):
        assert distance_distribution(3, 2, 1) == 1.0

    def test_third_infection_hand_combinatorics(self):
        # 4 boundary edges after two infections; 2 touch the source
        assert distance_distribution(3, 3, 1) == pytest.approx(0.5)
        assert distance_distribution(3, 3, 2) == pytest.approx(0.5)

    def test_out_of_range_is_zero(self):
        assert distance_distribution(3, 4, 0) == 0.0
        assert distance_distribution(3, 4, 4) == 0.0

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("k", [2, 5, 9, 12])
    def test_sums_to_one(self, d, k):
        total = sum(distance_distribution(d, k, l) for l in range(1, k))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,k", [(3, 4), (4, 5), (6, 7)])
    def test_matches_enumeration_oracle(self, d, k):
        for l in range(1, k):
            expect = exact_distance_probability(d, k, l)
            assert distance_distribution(d, k, l) == pytest.approx(float(expect), rel=1e-12)

    def test_a_full_law_builds_its_tables_once(self):
        # Building them for every l made `rqsim oracle distance` cubic in k.
        tables = diffusion._distance_tables
        tables.cache_clear()
        law = [distance_distribution(5, 60, l) for l in range(1, 60)]
        assert tables.cache_info().misses == 1
        assert tables.cache_info().maxsize == 1
        assert law[-3] == float(exact_distance_probability(5, 60, 57))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            distance_distribution(2, 3, 1)
        with pytest.raises(InvalidParameterError):
            distance_distribution(3, 1, 1)

    @pytest.mark.parametrize("args", [(3.5, 5, 2), (3.0, 5, 2), (True, 5, 2), (3, 5.0, 2), (3, 5, 1.5),
                                      (3, 5, 2.0), (3, 5, True), (3, 5, 9.5), (3, 5, None)], ids=repr)
    def test_counts_are_integers(self, args):
        """A fractional or float d, k or l, or a bool, is refused rather than
        given a probability or a bare TypeError, inside l's range or not."""
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            distance_distribution(*args)

    @pytest.mark.parametrize("l", [0, -3, 5, 10**6])
    def test_integer_l_out_of_range_is_zero(self, l):
        assert distance_distribution(3, 5, l) == 0.0
        assert distance_distribution(np.int64(3), np.int64(5), np.int64(l)) == 0.0

    def test_empirical_agreement_small(self):
        # 3-sigma agreement at reduced scale; the full 1e5-trial sweep
        # lives in the acceptance suite.
        rng = np.random.default_rng(12)
        trials = 4000
        counts: dict[tuple[int, int], int] = {}
        for _ in range(trials):
            t = make_regular_tree(3)
            snap = simulate_si(t, 0, 5, rng)
            for k in (3, 5):
                l = snap.hops_from_source[snap.infected[k - 1]]
                counts[(k, l)] = counts.get((k, l), 0) + 1
        for k in (3, 5):
            for l in range(1, k):
                p = distance_distribution(3, k, l)
                phat = counts.get((k, l), 0) / trials
                se = math.sqrt(p * (1 - p) / trials)
                assert abs(phat - p) <= 3.5 * se + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=3, max_value=7),
    k=st.integers(min_value=2, max_value=11),
)
def test_distance_law_is_a_distribution(d, k):
    probs = [distance_distribution(d, k, l) for l in range(1, k)]
    assert all(p >= 0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
