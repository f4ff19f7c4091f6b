"""Graph construction, generators, and edge-list parsing."""

import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsim import graphs
from rqsim.errors import InvalidInputError, InvalidParameterError, ParseError
from rqsim.graphs import (
    Graph,
    load_edge_list,
    make_erdos_renyi,
    make_galton_watson,
    make_regular_tree,
    make_scale_free,
)


def neighbour_lists(g: Graph) -> list[list[int]]:
    return [g.neighbors(v) for v in range(g.n)]


def assert_symmetric(g: Graph):
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v), f"edge {u}-{v} not symmetric"
            assert u != v


def assert_tree(g: Graph):
    assert g.num_edges == g.n - 1
    # connectivity: BFS reaches everything
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == g.n


@pytest.mark.parametrize("adjacency", [
    [[0]],  # self-loop
    [[1], [0, 2]],  # neighbour 2 out of range
    [[1, 1], [0, 0]],  # duplicate edge
    [[1], []],  # asymmetric: 0-1 missing from node 1
    [[2, 1], [0], [0]],  # unsorted
    [[1, 2, 1], [0], [0]],  # non-adjacent duplicate
    [[1.0], [0]],  # a float id
    [[True], [False]],  # bools, though True == 1 and False == 0
    [[np.int64(1)], [np.int64(0)]],  # numpy ints, as list(arr) gives
])
def test_graph_rejects_malformed_adjacency(adjacency):
    with pytest.raises(InvalidInputError):
        Graph(adjacency)


def test_graph_holds_csr_arrays_and_hands_out_int_lists():
    g = Graph([[1, 2], [0], [0]])
    assert g.indptr.tolist() == [0, 2, 3, 4] and g.indices.tolist() == [1, 2, 0, 0]
    assert neighbour_lists(g) == [[1, 2], [0], [0]]
    assert all(type(v) is int for nbrs in neighbour_lists(g) for v in nbrs)
    assert (g.n, g.num_edges, g.max_degree(), g.degree(0)) == (3, 2, 2, 2)
    assert Graph([]).n == 0 and Graph([[]]).max_degree() == 0


def test_dense_scale_free_graph_retains_its_arrays_only():
    # sf:4039:22 has 88,858 edges: 1.4 MB of int64 neighbour ids, where
    # adjacency lists of Python ints retained 5.7 MB.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        g = make_scale_free(4039, 22, rng)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges > 88_000
    assert retained <= 2 * 2**20


def test_scale_free_refuses_more_than_2_to_the_30_edges(monkeypatch):
    # Every pick's bound, the pool's length, stays at most 2**31.
    monkeypatch.setattr(graphs, "_edge_counts", lambda n, ratio: np.array([2**30]))
    with pytest.raises(InvalidParameterError, match="2\\*\\*30"):
        make_scale_free(3, 1.0, np.random.default_rng(0))


def test_long_shuffled_path_loads_as_one_component_quickly():
    # Labels that spread one hop per round would take about 10**5 rounds here.
    n = 10**5
    rng = np.random.default_rng(3)
    ids = rng.permutation(n).tolist()
    lines = [f"{u} {v}\n" for u, v in zip(ids, ids[1:])]
    rng.shuffle(lines)
    started = time.perf_counter()
    g = load_edge_list(io.StringIO("".join(lines)))
    assert time.perf_counter() - started < 5.0
    assert (g.n, g.num_edges, g.max_degree()) == (n, n - 1, 2)


class TestRegularTree:
    def test_root_has_d_children(self):
        t = make_regular_tree(3)
        nbrs = t.neighbors(0)
        assert len(nbrs) == 3
        assert len(set(nbrs)) == 3

    def test_every_expanded_node_has_degree_d(self):
        t = make_regular_tree(3)
        for v in list(t.neighbors(0)):
            assert len(t.neighbors(v)) == 3

    def test_bfs_two_levels_d4(self):
        t = make_regular_tree(4)
        level0 = {0}
        level1 = set(t.neighbors(0))
        level2 = set()
        for v in level1:
            level2.update(w for w in t.neighbors(v) if w != 0)
        assert len(level0 | level1 | level2) == 1 + 4 + 12

    def test_neighbor_sets_are_stable(self):
        t = make_regular_tree(5)
        first = t.neighbors(0)
        _ = t.neighbors(first[0])
        assert t.neighbors(0) == first

    def test_rejects_degree_below_3(self):
        with pytest.raises(InvalidParameterError):
            make_regular_tree(2)

    @pytest.mark.parametrize("d", [3.0, 3.5, True])
    def test_rejects_a_degree_that_is_not_an_integer(self, d):
        # A float degree would reach numpy in a spread on the tree, and fail there.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_regular_tree(d)

    @pytest.mark.parametrize("v", [-1, -5, 1])
    def test_rejects_unmaterialized_ids(self, v):
        with pytest.raises(InvalidInputError):
            make_regular_tree(3).neighbors(v)

    @pytest.mark.parametrize("v", [1.5, 2.0, 0.0, True, np.int64(2), "1"])
    def test_rejects_ids_that_are_not_int(self, v):
        # Equal to an expanded or materialized id, or not: an int is required.
        t = make_regular_tree(3)
        t.neighbors(0)
        with pytest.raises(InvalidInputError):
            t.neighbors(v)
        assert t.neighbors(0) == (1, 2, 3) and t.neighbors(2) == (0, 4, 5)


class TestGaltonWatson:
    def test_dmax_2_gives_path(self, rng):
        g = make_galton_watson(2, 30, rng)
        assert g.max_degree() <= 2
        assert_tree(g)

    def test_size_and_degree_bounds(self, rng):
        g = make_galton_watson(10, 500, rng)
        assert g.n >= 500
        assert g.max_degree() <= 10
        assert_tree(g)

    def test_acyclic_for_various_params(self, rng):
        for d_max in (3, 5, 8):
            g = make_galton_watson(d_max, 100, rng)
            assert_tree(g)
            assert_symmetric(g)

    def test_parameter_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            make_galton_watson(1, 10, rng)
        with pytest.raises(InvalidParameterError):
            make_galton_watson(4, 0, rng)

    @pytest.mark.parametrize("d_max, min_nodes", [(3, 10.5), (3.0, 10), (3, True)])
    def test_rejects_counts_that_are_not_integers(self, d_max, min_nodes, rng):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_galton_watson(d_max, min_nodes, rng)

    def test_deterministic_for_seed(self):
        g1 = make_galton_watson(6, 200, np.random.default_rng(13))
        g2 = make_galton_watson(6, 200, np.random.default_rng(13))
        assert neighbour_lists(g1) == neighbour_lists(g2)


class TestErdosRenyi:
    def test_mean_degree_near_target(self):
        means = []
        for seed in range(3):
            g = make_erdos_renyi(2000, 4.0, np.random.default_rng(seed))
            means.append(g.avg_degree())
        assert all(3.5 <= m <= 4.5 for m in means), means

    def test_complete_graph_when_p_is_one(self, rng):
        n = 40
        g = make_erdos_renyi(n, n - 1, rng)
        assert g.n == n
        assert g.num_edges == n * (n - 1) // 2

    def test_output_connected(self):
        for seed in range(5):
            g = make_erdos_renyi(300, 2.5, np.random.default_rng(seed))
            assert_tree_like_connected(g)

    def test_deterministic_for_seed(self):
        g1 = make_erdos_renyi(500, 3.0, np.random.default_rng(99))
        g2 = make_erdos_renyi(500, 3.0, np.random.default_rng(99))
        assert neighbour_lists(g1) == neighbour_lists(g2)

    def test_parameter_validation(self, rng):
        with pytest.raises(InvalidParameterError):
            make_erdos_renyi(1, 0.5, rng)
        with pytest.raises(InvalidParameterError):
            make_erdos_renyi(100, 0.0, rng)
        with pytest.raises(InvalidParameterError):
            make_erdos_renyi(100, 100.0, rng)

    @pytest.mark.parametrize("n", [50.0, 50.5, True])
    def test_rejects_a_size_that_is_not_an_integer(self, n, rng):
        # A float size would fail in numpy with a UFuncTypeError.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_erdos_renyi(n, 0.5, rng)


def assert_tree_like_connected(g: Graph):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == g.n


class TestScaleFree:
    def test_edge_node_ratio(self):
        for seed in range(3):
            g = make_scale_free(2000, 1.5, np.random.default_rng(seed))
            ratio = g.num_edges / g.n
            assert 1.4 <= ratio <= 1.6, ratio

    def test_connected_for_all_sizes(self, rng):
        for n in (3, 10, 57, 200):
            g = make_scale_free(n, 1.5, rng)
            assert_tree_like_connected(g)
            assert_symmetric(g)

    def test_heavy_tail(self):
        hits = 0
        for seed in range(20):
            g = make_scale_free(2000, 1.5, np.random.default_rng(seed))
            if g.max_degree() > 5 * g.avg_degree():
                hits += 1
        assert hits == 20

    def test_deterministic_for_seed(self):
        g1 = make_scale_free(400, 1.5, np.random.default_rng(7))
        g2 = make_scale_free(400, 1.5, np.random.default_rng(7))
        assert neighbour_lists(g1) == neighbour_lists(g2)

    @pytest.mark.parametrize("n", [50.5, 50.0])
    def test_rejects_a_size_that_is_not_an_integer(self, n, rng):
        # A float size would fail in numpy with a UFuncTypeError.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_scale_free(n, 2.0, rng)


class TestEdgeList:
    def test_dedupe_and_self_loop_drop(self):
        g = load_edge_list(io.StringIO("0 1\n1 0\n1 1\n"))
        assert g.n == 2
        assert g.num_edges == 1

    def test_comments_and_symmetrization(self):
        text = "# a comment\n10 20\n20 30\n# trailing\n30 10\n"
        g = load_edge_list(io.StringIO(text))
        assert g.n == 3
        assert g.num_edges == 3
        assert_symmetric(g)

    def test_largest_component_selected(self):
        text = "0 1\n1 2\n2 0\n5 6\n"
        g = load_edge_list(io.StringIO(text))
        assert g.n == 3
        assert g.num_edges == 3

    def test_parse_error_carries_line_number(self):
        for bad_line in ("bogus line here", "1 x", "1 -2"):
            with pytest.raises(ParseError) as exc:
                load_edge_list(io.StringIO(f"0 1\n{bad_line}\n"))
            assert exc.value.line_number == 2

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            load_edge_list(io.StringIO("# nothing\n"))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=60),
    avg=st.floats(min_value=0.5, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generator_outputs_are_simple_and_symmetric(n, avg, seed):
    from rqsim.errors import GenerationFailureError

    rng = np.random.default_rng(seed)
    try:
        g = make_erdos_renyi(n, min(avg, n - 1.5), rng)
        assert_symmetric(g)
    except GenerationFailureError:
        pass  # sparse draws may leave no usable component
    g2 = make_scale_free(n, 1.5, rng)
    assert_symmetric(g2)
