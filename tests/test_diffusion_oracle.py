"""The bulk regular-tree path of ``simulate_si``, and the tree it grows,
against the scalar loop on the dictionary-based tree; and the general
loop, which keeps its boundary in two flat lists, against the scalar loop
that kept one tuple per boundary edge, on finite graphs and grown trees.

``reference_diffusion`` keeps the loop as first written, and
``reference_graphs.RegularTree`` the tree that kept neighbour and parent
dictionaries.  Spread on the two trees from equal generators,
``simulate_si`` must return the same snapshot, leave the same expansion
order and the same neighbours at every expanded node, and leave the
generator in the same state.  Interleaved ``neighbors`` calls must answer
alike, and every id that is not exactly an ``int`` must be refused.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_diffusion as reference
import reference_graphs
from conftest import path_graph
from rqsim.diffusion import simulate_si
from rqsim.errors import InfeasibleTargetError, InvalidInputError, InvalidParameterError
from rqsim.graphs import make_erdos_renyi, make_galton_watson, make_regular_tree, make_scale_free

seeds = st.integers(min_value=0, max_value=2**63)


def trees(d):
    return make_regular_tree(d), reference_graphs.RegularTree(d)


def assert_same_tree(tree, ref_tree):
    # The expansion order is the one piece of state read directly; the
    # oracle keeps it as the insertion order of its neighbour dictionary.
    assert tree._order == list(ref_tree._adj)
    assert tree.is_fresh == ref_tree.is_fresh
    for v, nbrs in ref_tree._adj.items():
        assert tree.neighbors(v) == nbrs


def assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng):
    assert snap.infected == ref_snap.infected
    assert snap.parent_pos == ref_snap.parent_pos
    assert snap.index == ref_snap.index
    assert_same_tree(tree, ref_tree)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(d=st.integers(min_value=3, max_value=10), n=st.integers(min_value=1, max_value=2000),
       seed=seeds)
def test_fresh_tree_matches_scalar_loop(d, n, seed):
    tree, ref_tree = trees(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    snap = simulate_si(tree, 0, n, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@pytest.mark.parametrize("n", [1, 2, 3, 400])
@pytest.mark.parametrize("d", [3, 5])
def test_fresh_tree_edge_sizes(d, n):
    tree, ref_tree = trees(d)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    snap = simulate_si(tree, 0, n, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(min_value=3, max_value=10), n=st.integers(min_value=1, max_value=300),
       seed=seeds)
def test_tree_expanded_by_neighbors_call(d, n, seed):
    tree, ref_tree = trees(d)
    tree.neighbors(0)
    ref_tree.neighbors(0)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    snap = simulate_si(tree, 0, n, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(min_value=3, max_value=10), n=st.integers(min_value=1, max_value=300),
       again=st.integers(min_value=1, max_value=300), seed=seeds)
def test_tree_grown_by_earlier_diffusion(d, n, again, seed):
    tree, ref_tree = trees(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    simulate_si(tree, 0, n, rng)
    reference.simulate_si(ref_tree, 0, n, ref_rng)
    snap = simulate_si(tree, 0, again, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, again, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@pytest.mark.parametrize("source", [1, 4, 10**6])
def test_fresh_tree_other_source_raises_as_before(source):
    tree, ref_tree = trees(3)
    with pytest.raises(InvalidInputError) as got:
        simulate_si(tree, source, 10, np.random.default_rng(0))
    with pytest.raises(InvalidInputError) as expected:
        reference.simulate_si(ref_tree, source, 10, np.random.default_rng(0))
    assert str(got.value) == str(expected.value)
    assert tree.is_fresh and ref_tree.is_fresh


def test_zero_target_raises_as_before():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidParameterError):
        simulate_si(make_regular_tree(3), 0, 0, rng)
    with pytest.raises(InvalidParameterError):
        reference.simulate_si(reference_graphs.RegularTree(3), 0, 0, rng)
    assert rng.bit_generator.state == state


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=200), seed=seeds)
def test_galton_watson_tree_keeps_scalar_loop(n, seed):
    graph = make_galton_watson(6, 400, np.random.default_rng(seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    snap = simulate_si(graph, 0, n, rng)
    ref_snap = reference.simulate_si(graph, 0, n, ref_rng)
    assert (snap.infected, snap.parent_pos, snap.index) == (
        ref_snap.infected, ref_snap.parent_pos, ref_snap.index)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


#: Ids that are not exactly ``int``: equal to materialized ids, or not.
not_ints = st.sampled_from([1.5, 2.0, 0.0, True, False, np.int64(2), np.int32(0), "1", None])


@st.composite
def tree_calls(draw):
    """A call on both trees: ("neighbors", id) or ("spread", back, n).

    An int id and the source of a spread count back from the oracle's
    last materialized id when the call is made: ids then reach expanded,
    materialized, unmaterialized and negative ones, sources materialized
    ones.
    """
    if draw(st.booleans()):
        return "spread", draw(st.integers(min_value=1, max_value=60)), draw(st.integers(1, 120))
    return "neighbors", draw(not_ints | st.integers(min_value=-3, max_value=200))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(min_value=3, max_value=6), calls=st.lists(tree_calls(), max_size=12), seed=seeds)
def test_interleaved_neighbors_and_spreads(d, calls, seed):
    tree, ref_tree = trees(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for call in calls:
        if call[0] == "spread":
            _, back, n = call
            # A spread from the root of a fresh tree takes the bulk path,
            # any other the scalar loop.
            source = max(ref_tree._next_id - back, 0)
            snap = simulate_si(tree, source, n, rng)
            ref_snap = reference.simulate_si(ref_tree, source, n, ref_rng)
            assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)
            continue
        v = call[1]
        if type(v) is not int:
            with pytest.raises(InvalidInputError):
                tree.neighbors(v)
            continue
        v = ref_tree._next_id - 1 - v
        try:
            expected = ref_tree.neighbors(v)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=str(exc)):
                tree.neighbors(v)
        else:
            assert tree.neighbors(v) == expected
    assert_same_tree(tree, ref_tree)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(highs=st.lists(st.integers(min_value=3, max_value=2**34), max_size=50)
       | st.lists(st.sampled_from([3, 2**32 - 1, 2**32, 2**32 + 1, 2**33]), max_size=20),
       seed=seeds)
def test_broadcast_integers_draw_what_scalar_calls_draw(highs, seed):
    """The bulk path rests on this: numpy's broadcast ``integers(0, highs)``
    returns the values of, and leaves the state of, one scalar call per
    bound, for bounds below and above 2**32."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = rng.integers(0, np.array(highs, dtype=np.int64)).tolist()
    assert drawn == [int(ref_rng.integers(h)) for h in highs]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def spread_outcome(simulate, graph, source, n, rng):
    """The snapshot's arrays, or the message of the target it could not
    reach, and the generator's state after the spread."""
    try:
        snap = simulate(graph, source, n, rng)
        outcome = (snap.infected, list(snap.parent_pos), snap.index)
    except InfeasibleTargetError as exc:
        outcome = str(exc)
    return outcome, rng.bit_generator.state


finite_graphs = {
    "er": lambda rng: make_erdos_renyi(300, 4.0, rng),
    "sparse_er": lambda rng: make_erdos_renyi(300, 1.5, rng),  # a largest component of ~180
    "sf": lambda rng: make_scale_free(300, 1.5, rng),
    "dense_sf": lambda rng: make_scale_free(300, 8.0, rng),
    "gw": lambda rng: make_galton_watson(6, 300, rng),
}


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(finite_graphs)), n=st.integers(min_value=1, max_value=320),
       seed=seeds)
def test_finite_graphs_spread_as_with_tuples(family, n, seed):
    graph = finite_graphs[family](np.random.default_rng(seed))
    source = int(np.random.default_rng(seed + 1).integers(graph.n))
    outcomes = [spread_outcome(simulate, graph, source, n, np.random.default_rng(seed))
                for simulate in (simulate_si, reference.simulate_si)]
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=3, max_value=6), grown=st.integers(min_value=1, max_value=200),
       back=st.integers(min_value=0, max_value=100), n=st.integers(min_value=1, max_value=200),
       seed=seeds)
def test_grown_tree_spreads_from_any_node_as_with_tuples(d, grown, back, n, seed):
    """A spread on a tree that an earlier spread grew, from the root or
    from another materialized node, takes the general loop."""
    tree, ref_tree = trees(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    simulate_si(tree, 0, grown, rng)
    reference.simulate_si(ref_tree, 0, grown, ref_rng)
    source = max(ref_tree._next_id - 1 - back, 0)
    snap = simulate_si(tree, source, n, rng)
    ref_snap = reference.simulate_si(ref_tree, source, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@pytest.mark.parametrize("n", [1, 5, 20, 21])
@pytest.mark.parametrize("source", [0, 7, 19])
def test_path_spread_as_with_tuples(source, n):
    """On a path the boundary shrinks to one entry, a pick below 1 that
    reads no word; from an end it never holds more.  n = 21 exhausts the
    path."""
    graph = path_graph(20)
    outcomes = [spread_outcome(simulate, graph, source, n, np.random.default_rng(source))
                for simulate in (simulate_si, reference.simulate_si)]
    assert outcomes[0] == outcomes[1]
    if source == 0:
        assert outcomes[0][1] == np.random.default_rng(0).bit_generator.state
