"""The bulk regular-tree path of ``simulate_si`` against the scalar loop.

``reference_diffusion`` keeps the loop as first written.  On a fresh
regular tree spread from its root, ``simulate_si`` must return the same
snapshot, leave the same materialised tree and leave the generator in the
same state; every other call takes the loop itself and must match too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_diffusion as reference
from rqsim.diffusion import simulate_si
from rqsim.errors import InvalidInputError, InvalidParameterError
from rqsim.graphs import make_galton_watson, make_regular_tree

seeds = st.integers(min_value=0, max_value=2**63)


def assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng):
    assert snap.infected == ref_snap.infected
    assert snap.parent_pos == ref_snap.parent_pos
    assert snap.index == ref_snap.index
    assert tree._adj == ref_tree._adj
    assert tree._parents == ref_tree._parents
    assert tree._next_id == ref_tree._next_id
    # The dictionaries are filled in the order the scalar loop fills them.
    assert list(tree._adj) == list(ref_tree._adj)
    assert list(tree._parents) == list(ref_tree._parents)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(d=st.integers(min_value=3, max_value=10), n=st.integers(min_value=1, max_value=2000),
       seed=seeds)
def test_fresh_tree_matches_scalar_loop(d, n, seed):
    tree, ref_tree = make_regular_tree(d), make_regular_tree(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    snap = simulate_si(tree, 0, n, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@pytest.mark.parametrize("n", [1, 2, 3, 400])
@pytest.mark.parametrize("d", [3, 5])
def test_fresh_tree_edge_sizes(d, n):
    tree, ref_tree = make_regular_tree(d), make_regular_tree(d)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    snap = simulate_si(tree, 0, n, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, n, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(min_value=3, max_value=10), n=st.integers(min_value=1, max_value=300),
       seed=seeds)
def test_tree_expanded_by_neighbors_call(d, n, seed):
    tree, ref_tree = make_regular_tree(d), make_regular_tree(d)
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
    tree, ref_tree = make_regular_tree(d), make_regular_tree(d)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    simulate_si(tree, 0, n, rng)
    reference.simulate_si(ref_tree, 0, n, ref_rng)
    snap = simulate_si(tree, 0, again, rng)
    ref_snap = reference.simulate_si(ref_tree, 0, again, ref_rng)
    assert_same_run(tree, ref_tree, snap, ref_snap, rng, ref_rng)


@pytest.mark.parametrize("source", [1, 4, 10**6])
def test_fresh_tree_other_source_raises_as_before(source):
    tree, ref_tree = make_regular_tree(3), make_regular_tree(3)
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
        reference.simulate_si(make_regular_tree(3), 0, 0, rng)
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
