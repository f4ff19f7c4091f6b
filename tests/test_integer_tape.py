"""``graphs.IntegerTape`` against scalar ``Generator.integers`` calls.

The tape decodes numpy's bounded draws (Lemire's method on 32-bit words)
from blocks of raw words.  Call for call it must return what
``int(rng.integers(h))`` returns, and on leaving its ``with`` block,
an exception included, leave the generator in the state those calls
leave.  A change to numpy's bounded-integer path shows here first.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqsim.errors import InvalidParameterError
from rqsim.graphs import IntegerTape

#: 2**31 + 1 rejects about half the words; 1 reads none; 2**32 takes a word as it is.
BOUNDS = [1, 2, 3, 7, 2**16 + 1, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32]

seeds = st.integers(min_value=0, max_value=2**63)


def scalar_draws(bounds: list[int], seed: int) -> tuple[list[int], dict]:
    rng = np.random.default_rng(seed)
    return [int(rng.integers(h)) for h in bounds], rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(bounds=st.lists(st.sampled_from(BOUNDS), max_size=300), block=st.integers(1, 64),
       seed=seeds)
@example(bounds=[2**31 + 1] * 200, block=7, seed=0)
@example(bounds=[1] * 5, block=1, seed=3)  # no word read at all
def test_bounds_interleaved_draw_what_scalar_calls_draw(bounds, block, seed):
    rng = np.random.default_rng(seed)
    with IntegerTape(rng, block) as tape:
        drawn = [tape.below(h) for h in bounds]
    assert (drawn, rng.bit_generator.state) == scalar_draws(bounds, seed)


def test_no_word_is_drawn_for_bound_one():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with IntegerTape(rng, 16) as tape:
        assert [tape.below(1) for _ in range(10)] == [0] * 10
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bound", [2**32 + 1, 2**40, 0, -3])
def test_bound_outside_one_to_two_to_the_32_raises(bound):
    rng = np.random.default_rng(9)
    with pytest.raises(InvalidParameterError):
        with IntegerTape(rng, 8) as tape:
            first = [tape.below(h) for h in (7, 2**31 + 1, 3)]
            tape.below(bound)
    assert (first, rng.bit_generator.state) == scalar_draws([7, 2**31 + 1, 3], 9)


@settings(max_examples=100, deadline=None)
@given(bounds=st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=60),
       fail_at=st.integers(0, 59), block=st.integers(1, 16), seed=seeds)
def test_exception_leaves_the_state_of_the_draws_made(bounds, fail_at, block, seed):
    fail_at = min(fail_at, len(bounds))
    rng = np.random.default_rng(seed)
    with pytest.raises(RuntimeError):
        with IntegerTape(rng, block) as tape:
            for h in bounds[:fail_at]:
                tape.below(h)
            raise RuntimeError
    assert rng.bit_generator.state == scalar_draws(bounds[:fail_at], seed)[1]


@st.composite
def word_runs(draw) -> list[tuple]:
    """("below", h) calls and ("take", k) calls, which take ``k`` words."""
    calls = []
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.booleans()):
            calls.append(("below", draw(st.sampled_from(BOUNDS))))
        else:
            calls.append(("take", draw(st.integers(0, 40))))
    return calls


@settings(max_examples=150, deadline=None)
@given(calls=word_runs(), block=st.integers(1, 32), seed=seeds)
def test_word_runs_read_the_raw_words(calls, block, seed):
    """The words taken are what ``rng.integers(0, 2**32, size=k)`` returns
    next, as ints, and they count as drawn."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with IntegerTape(rng, block) as tape:
        for kind, arg in calls:
            if kind == "below":
                assert tape.below(arg) == int(ref.integers(arg))
                continue
            words = tape.take(arg)
            assert all(type(word) is int for word in words)
            assert words == ref.integers(0, 2**32, size=arg).tolist()
    assert rng.bit_generator.state == ref.bit_generator.state
