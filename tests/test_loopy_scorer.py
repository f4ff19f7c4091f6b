"""Differential tests: the array-indexed loopy scorer against its original.

``reference_scorer.general_graph_scores`` is the dict-based BFS-tree
scorer that ``rqsim.centrality.general_graph_scores`` replaced. Both sum
the same logarithms in different orders, so scores agree to rounding,
well inside ``TOLERANCE``.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import graph_from_edges, snapshot_of
from reference_scorer import general_graph_scores as reference_scores
from rqsim.centrality import general_graph_scores
from rqsim.diffusion import Snapshot, simulate_si
from rqsim.errors import GenerationFailureError, InvalidInputError
from rqsim.graphs import make_erdos_renyi, make_regular_tree, make_scale_free

TOLERANCE = 1e-9


def assert_matches_reference(snap: Snapshot) -> None:
    want = reference_scores(snap)
    got = general_graph_scores(snap)
    assert list(got) == list(want)
    for v, s in want.items():
        assert abs(got[v] - s) <= TOLERANCE, (v, got[v], s)
    ranked = sorted(want.values(), reverse=True)
    if len(ranked) == 1 or ranked[0] - ranked[1] > TOLERANCE:
        assert max(got, key=got.get) == max(want, key=want.get)

    subset = sorted(snap.infected)[::3]
    assert general_graph_scores(snap, nodes=subset) == {v: got[v] for v in subset}


def _snapshot(family: str, size: int, density: float, n_infected: int, seed: int) -> Snapshot:
    rng = np.random.default_rng(seed)
    if family == "er":
        try:
            graph = make_erdos_renyi(size, min(density, size - 1), rng)
        except GenerationFailureError:
            assume(False)
    elif family == "sf":
        graph = make_scale_free(size, density, rng)
    else:
        graph = make_regular_tree(3 + int(density))
    if graph.is_finite:
        n_infected = min(n_infected, graph.n)
        source = int(rng.integers(graph.n))
    else:
        source = 0
    return simulate_si(graph, source, n_infected, rng)


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["er", "sf", "regular"]),
    size=st.integers(min_value=3, max_value=60),
    density=st.floats(min_value=1.0, max_value=6.0),
    n_infected=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(family="er", size=10, density=3.0, n_infected=1, seed=0)
@example(family="sf", size=10, density=2.0, n_infected=2, seed=0)
@example(family="regular", size=3, density=0.0, n_infected=1, seed=0)
@example(family="regular", size=3, density=1.0, n_infected=2, seed=0)
def test_small_snapshots_match_reference(family, size, density, n_infected, seed):
    assert_matches_reference(_snapshot(family, size, density, n_infected, seed))


@pytest.mark.parametrize(
    "family,size,density",
    [("er", 2000, 4.0), ("sf", 2000, 1.5)],
    ids=["er:2000:4", "sf:2000:1.5"],
)
def test_n400_snapshot_matches_reference(family, size, density):
    snap = _snapshot(family, size, density, 400, seed=20240817)
    assert snap.n == 400 and not snap.is_tree
    assert_matches_reference(snap)


def test_single_node_scores_zero():
    snap = _snapshot("er", 50, 3.0, 1, seed=3)
    assert general_graph_scores(snap) == {snap.source: 0.0}


class TestInvalidInputs:
    """Both scorers reject the same inputs with InvalidInputError."""

    @pytest.mark.parametrize("scorer", [general_graph_scores, reference_scores])
    def test_no_graph(self, scorer):
        snap = snapshot_of(None, 0, [0, 1], {1: 0})
        with pytest.raises(InvalidInputError):
            scorer(snap)

    @pytest.mark.parametrize("scorer", [general_graph_scores, reference_scores])
    def test_uninfected_node(self, scorer):
        snap = _snapshot("er", 200, 4.0, 30, seed=11)
        outside = next(v for v in range(snap.graph.n) if v not in snap.index)
        with pytest.raises(InvalidInputError):
            scorer(snap, nodes=[snap.source, outside])

    @pytest.mark.parametrize("scorer", [general_graph_scores, reference_scores])
    def test_disconnected_infected_set(self, scorer):
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        snap = snapshot_of(path, 0, [0, 1, 3], {1: 0, 3: 1})
        with pytest.raises(InvalidInputError):
            scorer(snap)
