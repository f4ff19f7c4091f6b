"""Invariants of both estimators that hold on every graph family."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rqsim.diffusion import Snapshot, simulate_si
from rqsim.estimators import ADConfig, NAConfig, run_mvad, run_mvna
from rqsim.graphs import make_erdos_renyi, make_galton_watson, make_regular_tree, make_scale_free
from rqsim.respondent import TruthModel

#: The harness's graph specs and their generators at test size.
FAMILIES = {
    "regular:3": lambda rng: make_regular_tree(3),
    "gw:6": lambda rng: make_galton_watson(6, 160, rng),
    "er:120:4": lambda rng: make_erdos_renyi(120, 4.0, rng),
    "sf:120:1.5": lambda rng: make_scale_free(120, 1.5, rng),
}

families = st.sampled_from(sorted(FAMILIES))
sizes = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def snapshot(family: str, n: int, seed: int) -> tuple[Snapshot, np.random.Generator]:
    rng = np.random.default_rng(seed)
    graph = FAMILIES[family](rng)
    source = int(rng.integers(graph.n)) if graph.is_finite else 0
    return simulate_si(graph, source, n, rng), rng


@settings(max_examples=100, deadline=None)
@given(
    family=families, n=sizes, seed=seeds,
    K=st.integers(min_value=1, max_value=120), r=st.integers(min_value=1, max_value=8),
    p=st.floats(min_value=0.51, max_value=1.0), q=st.floats(min_value=0.55, max_value=1.0),
)
def test_budget_spent_and_estimate_infected(family, n, seed, K, r, p, q):
    snap, rng = snapshot(family, n, seed)
    r = min(r, K)
    model = TruthModel(p=p, q=q)

    na = run_mvna(snap, NAConfig(budget=K, repetitions=r), model, rng)
    assert na.budget_used == r * min(K // r, snap.n)
    assert na.estimate in snap.index

    ad = run_mvad(snap, ADConfig(budget=K, repetitions=r), model, rng)
    assert ad.budget_used <= K and ad.budget_used % r == 0
    assert ad.estimate in snap.index


@settings(max_examples=50, deadline=None)
@given(family=families, n=sizes, seed=seeds, extra=st.integers(min_value=0, max_value=20))
def test_perfect_answers_find_the_source(family, n, seed, extra):
    snap, rng = snapshot(family, n, seed)
    model = TruthModel(p=1.0, q=1.0)
    K = snap.n + extra
    assert run_mvna(snap, NAConfig(budget=K, repetitions=1), model, rng).estimate == snap.source
    assert run_mvad(snap, ADConfig(budget=K, repetitions=1), model, rng).estimate == snap.source


@settings(max_examples=50, deadline=None)
@given(family=families, n=sizes, seed=seeds)
def test_snapshot_json_round_trip(family, n, seed):
    snap, _ = snapshot(family, n, seed)
    back = Snapshot.from_json(snap.to_json())
    assert (back.source, back.infected, back.parent) == (snap.source, snap.infected, snap.parent)
