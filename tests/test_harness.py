"""Experiment runner: seeding, aggregation, output formats."""

import json
import logging
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqsim
from rqsim.errors import InvalidParameterError
from rqsim.estimators import choose_r_star
from rqsim.harness import (
    ExperimentConfig,
    GraphSpec,
    ResultRow,
    _build_graph,
    _resolve_r,
    parse_graph_spec,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    wilson_interval,
)


class TestWilsonInterval:
    def test_boundaries(self):
        lo, hi = wilson_interval(0, 25)
        assert lo == 0.0
        assert hi > 0.0
        lo, hi = wilson_interval(25, 25)
        assert hi == 1.0
        assert lo < 1.0

    def test_reference_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.404, abs=0.002)
        assert hi == pytest.approx(0.596, abs=0.002)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(5, 0)
        with pytest.raises(InvalidParameterError):
            wilson_interval(6, 5)

    @pytest.mark.parametrize("args", [(5.5, 10), (5.0, 10), (True, 10), (False, 10), (5, 10.0), (5, True)],
                             ids=repr)
    def test_counts_are_integers(self, args):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            wilson_interval(*args)

    def test_numpy_integer_counts(self):
        assert wilson_interval(np.int64(5), np.int64(10)) == wilson_interval(5, 10)

    @settings(max_examples=60, deadline=None)
    @given(trials=st.integers(min_value=1, max_value=500), frac=st.floats(min_value=0, max_value=1))
    def test_contains_point_estimate(self, trials, frac):
        successes = min(trials, int(round(frac * trials)))
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= lo <= phat <= hi <= 1.0


class TestGraphSpecParsing:
    def test_families(self):
        # args are the generator's arguments before rng; d is the degree fed
        # to the closed forms: rounded and floored at 3, and 0 on an edge list,
        # whose degree is measured on the load.
        for text, args, d in (
            ("regular:3", (3,), 3), ("regular:4", (4,), 4),
            ("gw:10", (10, 0), 10), ("gw:10:900", (10, 900), 10), ("gw:2", (2, 0), 3),
            ("er:2000:4", (2000, 4.0), 4), ("er:300:4.6", (300, 4.6), 5),
            ("er:300:2.5", (300, 2.5), 3),
            ("sf:2000:1.5", (2000, 1.5), 3), ("sf:300:1", (300, 1.0), 3),
            ("sf:4039:22", (4039, 22.0), 44),
            ("edgelist:/data/fb.txt", ("/data/fb.txt",), 0),
            ("edgelist:/data/a:b.txt", ("/data/a:b.txt",), 0),
            (f"regular:{2**53 - 1}", (2**53 - 1,), 2**53 - 1),
        ):
            assert parse_graph_spec(text) == GraphSpec(text.split(":")[0], args, d), text

    def test_effective_degree(self):
        # The degree the closed forms take is the spec's d.
        assert parse_graph_spec("regular:4").d == 4
        assert parse_graph_spec("gw:10").d == 10
        assert parse_graph_spec("er:2000:4").d == 4
        assert parse_graph_spec("sf:2000:1.5").d == 3

    def test_rejects_malformed(self):
        for bad in ("regular", "regular:2", "er:10", "sf:2", "ring:5", "gw:1",
                    "er:10:0", "sf:2:1.5", "edgelist:"):
            with pytest.raises(InvalidParameterError):
                parse_graph_spec(bad)

    def test_rejects_a_degree_of_2_to_the_53_or_more(self):
        # The closed forms take a finite integer d below 2**53.
        for bad in (f"regular:{2**53}", f"regular:1{'0' * 160}", f"gw:{2**53}",
                    "sf:3:1e308", "sf:50:1e300", f"er:{10**20}:1e19"):
            with pytest.raises(InvalidParameterError, match="must be below 2\\*\\*53"):
                parse_graph_spec(bad)

    def test_galton_watson_trees_are_sized_from_min_nodes_or_the_infection_target(self):
        rng = np.random.default_rng(5)
        assert _build_graph(parse_graph_spec("gw:10:900"), 100, rng).n >= 900
        assert _build_graph(parse_graph_spec("gw:10"), 100, rng).n >= 400


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        graph="regular:3",
        scheme="na",
        budgets=(20,),
        p_values=(0.8,),
        q_values=(0.8,),
        n_infected=40,
        trials=10,
        master_seed=5,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_order_follows_sweep(self):
        cfg = small_config(budgets=(10, 20), p_values=(0.7, 0.9), q_values=(0.6,), trials=2)
        rows = run_experiment(cfg)
        combos = [(r.K, r.p, r.q) for r in rows]
        assert combos == [(10, 0.7, 0.6), (10, 0.9, 0.6), (20, 0.7, 0.6), (20, 0.9, 0.6)]

    def test_identical_seeds_identical_rows(self):
        cfg = small_config(trials=15)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert rows_to_csv(a, zero_timing=True) == rows_to_csv(b, zero_timing=True)

    def test_forks_one_child_per_extra_worker_up_to_the_trials(self, monkeypatch):
        # The calling process is one of the workers, and there are never
        # more workers than trials; one worker forks nothing.
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for trials, threads, children in ((1, 4, 0), (3, 8, 2), (5, 2, 1)):
            forks.clear()
            got = rows_to_csv(run_experiment(small_config(trials=trials, threads=threads)), True)
            assert len(forks) == children
            assert got == rows_to_csv(run_experiment(small_config(trials=trials, threads=1)), True)

    def test_parallel_matches_sequential(self):
        seq = run_experiment(small_config(trials=12, threads=1))
        par = run_experiment(small_config(trials=12, threads=2))
        assert rows_to_csv(seq, zero_timing=True) == rows_to_csv(par, zero_timing=True)

    def test_baseline_mode(self):
        cfg = small_config(budgets=(0,), trials=8)
        rows = run_experiment(cfg)
        assert rows[0].r == 0
        assert rows[0].mean_budget == 0
        assert 0.0 <= rows[0].p_hat <= 1.0

    def test_perfect_information_detects_always(self):
        cfg = small_config(budgets=(40,), p_values=(1.0,), q_values=(1.0,), trials=8)
        rows = run_experiment(cfg)
        assert rows[0].p_hat == 1.0
        cfg = small_config(scheme="ad", budgets=(40,), p_values=(1.0,), q_values=(1.0,), trials=8)
        rows = run_experiment(cfg)
        assert rows[0].p_hat == 1.0

    def test_infeasible_target_yields_error_row(self):
        cfg = small_config(graph="er:30:3", n_infected=500, trials=3)
        rows = run_experiment(cfg)
        assert rows[0].error is not None
        assert math.isnan(rows[0].p_hat)

    def test_fixed_r_mode(self):
        cfg = small_config(r_mode="fixed:5", trials=4)
        rows = run_experiment(cfg)
        assert rows[0].r == 5

    def test_rstar_mode_resolves_per_budget(self):
        # Below K = 3 the closed forms are undefined, and a querying row uses r = 1.
        cfg = small_config(budgets=(0, 1, 2, 200), p_values=(2 / 3,), q_values=(2 / 3,), trials=2)
        rows = run_experiment(cfg)
        assert [(row.r, row.error) for row in rows] == [(0, None), (1, None), (1, None), (3, None)]

    def test_fixed_graph_pins_instance(self):
        cfg = small_config(graph="er:120:4", n_infected=30, trials=6, fixed_graph=True)
        rows = run_experiment(cfg)
        assert rows[0].error is None

    def test_edgelist_sweep_uses_file_degree(self, tmp_path, monkeypatch):
        import rqsim.graphs

        # Ring of 300 nodes, each joined to its 6 nearest on either side.
        n = 300
        path = tmp_path / "ring.txt"
        path.write_text("".join(f"{u} {(u + k) % n}\n" for u in range(n) for k in range(1, 7)))
        loads = []
        real_load = rqsim.graphs.load_edge_list

        def counting_load(source):
            if isinstance(source, str):  # it re-enters itself with the open file
                loads.append(source)
            return real_load(source)

        monkeypatch.setattr(rqsim.graphs, "load_edge_list", counting_load)
        cfg = small_config(graph=f"edgelist:{path}", n_infected=30, trials=2)
        rows = run_experiment(cfg)
        assert rows[0].error is None
        assert rows[0].d == 12
        assert rows[0].r == choose_r_star("na", "sufficient", 20, 12, 0.8, 0.8)
        assert len(loads) == 1

    def test_a_rewritten_edge_list_is_loaded_again_by_the_next_sweep(self, tmp_path):
        # The same config twice in one process: the second sweep reads the
        # file as it is now, not the graph the first sweep loaded.
        path = tmp_path / "ring.txt"
        cfg = small_config(graph=f"edgelist:{path}", n_infected=150, trials=2)
        for n, error in ((100, "graph has 100 nodes, cannot infect 150"), (300, None)):
            path.write_text("".join(f"{u} {(u + 1) % n}\n" for u in range(n)))
            assert [row.error for row in run_experiment(cfg)] == [error]

    def test_unexpected_trial_exception_yields_error_row(self, monkeypatch, caplog):
        import rqsim.harness

        cfg = small_config(budgets=(10, 20, 30), trials=3)
        clean = run_experiment(cfg)
        real_run = rqsim.harness.run_mvna
        calls = []

        def flaky(snapshot, config, *args, **kwargs):
            if config.budget == 20:
                calls.append(config)
                if len(calls) == 2:  # row 1, trial 1
                    raise RuntimeError("boom")
            return real_run(snapshot, config, *args, **kwargs)

        monkeypatch.setattr(rqsim.harness, "run_mvna", flaky)
        with caplog.at_level(logging.ERROR, logger="rqsim.harness"):
            rows = run_experiment(cfg)
        assert [row.error is None for row in rows] == [True, False, True]
        assert "trial 1" in rows[1].error and "RuntimeError" in rows[1].error
        assert math.isnan(rows[1].p_hat)
        for i in (0, 2):
            assert (rows[i].detections, rows[i].mean_budget) == (
                clean[i].detections,
                clean[i].mean_budget,
            )
        tracebacks = [rec.getMessage() for rec in caplog.records if "Traceback" in rec.getMessage()]
        assert len(tracebacks) == 1 and 'raise RuntimeError("boom")' in tracebacks[0]

        # A fault in the shared build, simulation or scoring fails every row.
        monkeypatch.setattr(rqsim.harness, "run_mvna", real_run)
        real_simulate = rqsim.harness.simulate_si
        sims = []

        def flaky_simulate(*args):
            sims.append(args)
            if len(sims) == 2:  # trial 1
                raise RuntimeError("boom")
            return real_simulate(*args)

        monkeypatch.setattr(rqsim.harness, "simulate_si", flaky_simulate)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="rqsim.harness"):
            rows = run_experiment(cfg)
        for row in rows:
            assert "trial 1" in row.error and "RuntimeError" in row.error
            assert math.isnan(row.p_hat)
        tracebacks = [rec.getMessage() for rec in caplog.records if "Traceback" in rec.getMessage()]
        assert len(tracebacks) == 1 and 'raise RuntimeError("boom")' in tracebacks[0]

    def test_gw_and_sf_families_run(self):
        for graph in ("gw:6", "sf:200:1.5", "er:200:4"):
            cfg = small_config(graph=graph, n_infected=25, trials=3)
            rows = run_experiment(cfg)
            assert rows[0].error is None, graph
            assert 0.0 <= rows[0].p_hat <= 1.0


class TestOutputFormats:
    def test_csv_header_exact(self):
        rows = run_experiment(small_config(trials=2))
        text = rows_to_csv(rows)
        header = text.splitlines()[0]
        assert header == (
            "scheme,graph,d,n,K,r,p,q,trials,detections,p_hat,ci_lo,ci_hi,mean_budget,wall_time_ms"
        )
        assert len(text.splitlines()) == 2

    def test_zero_timing_blanks_clock(self):
        rows = run_experiment(small_config(trials=2))
        line = rows_to_csv(rows, zero_timing=True).splitlines()[1]
        assert line.endswith(",0")

    def test_json_mirrors_fields(self):
        rows = run_experiment(small_config(trials=3))
        docs = json.loads(rows_to_json(rows, zero_timing=True))
        assert len(docs) == 1
        doc = docs[0]
        assert doc["scheme"] == "na"
        assert doc["K"] == 20
        assert doc["trials"] == 3
        assert doc["error"] is None
        assert set(doc) == {
            "scheme", "graph", "d", "n", "K", "r", "p", "q", "trials", "detections",
            "p_hat", "ci_lo", "ci_hi", "mean_budget", "wall_time_ms", "error",
        }

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            small_config(scheme="xx")
        with pytest.raises(InvalidParameterError):
            small_config(trials=0)
        with pytest.raises(InvalidParameterError):
            small_config(budgets=())
        with pytest.raises(InvalidParameterError):
            small_config(r_mode="sometimes:3")
        for r_mode in ("fixed:x", "fixed:0"):
            with pytest.raises(InvalidParameterError):
                small_config(r_mode=r_mode)
        with pytest.raises(InvalidParameterError):
            small_config(n_infected=0)
        with pytest.raises(InvalidParameterError):
            small_config(budgets=(20, -1))
        for empty in ({"p_values": ()}, {"q_values": ()}):
            with pytest.raises(InvalidParameterError):
                small_config(**empty)
        for threads in (0, -2):
            with pytest.raises(InvalidParameterError):
                small_config(threads=threads)
        # numpy integers are integers, and numpy floats real numbers.
        small_config(budgets=(np.int64(20),), trials=np.int32(10), p_values=(np.float64(0.8),))
        listed, twin = small_config(budgets=[0, 20]), small_config(budgets=(0, 20))
        assert listed == twin and hash(listed) == hash(twin)


@pytest.mark.parametrize("overrides", [
    {"master_seed": -1},
    {"p_values": (0.8, 1.5)},
    {"p_values": (1.5,), "budgets": (0,)},
    {"q_values": (0.0,)},
    {"candidate_order": "x"},
])
def test_config_rejects_values_every_trial_would_fail_on(overrides):
    # The constructor raises, so no trial of the sweep can run.
    with pytest.raises(InvalidParameterError):
        small_config(**overrides)


@pytest.mark.parametrize("overrides", [
    {"budgets": (50.5,)},
    {"budgets": (True,)},
    {"trials": 3.0},
    {"threads": 2.0},
    {"threads": True},
    {"n_infected": 40.0},
    {"master_seed": 1.5},
    {"p_values": ("0.8",)},
    {"q_values": (True,)},
    {"fixed_graph": "no"},
    {"graph": 5},
    {"graph": None},
    {"r_mode": 5},
    {"p_values": 0.8},
    {"budgets": 10},
])
def test_config_rejects_a_field_of_the_wrong_type(overrides):
    # Built directly, not through from_mapping: the constructor checks types.
    with pytest.raises(InvalidParameterError, match=f"^{next(iter(overrides))} must be of type"):
        small_config(**overrides)


#: Every r rule a config accepts, the closed forms of both kinds and fixed counts.
R_MODES = ["rstar:necessary", "rstar:sufficient", "fixed:1", "fixed:2", "fixed:7", f"fixed:{2**62}"]


def assert_resolves_in_range(scheme, r_mode, K, d, p, q):
    # run_experiment resolves every row's r with no handler, so no valid row
    # may raise: r is an int, 0 at K = 0 and in 1..K otherwise.
    config = small_config(scheme=scheme, r_mode=r_mode, budgets=(K,), p_values=(p,), q_values=(q,))
    r = _resolve_r(config, K, d, p, q)
    assert type(r) is int
    assert r == 0 if K == 0 else 1 <= r <= K, (scheme, r_mode, K, d, p, q, r)


@pytest.mark.parametrize("scheme", ["na", "ad"])
@pytest.mark.parametrize("r_mode", R_MODES)
def test_every_valid_row_resolves_an_r_at_the_extremes(scheme, r_mode):
    for K, d, p, q in product(
        (0, 1, 2, 3, 4, 50, 10**6, 2**62),
        (3, 4, 12, 10**6, 2**53 - 1),
        (math.nextafter(0.5, 1.0), 0.5 + 1e-12, 0.8, 1.0),
        (5e-324, 1e-12, 0.05, 1 / 3, 0.8, 1.0),
    ):
        assert_resolves_in_range(scheme, r_mode, K, d, p, q)


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(["na", "ad"]),
    r_mode=st.sampled_from(R_MODES) | st.integers(1, 2**62).map(lambda r: f"fixed:{r}"),
    K=st.integers(0, 2**62) | st.integers(0, 10),
    d=st.integers(3, 10**6),
    p=st.floats(0.5, 1.0, exclude_min=True),
    q=st.floats(0.0, 1.0, exclude_min=True),
)
def test_every_valid_row_resolves_an_r(scheme, r_mode, K, d, p, q):
    assert_resolves_in_range(scheme, r_mode, K, d, p, q)


def test_numpy_numbers_render_as_plain_numbers():
    # The constructor stores plain numbers, so the rows hold no numpy scalar.
    numpy_cfg = small_config(budgets=(np.int64(0), np.int64(20)), trials=np.int64(4),
                             p_values=(np.float64(0.8),))
    plain = run_experiment(small_config(budgets=(0, 20), trials=4))
    rows = run_experiment(numpy_cfg)
    assert rows_to_json(rows, True) == rows_to_json(plain, True)
    assert rows_to_csv(rows, True) == rows_to_csv(plain, True)


#: Hand-built rows: a plain row, one whose floats exercise the trailing-zero
#: strip and six-place rounding (1e-7 -> 0, 0.1234565 -> 0.123456, 1.0 -> 1,
#: half-even wall clock 1234.5 -> 1234), and an error row full of NaN.
GOLDEN_ROWS = (
    ResultRow("na", "regular:3", 3, 400, 0, 0, 0.8, 0.8, 200, 37, 0.185, 0.13723456789,
              0.24594, 0.0, 58.4),
    ResultRow("ad", "er:2000:4", 4, 400, 200, 3, 2 / 3, 1.0, 8, 8, 1.0, 1e-7, 0.1234565,
              199.5, 1234.5),
    ResultRow("na", "er:30:3", 3, 500, 20, 2, 0.75, 0.6, 3, 0, math.nan, math.nan, math.nan,
              math.nan, 0.4, error="graph has 30 nodes, cannot infect 500"),
)

GOLDEN_CSV = """\
scheme,graph,d,n,K,r,p,q,trials,detections,p_hat,ci_lo,ci_hi,mean_budget,wall_time_ms
na,regular:3,3,400,0,0,0.8,0.8,200,37,0.185,0.137235,0.24594,0,%d
ad,er:2000:4,4,400,200,3,0.666667,1,8,8,1,0,0.123456,199.5,%d
na,er:30:3,3,500,20,2,0.75,0.6,3,0,nan,nan,nan,nan,%d
"""

GOLDEN_JSON = """\
[
  {
    "scheme": "na",
    "graph": "regular:3",
    "d": 3,
    "n": 400,
    "K": 0,
    "r": 0,
    "p": 0.8,
    "q": 0.8,
    "trials": 200,
    "detections": 37,
    "p_hat": 0.185,
    "ci_lo": 0.13723456789,
    "ci_hi": 0.24594,
    "mean_budget": 0.0,
    "wall_time_ms": %d,
    "error": null
  },
  {
    "scheme": "ad",
    "graph": "er:2000:4",
    "d": 4,
    "n": 400,
    "K": 200,
    "r": 3,
    "p": 0.6666666666666666,
    "q": 1.0,
    "trials": 8,
    "detections": 8,
    "p_hat": 1.0,
    "ci_lo": 1e-07,
    "ci_hi": 0.1234565,
    "mean_budget": 199.5,
    "wall_time_ms": %d,
    "error": null
  },
  {
    "scheme": "na",
    "graph": "er:30:3",
    "d": 3,
    "n": 500,
    "K": 20,
    "r": 2,
    "p": 0.75,
    "q": 0.6,
    "trials": 3,
    "detections": 0,
    "p_hat": null,
    "ci_lo": null,
    "ci_hi": null,
    "mean_budget": null,
    "wall_time_ms": %d,
    "error": "graph has 30 nodes, cannot infect 500"
  }
]"""


@pytest.mark.parametrize("zero_timing, walls", [(False, (58, 1234, 0)), (True, (0, 0, 0))])
def test_golden_rendering(zero_timing, walls):
    rows = list(GOLDEN_ROWS)
    assert rows_to_csv(rows, zero_timing) == GOLDEN_CSV % walls
    assert rows_to_json(rows, zero_timing) == GOLDEN_JSON % walls


def test_row_reproducible_from_derived_seeds():
    # per-trial seeds are position-derived, so replaying the trials of a
    # row one by one must recover the aggregated detection count
    from rqsim.harness import _run_single_trial, _sweep_rows

    cfg = small_config(budgets=(15, 30), trials=9)
    rows = run_experiment(cfg)
    for row, swept in zip(rows, _sweep_rows(cfg, cfg.spec.d), strict=True):
        replayed = sum(_run_single_trial(cfg, [swept], t)[1][0][0] for t in range(cfg.trials))
        assert replayed == row.detections


def test_outcome_gives_every_candidate_a_predecessor_edge():
    from rqsim.diffusion import simulate_si
    from rqsim.estimators import NAConfig, run_mvna
    from rqsim.graphs import make_regular_tree
    from rqsim.respondent import TruthModel

    rng = np.random.default_rng(17)
    snap = simulate_si(make_regular_tree(3), 0, 30, rng)
    out = run_mvna(snap, NAConfig(budget=30, repetitions=2), TruthModel(p=0.8, q=0.8), rng)
    assert out.estimate in snap.index and out.budget_used <= 30
    assert set(out.predecessor_edges) == set(out.candidates)
    assert len(out.candidates) == 15


def test_default_worker_count_is_the_cpus_this_process_may_run_on(monkeypatch):
    from rqsim.harness import _resolve_workers

    monkeypatch.setenv("RQS_THREADS", "5")  # no longer read
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
    assert _resolve_workers(small_config(threads=None)) == 2
    assert _resolve_workers(small_config(threads=3)) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _resolve_workers(small_config(threads=None)) == 64
    assert _resolve_workers(small_config(threads=3)) == 3


def test_config_from_mapping_converts_by_flag_name():
    cfg = ExperimentConfig.from_mapping({
        "graph": "regular:3", "scheme": "ad", "k": [10, 20], "p": 1, "q": "0.5,0.75", "n": 30,
        "seed": 4, "fixed_graph": True, "r_mode": "fixed:2", "rstar": "necessary",
    })
    assert cfg == ExperimentConfig(
        graph="regular:3", scheme="ad", budgets=(10, 20), p_values=(1.0,), q_values=(0.5, 0.75),
        n_infected=30, master_seed=4, fixed_graph=True, r_mode="rstar:necessary",
    )
    assert type(cfg.p_values[0]) is float
    base = {"graph": "regular:3", "scheme": "na", "k": 10, "p": 0.8, "q": 0.8}
    for bad in ({"trials": 2.5}, {"threads": "2"}, {"fixed_graph": 0}, {"nodes": 30},
                {"r": "3"}, {"rstar": 5}, {"graph": 5}, {"p": ["0.8"]}):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig.from_mapping({**base, **bad})


def test_graph_spec_parsed_once_per_config(monkeypatch):
    import rqsim.harness

    cfg = small_config(graph="er:120:4", n_infected=20, trials=4)
    calls = []
    monkeypatch.setattr(rqsim.harness, "parse_graph_spec", lambda text: calls.append(text))
    rows = run_experiment(cfg)
    assert rows[0].error is None
    assert calls == []


@pytest.mark.parametrize("scheme", ["na", "ad"])
def test_likelihood_centre_found_once_per_trial(monkeypatch, scheme):
    """The harness finds a snapshot's likelihood centre once and hands it to
    every row; no estimator searches the full table for it again."""
    import rqsim.estimators
    import rqsim.harness
    from rqsim.centrality import pick_best

    full_scans = []

    def counting(scores, pool):
        if pool is scores:
            full_scans.append(len(scores))
        return pick_best(scores, pool)

    monkeypatch.setattr(rqsim.harness, "pick_best", counting)
    monkeypatch.setattr(rqsim.estimators, "pick_best", counting)
    cfg = small_config(graph="er:120:4", scheme=scheme, budgets=(0, 15, 30), n_infected=20, trials=3)
    rows = rqsim.harness._run_single_trial(cfg, rqsim.harness._sweep_rows(cfg, cfg.spec.d), 0)[1]
    assert all(isinstance(row, tuple) for row in rows)
    assert full_scans == [20]


@pytest.mark.parametrize("order", ["hop", "centrality"])
def test_estimators_given_the_centre_match_their_own_search(order):
    from rqsim.centrality import likelihood_table, pick_best
    from rqsim.diffusion import simulate_si
    from rqsim.estimators import ADConfig, NAConfig, run_mvad, run_mvna
    from rqsim.graphs import make_erdos_renyi
    from rqsim.respondent import TruthModel

    model = TruthModel(p=0.8, q=0.8)
    snap = simulate_si(make_erdos_renyi(150, 4.0, np.random.default_rng(8)), 0, 40, np.random.default_rng(9))
    table = likelihood_table(snap)
    centre = pick_best(table, table)
    na = NAConfig(budget=30, repetitions=1, candidate_order=order)
    for run, config in ((run_mvna, na), (run_mvad, ADConfig(budget=30, repetitions=1))):
        given_centre = run(snap, config, model, np.random.default_rng(3), scores=table, centre=centre)
        searched = run(snap, config, model, np.random.default_rng(3), scores=table)
        assert given_centre == searched


def test_import_loads_no_process_pool():
    """Neither ``import rqsim`` nor a 2-worker sweep loads
    ``multiprocessing`` or a process pool, and the sweep gives the 1-worker
    CSV."""
    script = """if True:
        import sys
        import rqsim
        print(sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)))
        def csv(threads):
            config = rqsim.ExperimentConfig(graph="er:300:4", scheme="ad", budgets=(0, 50),
                                            p_values=(0.8,), q_values=(0.8,), n_infected=60,
                                            trials=4, master_seed=5, threads=threads)
            return rqsim.rows_to_csv(rqsim.run_experiment(config), zero_timing=True)
        print(csv(2) == csv(1), bool({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(rqsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True False"]
