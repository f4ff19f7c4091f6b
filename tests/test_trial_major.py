"""Trial-major sweeps: one snapshot and one likelihood table per trial.

``reference_harness._run_single_trial`` is the per-(row, trial) trial the
harness ran before every row of a trial shared one snapshot. The snapshot
is drawn from row 0's old stream and row 0 keeps drawing its answers from
it, so a single-row sweep, and row 0 of any sweep, must reproduce the old
runner exactly.
"""

import logging
import pickle
import types
from dataclasses import replace

import pytest

import rqsim.estimators
import rqsim.harness
from reference_harness import _run_single_trial as reference_trial
from rqsim.errors import TrialError
from rqsim.harness import ExperimentConfig, _run_single_trial, _sweep_rows, run_experiment


def sweep_config(graph: str, scheme: str, **overrides) -> ExperimentConfig:
    base = dict(
        graph=graph,
        scheme=scheme,
        budgets=(20, 0, 8),
        p_values=(0.75, 1.0),
        q_values=(0.8,),
        n_infected=30,
        trials=5,
        master_seed=11,
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def reference_row(cfg: ExperimentConfig, K: int, r: int, p: float, q: float) -> tuple[int, float]:
    """(detections, mean_budget) of row 0 (K, r, p, q) under the old runner."""
    results = [reference_trial(cfg, 0, K, r, p, q, t) for t in range(cfg.trials)]
    return sum(det for det, _ in results), sum(used for _, used in results) / cfg.trials


@pytest.fixture
def ring_edgelist(tmp_path):
    # 200-node ring, each node joined to its 3 nearest on either side.
    n = 200
    path = tmp_path / "ring.txt"
    path.write_text("".join(f"{u} {(u + k) % n}\n" for u in range(n) for k in range(1, 4)))
    return f"edgelist:{path}"


GRAPHS = [
    ("regular:3", False),
    ("gw:6", False),
    ("er:120:4", False),
    ("sf:120:1.5", False),
    ("er:120:4", True),
    ("ring", False),
]


@pytest.mark.parametrize("scheme", ["na", "ad"])
@pytest.mark.parametrize("graph, fixed_graph", GRAPHS)
def test_single_row_sweeps_and_row_zero_match_row_major_runner(
    graph, fixed_graph, scheme, ring_edgelist
):
    graph = ring_edgelist if graph == "ring" else graph
    cfg = sweep_config(graph, scheme, fixed_graph=fixed_graph)
    rows = run_experiment(cfg)
    assert len(rows) == 6 and all(row.error is None for row in rows)

    head = rows[0]
    assert head.K > 0  # row 0 queries, so its answer stream is checked too
    assert (head.detections, head.mean_budget) == reference_row(cfg, head.K, head.r, head.p, head.q)

    for row in rows:
        one = replace(cfg, budgets=(row.K,), p_values=(row.p,), q_values=(row.q,))
        (single,) = run_experiment(one)
        assert single.error is None and single.r == row.r
        assert (single.detections, single.mean_budget) == reference_row(
            one, row.K, row.r, row.p, row.q
        )


@pytest.mark.parametrize("scheme", ["na", "ad"])
def test_row_zero_matches_row_major_runner_trial_by_trial(scheme):
    cfg = sweep_config("er:120:4", scheme)
    rows = _sweep_rows(cfg, cfg.spec.d)
    row_index, K, r, model, _ = rows[0]
    for t in range(cfg.trials):
        _, outcomes = _run_single_trial(cfg, rows, t)
        assert outcomes[0][:2] == reference_trial(cfg, row_index, K, r, model.p, model.q, t)


@pytest.mark.parametrize("graph", ["regular:3", "sf:120:1.5"])
def test_rows_do_not_disturb_each_other(graph):
    # Each row's outcome in a shared trial is the one it gets alone.
    cfg = sweep_config(graph, "ad", budgets=(20, 0, 8, 30))
    rows = _sweep_rows(cfg, cfg.spec.d)
    for t in range(cfg.trials):
        _, outcomes = _run_single_trial(cfg, rows, t)
        for row, outcome in zip(rows, outcomes):
            assert _run_single_trial(cfg, [row], t)[1][0][:2] == outcome[:2]


@pytest.mark.parametrize("scheme", ["na", "ad"])
def test_k0_rows_build_no_stream(monkeypatch, scheme):
    # Every row of a K = 0 grid takes the centre, so each trial builds its
    # shared stream (master, 0, t) and no other.
    streams = []
    real = rqsim.harness._stream
    monkeypatch.setattr(rqsim.harness, "_stream",
                        lambda config, row, trial: streams.append((row, trial)) or real(config, row, trial))
    cfg = sweep_config("regular:3", scheme, budgets=(0,), p_values=(0.7, 0.8), q_values=(0.6, 0.8))
    rows = run_experiment(cfg)
    assert len(rows) == 4 and all(row.error is None for row in rows)
    assert streams == [(0, t) for t in range(cfg.trials)]


@pytest.mark.parametrize("graph", ["regular:3", "er:120:4"])
def test_each_row_is_built_once_per_sweep(monkeypatch, graph):
    # A row's truth model and estimator configuration are built when the
    # sweep's rows are, not again in each trial.
    built = []

    def counting(cls):
        def construct(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)
        return construct

    cfg = sweep_config(graph, "na", q_values=(0.6, 0.8))  # budgets 20, 0, 8
    monkeypatch.setattr(rqsim.harness, "NAConfig", counting(rqsim.harness.NAConfig))
    monkeypatch.setattr(rqsim.harness, "TruthModel", counting(rqsim.harness.TruthModel))
    rows = run_experiment(cfg)
    assert len(rows) == 12 and all(row.error is None for row in rows)
    assert sorted(built) == ["NAConfig"] * 8 + ["TruthModel"] * 12


@pytest.mark.parametrize("scheme", ["na", "ad"])
def test_each_trial_simulates_and_scores_once(monkeypatch, scheme):
    calls = {"simulate": 0, "score": 0, "estimator_score": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rqsim.harness, "simulate_si",
                        counted("simulate", rqsim.harness.simulate_si))
    monkeypatch.setattr(rqsim.harness, "likelihood_table",
                        counted("score", rqsim.harness.likelihood_table))
    monkeypatch.setattr(rqsim.estimators, "likelihood_table",
                        counted("estimator_score", rqsim.estimators.likelihood_table))
    cfg = sweep_config("er:120:4", scheme, trials=4)
    rows = run_experiment(cfg)
    assert len(rows) == 6 and all(row.error is None for row in rows)
    assert calls == {"simulate": cfg.trials, "score": cfg.trials, "estimator_score": 0}


def test_schemes_with_one_master_seed_share_snapshots(monkeypatch):
    seen = []
    real_simulate = rqsim.harness.simulate_si

    def recording(*args):
        snapshot = real_simulate(*args)
        seen.append(snapshot.infected)
        return snapshot

    monkeypatch.setattr(rqsim.harness, "simulate_si", recording)
    run_experiment(sweep_config("sf:120:1.5", "na"))
    na = list(seen)
    seen.clear()
    run_experiment(sweep_config("sf:120:1.5", "ad", budgets=(30,)))
    assert seen == na and len(na) == 5


def test_wall_time_is_own_time_plus_equal_share_of_shared_time(monkeypatch):
    # A clock that advances one second per reading: each trial's shared
    # part and each row's estimate then take exactly one second.
    ticks = iter(range(10**6))
    clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(rqsim.harness, "time", clock)
    cfg = sweep_config("regular:3", "na", budgets=(20, 0, 8), p_values=(0.75,))
    rows = run_experiment(cfg)
    expected = cfg.trials * (1 + 1 / 3) * 1000.0
    assert [row.wall_time_ms for row in rows] == pytest.approx([expected] * 3)


def test_row_error_from_a_pool_worker_keeps_its_traceback(monkeypatch, caplog):
    real_run = rqsim.harness.run_mvad

    def broken(snapshot, config, *args, **kwargs):
        if config.budget == 8:
            raise RuntimeError("boom")
        return real_run(snapshot, config, *args, **kwargs)

    monkeypatch.setattr(rqsim.harness, "run_mvad", broken)
    cfg = sweep_config("er:120:4", "ad", p_values=(0.75,), threads=2)
    with caplog.at_level(logging.ERROR, logger="rqsim.harness"):
        rows = run_experiment(cfg)
    assert [row.error is None for row in rows] == [True, True, False]
    assert rows[2].error == "trial 0 raised RuntimeError: boom"
    tracebacks = [rec.getMessage() for rec in caplog.records if "Traceback" in rec.getMessage()]
    assert len(tracebacks) == 1 and 'raise RuntimeError("boom")' in tracebacks[0]


def test_trial_error_pickles_with_its_cause():
    def boom():
        raise RuntimeError("boom")

    try:
        boom()
    except RuntimeError as exc:
        err = rqsim.harness._failure(3, exc)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TrialError and back.args == ("trial 3 raised RuntimeError: boom",)
    assert back.traceback == err.traceback
    assert 'raise RuntimeError("boom")' in back.traceback
