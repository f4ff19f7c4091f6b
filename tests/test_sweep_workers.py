"""Multi-worker sweeps: the calling process runs trials beside forked
children that claim them from one pipe.

Outputs and row errors must match a 1-worker sweep, the lowest failing
trial's error must win, a child that dies must fail the rows instead of
the sweep, and no child may outlive its sweep, however the sweep ends.
"""

import json
import os
import re
import select
import time
from dataclasses import replace

import pytest

import rqsim.graphs
import rqsim.harness
from rqsim.cli import main
from rqsim.harness import ExperimentConfig, rows_to_csv, rows_to_json, run_experiment

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked workers need os.fork")

DIED = "a forked sweep worker exited with status 3 before sending its trials"


def config(**overrides) -> ExperimentConfig:
    base = dict(graph="er:300:4", scheme="ad", budgets=(0, 50), p_values=(0.8,), q_values=(0.8,),
                n_infected=60, trials=6, master_seed=5, threads=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def json_at(cfg: ExperimentConfig, threads: int) -> str:
    """The sweep's zero-timing JSON (errors included) at ``threads`` workers."""
    return rows_to_json(run_experiment(replace(cfg, threads=threads)), True)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def trial_index(monkeypatch) -> list:
    """A one-entry list holding the index of the trial this process runs."""
    current = [None]
    real = rqsim.harness._run_single_trial

    def tagged(cfg, rows, t):
        current[0] = t
        return real(cfg, rows, t)

    monkeypatch.setattr(rqsim.harness, "_run_single_trial", tagged)
    return current


@pytest.fixture
def spread(monkeypatch):
    """Installs ``hook(pid_is_parent)`` to run before every ``simulate_si``."""
    parent = os.getpid()
    real = rqsim.harness.simulate_si

    def install(hook):
        def hooked(*args):
            hook(os.getpid() == parent)
            return real(*args)

        monkeypatch.setattr(rqsim.harness, "simulate_si", hooked)

    return install


def test_shared_failures_raise_the_lowest_trial_at_every_worker_count(monkeypatch, trial_index):
    real = rqsim.harness.simulate_si

    def failing(*args):
        if trial_index[0] in (1, 3):
            # Trial 1 fails last, after another worker has claimed and failed trial 3.
            time.sleep(0.3 if trial_index[0] == 1 else 0)
            raise RuntimeError(f"spread of trial {trial_index[0]} broke")
        return real(*args)

    monkeypatch.setattr(rqsim.harness, "simulate_si", failing)
    cfg = config()
    want = json_at(cfg, 1)
    assert {row["error"] for row in json.loads(want)} == {
        "trial 1 raised RuntimeError: spread of trial 1 broke"}
    for threads in (2, 3):
        assert json_at(cfg, threads) == want
        assert_no_children()


def test_a_row_failing_on_some_trials_fails_alike_at_every_worker_count(monkeypatch, trial_index):
    real = rqsim.harness.run_mvad

    def failing(snapshot, ad, *args, **kwargs):
        if ad.budget == 50 and trial_index[0] in (4, 2):
            raise RuntimeError(f"walk of trial {trial_index[0]} broke")
        return real(snapshot, ad, *args, **kwargs)

    monkeypatch.setattr(rqsim.harness, "run_mvad", failing)
    cfg = config(budgets=(0, 50, 20))
    want = json_at(cfg, 1)
    assert [row["error"] for row in json.loads(want)] == [
        None, "trial 2 raised RuntimeError: walk of trial 2 broke", None]
    for threads in (2, 3):
        assert json_at(cfg, threads) == want


def test_chunked_claims_match_one_worker(monkeypatch, trial_index):
    # A PIPE_BUF of 16 bytes queues 4 records, so 10 trials go in chunks of
    # 3; a failure in the last trial of a chunk still fails only its row.
    real = rqsim.harness.run_mvad

    def failing(snapshot, ad, *args, **kwargs):
        if ad.budget == 50 and trial_index[0] in (8, 5):
            raise RuntimeError("broke")
        return real(snapshot, ad, *args, **kwargs)

    monkeypatch.setattr(rqsim.harness, "run_mvad", failing)
    cfg = config(trials=10)
    want = json_at(cfg, 1)
    monkeypatch.setattr(select, "PIPE_BUF", 16)
    for threads in (2, 3, 8):
        assert json_at(cfg, threads) == want
    assert json.loads(want)[1]["error"] == "trial 5 raised RuntimeError: broke"


def test_children_are_reaped_after_a_successful_sweep():
    rows = run_experiment(config(trials=7, threads=3))
    assert rows_to_csv(rows, True) == rows_to_csv(run_experiment(config(trials=7)), True)
    assert_no_children()


def test_without_fork_every_trial_runs_in_the_calling_process(monkeypatch):
    want = rows_to_csv(run_experiment(config(trials=7)), True)
    monkeypatch.delattr(os, "fork")
    assert rows_to_csv(run_experiment(config(trials=7, threads=3)), True) == want


def test_children_are_reaped_after_the_shared_part_fails():
    # er:300:4 keeps under 300 nodes, so no trial can infect 400.
    rows = run_experiment(config(n_infected=400, threads=3))
    assert {row.error for row in rows} == {rows[0].error}
    assert re.fullmatch(r"graph has \d+ nodes, cannot infect 400", rows[0].error)
    assert_no_children()


def test_a_dead_child_fails_every_row(spread):
    def hook(in_parent):
        if not in_parent:
            os._exit(3)
        time.sleep(0.05)  # so that the child claims a trial before this process runs them all

    spread(hook)
    rows = run_experiment(config(trials=8, threads=2))
    assert [row.error for row in rows] == [DIED, DIED]
    assert_no_children()


def test_a_dead_child_gives_error_rows_from_the_cli(spread, capsys):
    spread(lambda in_parent: os._exit(3) if not in_parent else time.sleep(0.05))
    code = main(["simulate", "--graph", "er:300:4", "--scheme", "ad", "--k", "0,50", "--p", "0.8",
                 "--q", "0.8", "--n", "60", "--trials", "8", "--threads", "2", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    assert [row["error"] for row in json.loads(out)] == [DIED, DIED]
    assert_no_children()


def test_an_interrupt_in_the_callers_own_trial_propagates(spread):
    def hook(in_parent):
        if in_parent:
            raise KeyboardInterrupt
        time.sleep(0.2)  # so that this process claims a trial while the children run

    spread(hook)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config(trials=20, threads=3))
    assert_no_children()


def test_a_row_error_raised_in_a_child_keeps_its_traceback(monkeypatch, spread, caplog):
    real = rqsim.harness.run_mvad
    parent = os.getpid()

    def broken(snapshot, ad, *args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("boom")
        return real(snapshot, ad, *args, **kwargs)

    monkeypatch.setattr(rqsim.harness, "run_mvad", broken)
    spread(lambda in_parent: in_parent and time.sleep(0.05))
    with caplog.at_level("ERROR", logger="rqsim.harness"):
        rows = run_experiment(config(trials=8, threads=2))
    assert rows[0].error is None
    assert re.fullmatch(r"trial \d raised RuntimeError: boom", rows[1].error)
    assert sum(1 for rec in caplog.records if rec.exc_info) == 1
    assert 'raise RuntimeError("boom")' in caplog.text


def test_a_pinned_graph_is_built_once_per_multi_worker_sweep(monkeypatch, tmp_path):
    builds = tmp_path / "builds"
    real = rqsim.graphs.make_scale_free

    def recording(*args):
        with open(builds, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(rqsim.graphs, "make_scale_free", recording)
    rqsim.harness._pinned_graph.cache_clear()
    cfg = config(graph="sf:600:6", fixed_graph=True, n_infected=100, trials=6)
    got = json_at(cfg, 3)
    assert builds.read_text(encoding="ascii").splitlines() == [str(os.getpid())]
    rqsim.harness._pinned_graph.cache_clear()
    assert got == json_at(cfg, 1)


def test_every_trial_runs_once_with_more_workers_than_cores(monkeypatch, tmp_path):
    # 3000 short trials over six workers, claimed in chunks of three: a
    # claim lost or taken twice would drop or repeat an index in the log.
    ran = tmp_path / "ran"
    real = rqsim.harness._run_single_trial

    def logged(cfg, rows, t):
        with open(ran, "a", encoding="ascii") as fh:
            fh.write(f"{t}\n")
        return real(cfg, rows, t)

    monkeypatch.setattr(rqsim.harness, "_run_single_trial", logged)
    cfg = config(graph="regular:3", scheme="na", budgets=(0,), n_infected=5, trials=3000)
    got = json_at(cfg, 6)
    assert sorted(map(int, ran.read_text(encoding="ascii").split())) == list(range(3000))
    assert got == json_at(cfg, 1)
    assert_no_children()


def test_a_failed_fork_raises_and_leaves_no_child_or_pipe(monkeypatch):
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError):
        run_experiment(config(trials=7, threads=3))
    assert_no_children()
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds
