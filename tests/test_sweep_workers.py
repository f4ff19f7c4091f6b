"""Multi-worker sweeps: the calling process runs trials beside forked
children that claim them from one pipe, in the loop that a 1-worker
sweep runs over one claim of every trial.

Outputs and row errors must match a 1-worker sweep, the lowest failing
trial's error must win, a child that dies must fail the rows instead of
the sweep, and no child may outlive its sweep, however the sweep ends.
"""

import collections
import gc
import json
import os
import re
import select
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqsim.harness
from rqsim.cli import main
from rqsim.graphs import Graph
from rqsim.harness import ExperimentConfig, _resolve_r, rows_to_csv, rows_to_json, run_experiment

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


def test_a_one_worker_sweep_stops_at_its_first_failing_trial(monkeypatch):
    # The shared part fails on trial 3 of 10: at 1 worker trials 0 to 3
    # run and no later one starts, and the rows are those of forked sweeps.
    ran = []
    real_trial, real_spread = rqsim.harness._run_single_trial, rqsim.harness.simulate_si

    def recorded(cfg, rows, t):
        ran.append(t)
        return real_trial(cfg, rows, t)

    def failing(*args):
        if ran[-1] == 3:
            raise RuntimeError("spread of trial 3 broke")
        return real_spread(*args)

    monkeypatch.setattr(rqsim.harness, "_run_single_trial", recorded)
    monkeypatch.setattr(rqsim.harness, "simulate_si", failing)
    cfg = config(trials=10)
    want = json_at(cfg, 1)
    assert ran == [0, 1, 2, 3]
    assert {row["error"] for row in json.loads(want)} == {
        "trial 3 raised RuntimeError: spread of trial 3 broke"}
    for threads in (2, 3):
        assert json_at(cfg, threads) == want
        assert_no_children()


@settings(max_examples=10, deadline=None)
@given(
    graph=st.sampled_from(["regular:3", "er:120:4"]),
    scheme=st.sampled_from(["na", "ad"]),
    budgets=st.lists(st.sampled_from([0, 5, 20]), min_size=1, max_size=3, unique=True),
    q_values=st.lists(st.sampled_from([0.3, 0.8]), min_size=1, max_size=2, unique=True),
    n_infected=st.integers(1, 30),
    trials=st.integers(1, 9),
    master_seed=st.integers(0, 2**63),
)
def test_the_worker_count_never_shows_in_the_rows(**sweep):
    # On regular:3 every row that queries at q = 0.3 <= 1/3 fails.
    cfg = config(**sweep)
    want = json_at(cfg, 1)
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


def test_an_uninformative_q_fails_its_row_alike_at_every_worker_count(caplog):
    # q = 0.05 is at most 1/d for every er:300:4 graph, so each na row that
    # queries at that q raises the respondent's own InvalidParameterError;
    # the K = 0 row at that q asks nothing and completes.
    cfg = config(scheme="na", q_values=(0.05, 0.8))
    with caplog.at_level("ERROR", logger="rqsim.harness"):
        want = json_at(cfg, 1)
    rows = json.loads(want)
    assert [(row["K"], row["q"]) for row in rows] == [(0, 0.05), (0, 0.8), (50, 0.05), (50, 0.8)]
    assert re.fullmatch(r"q=0\.05 is uninformative for degree \d+ \(needs q > [\d.]+\)",
                        rows[2]["error"])
    for row in (rows[0], rows[1], rows[3]):
        assert row["error"] is None and row["p_hat"] is not None
    # The failed row keeps the r it resolved before the first trial.
    assert rows[2]["r"] == _resolve_r(cfg, 50, rows[2]["d"], 0.8, 0.05) == rows[3]["r"]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"row 2 (K=50, p=0.8, q=0.05) failed: {rows[2]['error']}"]
    assert json_at(cfg, 2) == want


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
    tracebacks = [rec.getMessage() for rec in caplog.records if "Traceback" in rec.getMessage()]
    assert len(tracebacks) == 1 and 'raise RuntimeError("boom")' in tracebacks[0]


@pytest.mark.parametrize("shared", [False, True], ids=["row", "shared"])
def test_one_failure_logs_one_text_at_every_worker_count(
    monkeypatch, spread, trial_index, caplog, shared
):
    # A RuntimeError in a forked child's trial, then the same one raised at
    # that trial in a 1-worker sweep: one error row and one log text.
    parent = os.getpid()
    failing = []  # the trial to fail at in the 1-worker sweep, once known

    def boom(in_parent):
        if (trial_index[0] in failing) if failing else not in_parent:
            raise RuntimeError("boom")

    def hook(in_parent):
        if shared:
            boom(in_parent)
        if in_parent and not failing:
            time.sleep(0.05)  # so that the child claims a trial

    spread(hook)
    real = rqsim.harness.run_mvad

    def estimator(snapshot, ad, *args, **kwargs):
        boom(os.getpid() == parent)
        return real(snapshot, ad, *args, **kwargs)

    if not shared:
        monkeypatch.setattr(rqsim.harness, "run_mvad", estimator)

    def sweep(threads: int) -> tuple[list, str]:
        caplog.clear()
        with caplog.at_level("ERROR", logger="rqsim.harness"):
            rows = run_experiment(config(trials=8, threads=threads))
        return [row.error for row in rows], caplog.text

    forked = sweep(2)
    assert_no_children()
    failing.append(int(re.fullmatch(r"trial (\d) raised RuntimeError: boom", forked[0][1])[1]))
    assert forked[0][0] == (forked[0][1] if shared else None)
    assert sweep(1) == forked
    assert forked[1].count("Traceback") == 1 and 'raise RuntimeError("boom")' in forked[1]


@pytest.mark.parametrize("unexpected", [False, True], ids=["generator", "unexpected"])
def test_a_pinned_graph_whose_build_fails_fails_alike_at_every_worker_count(
    monkeypatch, caplog, unexpected
):
    # er:10:0.01 has no component of 2 nodes, so the pinned build fails: in
    # trial 0 at 1 worker, and before the first fork at 2 and 3 workers.  A
    # build that raises an unexpected exception logs one traceback text alike.
    def no_fork():
        raise AssertionError("the sweep forked")

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(os, "fork", no_fork)
    if unexpected:
        monkeypatch.setattr(rqsim.harness, "_build_graph", broken)
    error = ("trial 0 raised RuntimeError: boom" if unexpected
             else "largest component has fewer than 2 nodes")
    cfg = config(graph="er:10:0.01", fixed_graph=True, scheme="na", n_infected=5)
    outputs, logs = [], []
    for threads in (1, 2, 3):
        caplog.clear()
        with caplog.at_level("ERROR", logger="rqsim.harness"):
            outputs.append(json_at(cfg, threads))
        logs.append([rec.getMessage() for rec in caplog.records])
        assert_no_children()
    assert outputs[1:] == outputs[:1] * 2
    assert logs[1:] == logs[:1] * 2 and len(logs[0]) == 1
    assert logs[0][0].startswith(f"every row failed: {error}")
    assert ('raise RuntimeError("boom")' in logs[0][0]) == unexpected
    rows = json.loads(outputs[0])
    assert {row["error"] for row in rows} == {error}
    assert [row["r"] for row in rows] == [0, _resolve_r(cfg, 50, rows[1]["d"], 0.8, 0.8)]


def test_a_pinned_graph_is_built_once_per_multi_worker_sweep(monkeypatch, tmp_path):
    # One build per sweep, in this process, at every worker count; a forked
    # sweep builds before its first trial, so that every child inherits it.
    events = tmp_path / "events"

    def log(event):
        with open(events, "a", encoding="ascii") as fh:
            fh.write(f"{event} {os.getpid()}\n")

    real_build, real_trial = rqsim.harness._build_graph, rqsim.harness._run_single_trial
    monkeypatch.setattr(rqsim.harness, "_build_graph",
                        lambda *args: log("build") or real_build(*args))
    monkeypatch.setattr(rqsim.harness, "_run_single_trial",
                        lambda cfg, rows, t: log(f"trial {t}") or real_trial(cfg, rows, t))
    edges = tmp_path / "ring.txt"
    edges.write_text("".join(f"{v} {(v + 1) % 200}\n{v} {(v + 7) % 200}\n" for v in range(200)))
    for cfg in (config(graph="sf:600:6", fixed_graph=True, n_infected=100, trials=6),
                config(graph=f"edgelist:{edges}", n_infected=100, trials=6)):
        outputs = []
        for threads in (1, 2, 3):
            events.unlink(missing_ok=True)
            outputs.append(json_at(cfg, threads))
            lines = events.read_text(encoding="ascii").splitlines()
            assert [line for line in lines if line.startswith("build")] == [f"build {os.getpid()}"]
            if threads > 1 or cfg.spec.family == "edgelist":
                assert lines[0].startswith("build")
        assert outputs[1:] == outputs[:1] * 2


def test_pinned_sweeps_side_by_side_each_build_their_own_graph_once(monkeypatch):
    # Two 1-worker pinned sweeps in two threads of one process take their
    # trials in lockstep: each holds its own graph, and neither evicts the
    # other's, so each builds once and matches its lone run.
    cfgs = [config(graph="sf:600:6", fixed_graph=True, trials=8, master_seed=seed)
            for seed in (1, 2)]
    alone = [json_at(cfg, 1) for cfg in cfgs]
    builds = collections.Counter()
    lockstep = threading.Barrier(2, timeout=60)
    real_build, real_trial = rqsim.harness._build_graph, rqsim.harness._run_single_trial

    def build(*args):
        builds[threading.current_thread().name] += 1
        return real_build(*args)

    def trial(*args):
        lockstep.wait()
        return real_trial(*args)

    monkeypatch.setattr(rqsim.harness, "_build_graph", build)
    monkeypatch.setattr(rqsim.harness, "_run_single_trial", trial)
    got = [None, None]

    def sweep(i):
        try:
            got[i] = json_at(cfgs[i], 1)
        except BaseException:
            lockstep.abort()  # so that the other sweep does not wait for this one
            raise

    workers = [threading.Thread(target=sweep, args=(i,), name=f"sweep {i}") for i in (0, 1)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert got == alone
    assert [builds["sweep 0"], builds["sweep 1"]] == [1, 1]


def test_no_pinned_graph_outlives_its_sweep(tmp_path):
    # Sweeps whose configs are kept: once each returns, neither its config
    # nor any module holds the graph it built or loaded.
    def live_graphs() -> set[int]:
        gc.collect()
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, Graph)}

    edges = tmp_path / "ring.txt"
    edges.write_text("".join(f"{v} {(v + 1) % 200}\n{v} {(v + 7) % 200}\n" for v in range(200)))
    before = live_graphs()
    kept = [config(graph=graph, fixed_graph=True, trials=4, threads=threads)
            for graph in ("sf:600:6", "gw:6", f"edgelist:{edges}") for threads in (1, 2)]
    for cfg in kept:
        assert all(row.error is None for row in run_experiment(cfg))
        assert "pinned_graph" not in vars(cfg)
    assert live_graphs() <= before
    # A sweep whose trials build their own graphs pins none.
    assert config().pinned_graph is None
    assert config(graph="regular:3", fixed_graph=True).pinned_graph is None


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
