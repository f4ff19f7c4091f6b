"""Seeded Monte Carlo experiment runner with parameter sweeps.

Sweeps run trial-major: trial t draws one graph, source and snapshot from
stream (master seed, 0, t), scores it once, and every (K, p, q) row then
queries that snapshot.  Row 0 draws its answers from the same stream, row
i >= 1 from stream (master seed, i, t); streams are
``numpy.random.SeedSequence`` spawn keys.  So results are independent of
execution order and degree of parallelism, replaying a trial from its
streams reproduces it exactly, and comparisons are paired: all rows see
the same snapshots trial for trial, and so do ``na`` and ``ad`` sweeps
with the same master seed.  A single-row sweep, and row 0 of any sweep,
draw exactly what they drew when each row built its own snapshots.

Random graph families are regenerated every trial from the trial stream;
``fixed_graph`` pins one instance derived from the master seed instead.
Edge-list graphs are always loaded once.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pickle
import time
from contextlib import suppress
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from . import graphs as _graphs
from .budget import choose_r_star
from .centrality import likelihood_table, pick_best
from .diffusion import simulate_si
from .errors import InvalidParameterError, RQSimError, TrialError
from .estimators import ADConfig, NAConfig, check_candidate_order, run_mvad, run_mvna
from .respondent import TruthModel

logger = logging.getLogger(__name__)

#: Spawn key reserved for deriving a pinned graph instance (length-1 keys
#: never collide with the length-2 (row, trial) stream keys).
_GRAPH_SPAWN_KEY = (0x67726166,)

#: Default tree size multiple for branching-process graphs, relative to
#: the infection target, so the diffusion rarely hits the truncated rim.
_GW_SIZE_FACTOR = 4


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParameterError(f"successes must be in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class GraphSpec:
    """Parsed graph family descriptor (see :func:`parse_graph_spec`)."""

    family: str  # regular | gw | er | sf | edgelist
    d: int = 0
    d_max: int = 0
    n_nodes: int = 0
    avg_degree: float = 0.0
    edge_node_ratio: float = 0.0
    min_nodes: int = 0
    path: str = ""


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse ``regular:3``, ``gw:10[:min_nodes]``, ``er:n:avg_deg``,
    ``sf:n:ratio``, or ``edgelist:path``, with their generators' checks."""
    parts = text.split(":")
    family = parts[0]
    try:
        if family == "regular" and len(parts) == 2:
            d = int(parts[1])
            _graphs.RegularTree(d)  # its degree check
            return GraphSpec(family="regular", d=d)
        if family == "gw" and len(parts) in (2, 3):
            d_max = int(parts[1])
            min_nodes = int(parts[2]) if len(parts) == 3 else 0  # 0: sized from n_infected
            _graphs.check_galton_watson(d_max, min_nodes or 1)
            return GraphSpec(family="gw", d_max=d_max, min_nodes=min_nodes)
        if family == "er" and len(parts) == 3:
            n, avg = int(parts[1]), float(parts[2])
            _graphs.check_erdos_renyi(n, avg)
            return GraphSpec(family="er", n_nodes=n, avg_degree=avg)
        if family == "sf" and len(parts) == 3:
            n, ratio = int(parts[1]), float(parts[2])
            _graphs.check_scale_free(n, ratio)
            return GraphSpec(family="sf", n_nodes=n, edge_node_ratio=ratio)
        if family == "edgelist" and len(parts) >= 2:
            return GraphSpec(family="edgelist", path=text.split(":", 1)[1])
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse graph spec {text!r}: {exc}") from None
    raise InvalidParameterError(f"cannot parse graph spec {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: trials per (budget, p, q) combination on one graph family."""

    graph: str
    scheme: str  # "na" | "ad"
    budgets: tuple[int, ...]
    p_values: tuple[float, ...]
    q_values: tuple[float, ...]
    n_infected: int = 400
    r_mode: str = "rstar:sufficient"  # or "fixed:<r>"
    trials: int = 200
    master_seed: int = 0
    fixed_graph: bool = False
    candidate_order: str = "hop"
    threads: int | None = None

    @classmethod
    def from_mapping(cls, options: Mapping[str, object]) -> "ExperimentConfig":
        """A sweep from ``simulate``'s options, keyed by flag name (``k`` for
        ``--k``, ``candidate_order`` for ``--candidate-order``).

        ``k``, ``p`` and ``q`` take a number, a list, or the flags'
        comma-separated text.  ``r`` (a fixed count) beats ``rstar`` (a
        closed form), which beats ``r_mode``.  An unknown key or a value of
        the wrong type raises InvalidParameterError; a missing ``graph``,
        ``scheme``, ``k``, ``p`` or ``q`` raises TypeError, as the constructor does.
        """
        unknown = sorted(set(options) - set(_OPTIONS))
        if unknown:
            raise InvalidParameterError(f"unknown option(s): {', '.join(unknown)}")
        # In _OPTIONS order, so that r beats rstar beats r_mode.
        return cls(**{
            _OPTIONS[key][0]: _option(key, options[key]) for key in _OPTIONS if key in options
        })

    @cached_property
    def spec(self) -> GraphSpec:
        """``graph``, parsed."""
        return parse_graph_spec(self.graph)

    @cached_property
    def r_rule(self) -> tuple[str, str | int]:
        """``r_mode``, parsed: ("fixed", r) or ("rstar", kind)."""
        parts = self.r_mode.split(":")
        if len(parts) == 2 and parts[0] == "rstar" and parts[1] in ("necessary", "sufficient"):
            return "rstar", parts[1]
        if len(parts) == 2 and parts[0] == "fixed":
            try:
                r = int(parts[1])
            except ValueError:
                raise InvalidParameterError(f"bad r mode {self.r_mode!r}") from None
            if r < 1:
                raise InvalidParameterError(f"fixed r must be >= 1, got {r}")
            return "fixed", r
        raise InvalidParameterError(
            f"bad r mode {self.r_mode!r} (use 'fixed:<r>' or 'rstar:<kind>')"
        )

    def __post_init__(self):
        if self.scheme not in ("na", "ad"):
            raise InvalidParameterError(f"scheme must be 'na' or 'ad', got {self.scheme!r}")
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials}")
        if self.threads is not None and self.threads < 1:
            raise InvalidParameterError(f"threads must be >= 1, got {self.threads}")
        if self.n_infected < 1:
            raise InvalidParameterError(f"n_infected must be >= 1, got {self.n_infected}")
        if not self.budgets:
            raise InvalidParameterError("at least one budget value is required")
        if not self.p_values or not self.q_values:
            raise InvalidParameterError("at least one p value and one q value are required")
        if any(k < 0 for k in self.budgets):
            raise InvalidParameterError("budgets must be nonnegative (0 = no-query baseline)")
        if self.master_seed < 0:
            raise InvalidParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        check_candidate_order(self.candidate_order)
        for p, q in product(self.p_values, self.q_values):
            TruthModel(p, q)  # its range checks; q > 1/d needs the graph, so each trial checks it
        self.spec, self.r_rule  # parse and check both once; later reads hit the cache


#: ``simulate``'s options by flag name: the config field each one sets and
#: its value type (of each element for ``k``, ``p`` and ``q``).
_OPTIONS = {
    "graph": ("graph", str),
    "scheme": ("scheme", str),
    "k": ("budgets", int),
    "p": ("p_values", float),
    "q": ("q_values", float),
    "n": ("n_infected", int),
    "trials": ("trials", int),
    "seed": ("master_seed", int),
    "candidate_order": ("candidate_order", str),
    "fixed_graph": ("fixed_graph", bool),
    "threads": ("threads", int),
    "r_mode": ("r_mode", str),
    "rstar": ("r_mode", str),
    "r": ("r_mode", int),
}


def _typed(key: str, value, kind: type):
    # JSON and argparse hand over typed values; only an int widens, to a float.
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise InvalidParameterError(f"option {key!r} must be of type {kind.__name__}, got {value!r}")


def _option(key: str, value):
    """The config field value of option ``key``."""
    kind = _OPTIONS[key][1]
    if key not in ("k", "p", "q"):
        value = _typed(key, value, kind)
        return {"r": f"fixed:{value}", "rstar": f"rstar:{value}"}.get(key, value)
    if isinstance(value, str):  # the flags' comma-separated text
        try:
            return tuple(kind(x) for x in value.split(","))
        except ValueError:
            raise InvalidParameterError(f"option {key!r}: cannot parse {value!r}") from None
    items = value if isinstance(value, (list, tuple)) else [value]
    return tuple(_typed(key, x, kind) for x in items)


@dataclass
class ResultRow:
    """Aggregated outcome for one parameter combination."""

    scheme: str
    graph: str
    d: int
    n: int
    K: int
    r: int
    p: float
    q: float
    trials: int
    detections: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    mean_budget: float
    wall_time_ms: float
    error: str | None = None


CSV_COLUMNS = ",".join(f.name for f in fields(ResultRow) if f.name != "error")


def effective_degree(spec: GraphSpec, graph=None) -> int:
    """Degree fed to the closed-form r*/budget formulas.

    Exact for regular trees; for other families a representative value:
    the branching cap, or the (rounded) average degree, floored at 3.  An
    edge-list family is measured on its loaded ``graph``.
    """
    if spec.family == "regular":
        return spec.d
    if spec.family == "gw":
        return max(3, spec.d_max)
    if spec.family == "er":
        return max(3, round(spec.avg_degree))
    if spec.family == "sf":
        return max(3, round(2 * spec.edge_node_ratio))
    return max(3, round(graph.avg_degree()))


def _build_graph(spec: GraphSpec, n_infected: int, rng: np.random.Generator):
    if spec.family == "regular":
        return _graphs.make_regular_tree(spec.d)
    if spec.family == "gw":
        min_nodes = spec.min_nodes or _GW_SIZE_FACTOR * n_infected
        return _graphs.make_galton_watson(spec.d_max, min_nodes, rng)
    if spec.family == "er":
        return _graphs.make_erdos_renyi(spec.n_nodes, spec.avg_degree, rng)
    if spec.family == "sf":
        return _graphs.make_scale_free(spec.n_nodes, spec.edge_node_ratio, rng)
    return _graphs.load_edge_list(spec.path)


@lru_cache(maxsize=1)
def _pinned_graph(spec: GraphSpec, master_seed: int, n_infected: int):
    """The one graph instance a pinned or edge-list sweep uses, built once per process."""
    pin_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=_GRAPH_SPAWN_KEY)
    )
    return _build_graph(spec, n_infected, pin_rng)


def _pins_graph(config: ExperimentConfig) -> bool:
    """Whether every trial of ``config`` uses the one graph of ``_pinned_graph``."""
    spec = config.spec
    return spec.family == "edgelist" or (config.fixed_graph and spec.family != "regular")


def _graph_for_trial(config: ExperimentConfig, rng: np.random.Generator):
    if _pins_graph(config):
        return _pinned_graph(config.spec, config.master_seed, config.n_infected)
    return _build_graph(config.spec, config.n_infected, rng)


#: A sweep row as a trial sees it: (row index, K, r, p, q).
SweepRow = tuple[int, int, int, float, float]

#: A row's outcome in one trial: (detected, budget_used, seconds spent on
#: its queries and estimate), or the RQSimError the row raised.
RowOutcome = tuple[int, int, float] | RQSimError

#: A trial's outcome: the seconds of its shared part, and each row's outcome.
TrialResult = tuple[float, list[RowOutcome]]


def _stream(config: ExperimentConfig, row_index: int, trial_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(row_index, trial_index))
    return np.random.default_rng(seq)


def _run_single_trial(
    config: ExperimentConfig, rows: list[SweepRow], trial_index: int
) -> TrialResult:
    """One trial of every row in ``rows``, all on one snapshot.

    The graph, source and snapshot are drawn from stream (master, 0,
    trial) and scored once, and the likelihood centre is found once for
    every row.  Row 0 goes on drawing its answers from that stream; row
    i >= 1 draws them from stream (master, i, trial).  Returns
    the seconds the shared build, simulation and scoring took, and each
    row's outcome.  A row that raises fails alone (an unexpected exception
    becomes a TrialError); a failure in the shared part raises.
    """
    t0 = time.perf_counter()
    rng = _stream(config, 0, trial_index)
    graph = _graph_for_trial(config, rng)

    if graph.is_finite:
        if graph.n < config.n_infected:
            raise RQSimError(
                f"graph has {graph.n} nodes, cannot infect {config.n_infected}"
            )
        source = int(rng.integers(graph.n))
    else:
        # Uniform choice is equivalent to the root on a vertex-transitive tree.
        source = 0
    snapshot = simulate_si(graph, source, config.n_infected, rng)
    table = likelihood_table(snapshot)
    centre = pick_best(table, table)
    shared_s = time.perf_counter() - t0

    outcomes: list[RowOutcome] = []
    for row in rows:
        t1 = time.perf_counter()
        try:
            row_rng = rng if row[0] == 0 else _stream(config, row[0], trial_index)
            estimate, used = _estimate(config, snapshot, table, centre, row, row_rng)
        except RQSimError as exc:
            outcomes.append(exc)
        except Exception as exc:  # the row boundary: the other rows go on
            outcomes.append(_trial_error(trial_index, exc))
        else:
            outcomes.append((int(estimate == source), used, time.perf_counter() - t1))
    return shared_s, outcomes


def _estimate(
    config: ExperimentConfig, snapshot, table, centre: int, row: SweepRow, rng: np.random.Generator
) -> tuple[int, int]:
    """(estimate, budget_used) of one row's estimator on a scored snapshot
    whose likelihood table ``table`` peaks at ``centre``."""
    _, K, r, p, q = row
    if K == 0:
        return centre, 0
    model = TruthModel(p=p, q=q)
    if config.scheme == "na":
        na = NAConfig(budget=K, repetitions=r, candidate_order=config.candidate_order)
        outcome = run_mvna(snapshot, na, model, rng, scores=table, centre=centre)
    else:
        outcome = run_mvad(snapshot, ADConfig(budget=K, repetitions=r), model, rng, scores=table, centre=centre)
    return outcome.estimate, outcome.budget_used


def _trial_error(trial_index: int, exc: Exception) -> TrialError:
    # Streams (master, 0, trial) and (master, row, trial) replay exactly this trial.
    err = TrialError(f"trial {trial_index} raised {type(exc).__name__}: {exc}")
    err.__cause__ = exc
    return err


def _in_trial(trial_index: int, fn, *args):
    """``fn(*args)``, with an unexpected exception raised as trial
    ``trial_index``'s TrialError."""
    try:
        return fn(*args)
    except RQSimError:
        raise
    except Exception as exc:
        raise _trial_error(trial_index, exc) from exc


def _resolve_workers(config: ExperimentConfig) -> int:
    """The config's worker count, else ``RQS_THREADS`` (an integer >= 1),
    else every core."""
    if config.threads is not None:
        return config.threads
    env = os.environ.get("RQS_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameterError(f"RQS_THREADS must be an integer >= 1, got {env!r}")
    return workers


def _resolve_r(config: ExperimentConfig, K: int, d: int, p: float, q: float) -> int:
    mode, arg = config.r_rule
    if mode == "fixed":
        return min(arg, K)
    if K < 3:
        return 1
    return choose_r_star(config.scheme, arg, K, d, p, q)


def _run_trials(
    config: ExperimentConfig, rows: list[SweepRow], workers: int
) -> list[TrialResult]:
    """Every trial of ``rows``, in trial order.

    ``workers`` is the number of processes that run trials, this one
    included; there are never more than trials.  A failing trial raises
    its error, the lowest failing trial's when several fail.  Without
    ``os.fork`` every trial runs in this process."""
    workers = min(workers, config.trials) if hasattr(os, "fork") else 1
    if workers == 1:
        return [_in_trial(t, _run_single_trial, config, rows, t) for t in range(config.trials)]
    return _forked_trials(config, rows, workers)


def _forked_trials(
    config: ExperimentConfig, rows: list[SweepRow], workers: int
) -> list[TrialResult]:
    """``_run_trials`` in this process and ``workers - 1`` forked children.

    A pinned graph is built here first, so that every child inherits it.
    The first trial of each chunk is queued as a 4-byte record in one pipe,
    written whole before the first fork: an empty pipe takes ``PIPE_BUF``
    bytes at once, so chunks are one trial up to ``PIPE_BUF // 4`` trials.
    A 4-byte read is atomic, so every process claims the chunks in
    ascending order.  A child pickles its results back through a pipe of
    its own and exits; one that dies fails the lowest trial it left
    without a result.  Every child is killed and reaped on the way out."""
    import select  # only a sweep that forks loads these
    import signal

    if _pins_graph(config):
        _in_trial(0, _pinned_graph, config.spec, config.master_seed, config.n_infected)
    chunk = -(-config.trials // (select.PIPE_BUF // 4))
    firsts = range(0, config.trials, chunk)
    tasks, queue = os.pipe()
    try:
        os.write(queue, b"".join(t.to_bytes(4, "little") for t in firsts))
    finally:
        os.close(queue)
    children: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    try:
        for _ in range(min(workers, len(firsts)) - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                _child(config, rows, tasks, chunk, writer)
            os.close(writer)
            children.append((pid, reader))
        done = _run_share(config, rows, tasks, chunk)
        died = None
        while children:
            pid, reader = children[0]
            with open(reader, "rb", closefd=False) as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(0)[1])
            if code == 0:
                done.update(pickle.loads(sent))
            elif died is None:
                how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
                died = TrialError(f"a forked sweep worker {how} before sending its trials")
    finally:
        os.close(tasks)
        for pid, reader in children:
            os.close(reader)
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    unrun = next((t for t in range(config.trials) if t not in done), None)
    if died is not None and unrun is not None:
        done[unrun] = died
    failed = [t for t, result in done.items() if isinstance(result, RQSimError)]
    if failed:
        raise done[min(failed)]
    return [done[t] for t in range(config.trials)]


def _run_share(
    config: ExperimentConfig, rows: list[SweepRow], tasks: int, chunk: int
) -> dict[int, TrialResult | RQSimError]:
    """The trials of the chunks this process claims from ``tasks``, by
    index.  A failing trial ends the share with its error, and drains
    ``tasks`` so that no later trial starts in any process."""
    done: dict[int, TrialResult | RQSimError] = {}
    while record := os.read(tasks, 4):
        first = int.from_bytes(record, "little")
        for t in range(first, min(first + chunk, config.trials)):
            try:
                done[t] = _in_trial(t, _run_single_trial, config, rows, t)
            except RQSimError as exc:
                done[t] = exc
                while os.read(tasks, 1 << 16):
                    pass
                return done
    return done


def _child(config: ExperimentConfig, rows: list[SweepRow], tasks: int, chunk: int, out: int):
    """A forked child's whole life: run a share, send it pickled, exit."""
    status = 1
    try:
        share = _run_share(config, rows, tasks, chunk)
        with open(out, "wb") as pipe:
            pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _log_row_error(row_index: int, K: int, p: float, q: float, exc: RQSimError) -> None:
    logger.error("row %d (K=%s, p=%s, q=%s) failed: %s", row_index, K, p, q, exc,
                 exc_info=exc if isinstance(exc, TrialError) else None)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the full sweep; rows follow (budget, p, q) nesting order.

    Each trial builds one snapshot that every row queries (see
    ``_run_single_trial``).  A row that fails gets an error marker instead
    of aborting the sweep: its r* cannot be resolved, or its estimator
    raised in some trial.  A failure in a trial's shared build, simulation
    or scoring (for example an infection target larger than the graph)
    fails every row.  A bad ``RQS_THREADS`` raises before any trial.
    """
    spec = config.spec
    workers = _resolve_workers(config)
    graph = None
    if spec.family == "edgelist":  # its degree is measured; the trials reuse the load
        graph = _pinned_graph(spec, config.master_seed, config.n_infected)
    d_eff = effective_degree(spec, graph)
    combos = list(product(config.budgets, config.p_values, config.q_values))

    live: list[SweepRow] = []
    errors: dict[int, RQSimError] = {}
    for row_index, (K, p, q) in enumerate(combos):
        try:
            live.append((row_index, K, 0 if K == 0 else _resolve_r(config, K, d_eff, p, q), p, q))
        except RQSimError as exc:
            _log_row_error(row_index, K, p, q, exc)
            errors[row_index] = exc

    results: list[tuple[float, list[RowOutcome]]] = []
    if live:
        try:
            results = _run_trials(config, live, workers)
        except RQSimError as exc:
            logger.error("every row failed: %s", exc, exc_info=isinstance(exc, TrialError))
            errors.update((row[0], exc) for row in live)

    # A row's wall time is its own query-plus-estimate time plus an equal
    # share of each trial's shared time, summed over the trials.
    shared_s = sum(s for s, _ in results) / max(1, len(live))
    done: dict[int, ResultRow] = {}
    for pos, (row_index, K, r, p, q) in enumerate(live):
        outcomes = [trial[pos] for _, trial in results]
        failure = next((o for o in outcomes if isinstance(o, RQSimError)), None)
        if failure is not None:
            _log_row_error(row_index, K, p, q, failure)
            errors[row_index] = failure
        elif row_index not in errors:
            detections = sum(o[0] for o in outcomes)
            lo, hi = wilson_interval(detections, config.trials)
            done[row_index] = ResultRow(
                config.scheme, config.graph, d_eff, config.n_infected, K, r, p, q, config.trials,
                detections, detections / config.trials, lo, hi,
                sum(o[1] for o in outcomes) / config.trials,
                (shared_s + sum(o[2] for o in outcomes)) * 1000.0,
            )
    return [
        done.get(row_index) or ResultRow(
            config.scheme, config.graph, d_eff, config.n_infected, K, 0, p, q, config.trials,
            0, math.nan, math.nan, math.nan, math.nan, 0.0, str(errors[row_index]),
        )
        for row_index, (K, p, q) in enumerate(combos)
    ]


def _fmt(x: float, places: int = 6) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{places}f}".rstrip("0").rstrip(".") if isinstance(x, float) else str(x)


def _rendered(row: ResultRow, zero_timing: bool) -> ResultRow:
    return replace(row, wall_time_ms=0 if zero_timing else round(row.wall_time_ms))


def rows_to_csv(rows: list[ResultRow], zero_timing: bool = False) -> str:
    """Render rows with the fixed column set; row errors go to the log only.

    ``zero_timing`` blanks the wall-clock column so byte-identical output
    can be compared across reruns.
    """
    lines = [CSV_COLUMNS]
    lines += (",".join(map(_fmt, astuple(_rendered(row, zero_timing))[:-1])) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow], zero_timing: bool = False) -> str:
    """JSON array mirroring the CSV fields, plus an ``error`` field."""
    docs = [
        {k: None if isinstance(v, float) and math.isnan(v) else v
         for k, v in asdict(_rendered(row, zero_timing)).items()}
        for row in rows
    ]
    return json.dumps(docs, indent=2)
