"""Seeded Monte Carlo experiment runner with parameter sweeps.

Sweeps run trial-major: trial t draws one graph, source and snapshot from
stream (master seed, 0, t), scores it once, and every (K, p, q) row then
queries that snapshot.  Row 0 draws its answers from the same stream, row
i >= 1 from stream (master seed, i, t); a K = 0 row asks nothing and
reads no stream.  Streams are ``numpy.random.SeedSequence`` spawn keys.
So results are independent of execution order and degree of parallelism,
replaying a trial from its streams reproduces it exactly, and comparisons
are paired: all rows see the same snapshots trial for trial, and so do
``na`` and ``ad`` sweeps with the same master seed.  A single-row sweep,
and row 0 of any sweep, draw exactly what they drew when each row built
its own snapshots.

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
import traceback
from contextlib import suppress
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property
from itertools import chain, product
from numbers import Integral, Real
from typing import Iterator, Mapping

import numpy as np

from . import graphs as _graphs
from .budget import choose_r_star
from .centrality import likelihood_table, pick_best
from .diffusion import simulate_si
from .errors import InvalidParameterError, RQSimError, TrialError, check_int
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
    """Wilson score interval for a binomial proportion, at a finite real
    ``z`` > 0 that is not a bool."""
    if isinstance(z, bool) or not (isinstance(z, Real) and 0 < z < math.inf):  # a NaN fails too
        raise InvalidParameterError(f"z must be a finite real > 0, got {z!r}")
    check_int("trials", trials, 1)
    check_int("successes", successes, 0)
    if successes > trials:
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
    args: tuple  # the family generator's arguments before ``rng``
    d: int  # the degree fed to the closed forms, or 0: measured on the loaded edge list


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse ``regular:d``, ``gw:d_max[:min_nodes]``, ``er:n:avg``,
    ``sf:n:ratio`` or ``edgelist:path``, with their generators' checks.

    The spec's ``d`` is the degree fed to the closed forms: d on
    ``regular:``, max(3, d_max) on ``gw:``, max(3, round(avg)) on ``er:``
    and max(3, round(2 * ratio)) on ``sf:``, each below 2**53.  On
    ``edgelist:`` it is 0, and ``run_experiment`` uses max(3,
    round(average degree)) of the loaded graph.
    """
    family, *nums = text.split(":")
    try:
        if family == "regular" and len(nums) == 1:
            d = int(nums[0])
            _graphs.RegularTree(d)  # its degree check
            return GraphSpec(family, (d,), _degree(d))
        if family == "gw" and len(nums) in (1, 2):
            d_max = int(nums[0])
            min_nodes = int(nums[1]) if len(nums) == 2 else 0  # 0: sized from n_infected
            _graphs.check_galton_watson(d_max, min_nodes or 1)
            return GraphSpec(family, (d_max, min_nodes), _degree(d_max))
        if family == "er" and len(nums) == 2:
            n, avg = int(nums[0]), float(nums[1])
            _graphs.check_erdos_renyi(n, avg)
            return GraphSpec(family, (n, avg), _degree(avg))
        if family == "sf" and len(nums) == 2:
            n, ratio = int(nums[0]), float(nums[1])
            _graphs.check_scale_free(n, ratio)
            return GraphSpec(family, (n, ratio), _degree(2 * ratio))
        if family == "edgelist" and (path := ":".join(nums)):
            return GraphSpec(family, (path,), 0)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse graph spec {text!r}: {exc}") from None
    raise InvalidParameterError(f"cannot parse graph spec {text!r}")


def _degree(x: float) -> int:
    """max(3, round(x)), the degree fed to the closed forms, if it is below 2**53."""
    if not x < 2**53:
        raise ValueError("the degree fed to the closed forms must be below 2**53")
    return max(3, round(x))


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
        closed form), which beats ``r_mode``.  An unknown key raises
        InvalidParameterError, and the constructor checks the values' types;
        a missing ``graph``, ``scheme``, ``k``, ``p`` or ``q`` raises TypeError.
        """
        unknown = sorted(set(options) - set(_OPTIONS))
        if unknown:
            raise InvalidParameterError(f"unknown option(s): {', '.join(unknown)}")
        # In _OPTIONS order, so that r beats rstar beats r_mode.
        return cls(**{
            _OPTIONS[key]: _option(key, options[key]) for key in _OPTIONS if key in options
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

    @cached_property
    def pinned_graph(self):
        """The graph every trial shares, built on first use: an edge list's, or
        under ``fixed_graph`` a random family's from the ``_GRAPH_SPAWN_KEY``
        stream.  None where each trial builds its own graph."""
        spec = self.spec
        if spec.family != "edgelist" and (not self.fixed_graph or spec.family == "regular"):
            return None
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=_GRAPH_SPAWN_KEY)
        return _build_graph(spec, self.n_infected, np.random.default_rng(seq))

    def __post_init__(self):
        # Each field is stored as its plain type: a numpy number as an int or
        # float, an int as a float where a real number is asked for, and a
        # list as a tuple.  A bool is a bool only: not an integer, not a real number.
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name == "threads" and value is None:
                continue
            many = name in ("budgets", "p_values", "q_values")
            items = value if many and isinstance(value, (tuple, list)) else (value,)
            abstract = {int: Integral, float: Real}.get(kind, kind)
            if (many and items is not value) or not all(
                isinstance(v, abstract) and isinstance(v, bool) == (kind is bool) for v in items
            ):
                raise InvalidParameterError(
                    f"{name} must be of type {'tuple of ' if many else ''}{kind.__name__}, "
                    f"got {value!r}"
                )
            plain = tuple(map(kind, items))
            object.__setattr__(self, name, plain if many else plain[0])
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


#: Each config field's type; ``budgets``, ``p_values`` and ``q_values`` hold
#: a tuple of it, and ``threads`` may also be None.
_FIELD_TYPES = {
    "graph": str, "scheme": str, "budgets": int, "p_values": float, "q_values": float,
    "n_infected": int, "r_mode": str, "trials": int, "master_seed": int, "fixed_graph": bool,
    "candidate_order": str, "threads": int,
}

#: ``simulate``'s options by flag name, and the config field each one sets.
_OPTIONS = {
    "graph": "graph", "scheme": "scheme", "k": "budgets", "p": "p_values", "q": "q_values",
    "n": "n_infected", "trials": "trials", "seed": "master_seed",
    "candidate_order": "candidate_order", "fixed_graph": "fixed_graph", "threads": "threads",
    "r_mode": "r_mode", "rstar": "r_mode", "r": "r_mode",
}


def _option(key: str, value):
    """The config field value of option ``key``."""
    if key == "r" and type(value) is not int:  # "fixed:" + "3" would pass as r_mode
        raise InvalidParameterError(f"r must be of type int, got {value!r}")
    if key in ("r", "rstar"):
        return f"{'fixed' if key == 'r' else 'rstar'}:{value}"
    if key not in ("k", "p", "q"):
        return value
    if isinstance(value, str):  # the flags' comma-separated text
        try:
            return tuple((int if key == "k" else float)(x) for x in value.split(","))
        except ValueError:
            raise InvalidParameterError(f"option {key!r}: cannot parse {value!r}") from None
    return value if isinstance(value, (list, tuple)) else (value,)


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


def _build_graph(spec: GraphSpec, n_infected: int, rng: np.random.Generator):
    """``spec``'s graph from its generator, looked up on ``graphs`` at each call
    (``perfbench/tracer.py`` rebinds it there); a random family's also takes ``rng``."""
    make = getattr(_graphs, {"regular": "make_regular_tree", "gw": "make_galton_watson",
                             "er": "make_erdos_renyi", "sf": "make_scale_free",
                             "edgelist": "load_edge_list"}[spec.family])
    args = spec.args
    if spec.family == "gw" and not args[1]:  # a tree sized from the infection target
        args = (args[0], _GW_SIZE_FACTOR * n_infected)
    return make(*args) if spec.family in ("regular", "edgelist") else make(*args, rng)


#: A sweep row as a trial sees it: (row index, K, r, its truth model, and
#: its estimator's configuration, or None at K = 0).
SweepRow = tuple[int, int, int, TruthModel, NAConfig | ADConfig | None]

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
) -> TrialResult | RQSimError:
    """One trial of every row in ``rows``, all on one snapshot.

    The graph, source and snapshot are drawn from stream (master, 0,
    trial) and scored once, and the likelihood centre is found once for
    every row.  A K = 0 row takes the centre and builds no stream.  Row
    0's estimator goes on drawing its answers from that stream; row
    i >= 1's draws them from stream (master, i, trial).  Returns the
    seconds the shared build, simulation and scoring took, and each
    row's outcome.  Failures are values (see ``_failure``): a row that
    raises fails alone, and the failure of the shared part, which fails
    every row, is returned in place of the result.
    """
    t0 = time.perf_counter()
    rng = _stream(config, 0, trial_index)
    try:
        graph = config.pinned_graph or _build_graph(config.spec, config.n_infected, rng)
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
    except Exception as exc:  # the trial boundary: every row fails
        return _failure(trial_index, exc)
    shared_s = time.perf_counter() - t0

    outcomes: list[RowOutcome] = []
    for row_index, _, _, model, estimator in rows:
        t1 = time.perf_counter()
        try:
            estimate, used = centre, 0
            if estimator is not None:
                run = run_mvna if config.scheme == "na" else run_mvad
                row_rng = rng if row_index == 0 else _stream(config, row_index, trial_index)
                outcome = run(snapshot, estimator, model, row_rng, scores=table, centre=centre)
                estimate, used = outcome.estimate, outcome.budget_used
        except Exception as exc:  # the row boundary: the other rows go on
            outcomes.append(_failure(trial_index, exc))
        else:
            outcomes.append((int(estimate == source), used, time.perf_counter() - t1))
    return shared_s, outcomes


def _failure(trial_index: int, exc: Exception) -> RQSimError:
    """``exc``, caught in trial ``trial_index``, as a sweep failure: an
    RQSimError as it is, any other exception as a TrialError that names
    the trial and keeps the traceback below the frame that caught it: a
    pinned build failing before the fork reads as in trial 0, below the
    frames of ``ExperimentConfig.pinned_graph`` on both paths."""
    if isinstance(exc, RQSimError):
        return exc
    # Streams (master, 0, trial) and (master, row, trial) replay exactly this trial.
    return TrialError(
        f"trial {trial_index} raised {type(exc).__name__}: {exc}",
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__.tb_next)),
    )


def _resolve_workers(config: ExperimentConfig) -> int:
    """The config's worker count, else the CPUs this process may run on."""
    if config.threads is not None:
        return config.threads
    if hasattr(os, "sched_getaffinity"):  # os.cpu_count() ignores the affinity mask
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_rows(config: ExperimentConfig, d: int) -> list[SweepRow]:
    """Every row of ``config`` in (budget, p, q) nesting order, with its r
    resolved at degree ``d``, built once per sweep."""
    rows: list[SweepRow] = []
    for row_index, (K, p, q) in enumerate(product(config.budgets, config.p_values, config.q_values)):
        r = _resolve_r(config, K, d, p, q)
        estimator = (None if K == 0 else ADConfig(K, r) if config.scheme == "ad"
                     else NAConfig(K, r, config.candidate_order))
        rows.append((row_index, K, r, TruthModel(p, q), estimator))
    return rows


def _resolve_r(config: ExperimentConfig, K: int, d: int, p: float, q: float) -> int:
    """A row's r: 0 at K = 0, else in 1..K.  The config's checks and the
    bounds on ``d`` (3 to 2**53 - 1) leave ``choose_r_star`` nothing to reject."""
    mode, arg = config.r_rule
    if mode == "fixed":
        return min(arg, K)
    if K < 3:
        return min(K, 1)
    return choose_r_star(config.scheme, arg, K, d, p, q)


def _run_trials(
    config: ExperimentConfig, rows: list[SweepRow], workers: int
) -> list[TrialResult] | RQSimError:
    """Every trial of ``rows``, in trial order, or the lowest failing trial's failure.

    ``workers`` is the number of processes that run trials, this one
    included; there are never more than trials.  One worker, or no
    ``os.fork``, runs the forked workers' loop, ``_run_share``, over one
    claim of every trial in this process."""
    workers = min(workers, config.trials) if hasattr(os, "fork") else 1
    done = (_forked_trials(config, rows, workers) if workers > 1
            else _run_share(config, rows, iter([range(config.trials)])))
    failed = [t for t, result in done.items() if isinstance(result, RQSimError)]
    return done[min(failed)] if failed else [done[t] for t in range(config.trials)]


def _forked_trials(
    config: ExperimentConfig, rows: list[SweepRow], workers: int
) -> dict[int, TrialResult | RQSimError]:
    """``_run_share``'s trials, by index, in this process and ``workers - 1`` forked children.

    The config's ``pinned_graph`` is read here first, so that every child
    inherits it; a failed build is trial 0's failure, as it is at 1 worker.
    The first trial of each chunk is queued as a 4-byte record in one pipe,
    written whole before the first fork: an empty pipe takes ``PIPE_BUF``
    bytes at once, so chunks are one trial up to ``PIPE_BUF // 4`` trials.
    A 4-byte read is atomic, so every process claims the chunks in
    ascending order.  A child pickles its results back through a pipe of
    its own and exits; one that dies fails the lowest trial it left
    without a result.  Every child is killed and reaped on the way out."""
    import select  # only a sweep that forks loads these
    import signal

    try:
        config.pinned_graph  # built here, so that every child inherits it
    except Exception as exc:
        return {0: _failure(0, exc)}
    chunk = -(-config.trials // (select.PIPE_BUF // 4))
    firsts = range(0, config.trials, chunk)
    tasks, queue = os.pipe()
    try:
        os.write(queue, b"".join(t.to_bytes(4, "little") for t in firsts))
    finally:
        os.close(queue)

    def claims() -> Iterator[range]:  # the chunks this process claims
        while record := os.read(tasks, 4):
            first = int.from_bytes(record, "little")
            yield range(first, min(first + chunk, config.trials))

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
                _child(config, rows, claims(), writer)
            os.close(writer)
            children.append((pid, reader))
        done = _run_share(config, rows, claims())
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
    return done


def _run_share(
    config: ExperimentConfig, rows: list[SweepRow], claims: Iterator[range]
) -> dict[int, TrialResult | RQSimError]:
    """The trials of ``claims``, run in order, by index: the one trial loop
    at every worker count.  A failing trial ends the share and exhausts
    ``claims``, so that no later trial starts in any process."""
    done: dict[int, TrialResult | RQSimError] = {}
    for t in chain.from_iterable(claims):
        done[t] = _run_single_trial(config, rows, t)
        if isinstance(done[t], RQSimError):
            for _ in claims:
                pass
            break
    return done


def _child(config: ExperimentConfig, rows: list[SweepRow], claims: Iterator[range], out: int):
    """A forked child's whole life: run a share, send it pickled, exit."""
    status = 1
    try:
        share = _run_share(config, rows, claims)
        with open(out, "wb") as pipe:
            pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run the full sweep; rows follow (budget, p, q) nesting order.

    Each trial builds one snapshot that every row queries (see
    ``_run_single_trial``).  A failure is a value from the trial to the
    row, never a raise: a row whose estimator raises in some trial gets
    an error marker, the lowest such trial's error, instead of aborting
    the sweep.  A failure in a trial's shared build, simulation or scoring
    (for example an infection target larger than the graph) fails every
    row.  Each failure is logged once; a TrialError's traceback text
    follows its message and reads the same at any worker count.  A sweep
    holds its pinned or loaded graph on ``config.pinned_graph`` from its
    first use until it returns: sweeps side by side in one process each
    build their own once, and no graph outlives its sweep.
    """
    vars(config).pop("pinned_graph", None)  # each sweep loads or builds its graph afresh
    # An edge list's degree is measured on the load, which its trials reuse.
    d = config.spec.d or _degree(config.pinned_graph.avg_degree())
    rows = _sweep_rows(config, d)
    results = _run_trials(config, rows, _resolve_workers(config))
    vars(config).pop("pinned_graph", None)  # and keeps none after it
    every_row = None  # the failure of a trial's shared part, which fails every row
    if isinstance(results, RQSimError):
        results, every_row = [], results
        _log_failure("every row", every_row)

    # A row's wall time is its own query-plus-estimate time plus an equal
    # share of each trial's shared time, summed over the trials.
    shared_s = sum(s for s, _ in results) / len(rows)
    out: list[ResultRow] = []
    for row_index, K, r, model, _ in rows:
        outcomes = [trial[row_index] for _, trial in results]
        failure = next((o for o in outcomes if isinstance(o, RQSimError)), every_row)
        if failure is None:
            detections = sum(o[0] for o in outcomes)
            lo, hi = wilson_interval(detections, config.trials)
            stats = (detections, detections / config.trials, lo, hi,
                     sum(o[1] for o in outcomes) / config.trials,
                     (shared_s + sum(o[2] for o in outcomes)) * 1000.0)
        else:
            if failure is not every_row:
                _log_failure(f"row {row_index} (K={K}, p={model.p}, q={model.q})", failure)
            stats = (0, math.nan, math.nan, math.nan, math.nan, 0.0)
        out.append(ResultRow(
            config.scheme, config.graph, d, config.n_infected, K, r, model.p, model.q, config.trials,
            *stats, None if failure is None else str(failure),
        ))
    return out


def _log_failure(what: str, failure: RQSimError) -> None:
    """Logs that ``what`` failed, with a TrialError's traceback text after the message."""
    text = getattr(failure, "traceback", "")
    logger.error("%s failed: %s%s", what, failure, text and "\n" + text.rstrip("\n"))


def _fmt(x: float, places: int = 6) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{places}f}".rstrip("0").rstrip(".") if isinstance(x, float) else str(x)


def _rendered(row: ResultRow, zero_timing: bool) -> ResultRow:
    return replace(row, wall_time_ms=0 if zero_timing else round(row.wall_time_ms))


def rows_to_csv(rows: list[ResultRow], zero_timing: bool = False) -> str:
    """Render rows with the fixed column set.  A failed row reads
    ``detections`` 0, with ``nan`` in ``p_hat``, ``ci_lo``, ``ci_hi`` and
    ``mean_budget``; its error text is in the log and in ``rows_to_json``.

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
