"""Outside-in tracing of an rqsim sweep, and the per-layer summary.

The tracer records a span around each entry point that ``harness`` and
``estimators`` call into another module, by rebinding the name in the
calling module; nothing under ``src/`` is edited. Spans stay in memory
and are written once, as JSONL, when the sweep ends. ``summarize`` reads
that file back, so every figure it reports can be recomputed from it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

#: (module under rqsim, attribute, span name). The harness reaches the
#: generators through the ``graphs`` module object, so those are rebound
#: there; every other entry point is rebound where it was imported.
TARGETS = (
    ("graphs", "make_regular_tree", "graphs.build"),
    ("graphs", "make_galton_watson", "graphs.build"),
    ("graphs", "make_erdos_renyi", "graphs.build"),
    ("graphs", "make_scale_free", "graphs.build"),
    ("harness", "simulate_si", "diffusion.simulate"),
    ("harness", "likelihood_table", "centrality.score"),
    ("estimators", "likelihood_table", "centrality.score"),
    ("estimators", "query_rounds", "respondent.query"),
    ("estimators", "answer_dir", "respondent.query"),
    ("harness", "run_mvna", "estimators.run"),
    ("harness", "run_mvad", "estimators.run"),
    ("harness", "choose_r_star", "budget.rstar"),
    ("harness", "_run_single_trial", "harness.trial"),
)

SWEEP_SPAN = "harness.sweep"

#: Every workload exercises every layer, so a layer without spans means a
#: broken trace, not a measurement.
LAYERS = tuple(dict.fromkeys(span for _, _, span in TARGETS))


class TraceError(RuntimeError):
    """The trace cannot be trusted: a hook is missing or the spans disagree."""


def _attrs(name: str, result) -> tuple:
    """Counts a span records from its call's result, as (key, value) pairs."""
    if name == "respondent.query":
        # query_rounds returns an AnswerRecord; answer_dir is one pair.
        return (("pairs", getattr(result, "rounds", 1)),)
    if name == "estimators.run":
        return (("budget_used", result.budget_used),)
    return ()


class Tracer:
    """In-memory span recorder. Spans of one trial share its trial id.

    A span is stored when it closes, as a tuple of plain values, so the
    cyclic garbage collector stops tracking it and a long trace does not
    slow the collections of the program it measures.
    """

    def __init__(self):
        # (id, parent id, trial id, name, start, end, attrs)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._trial: int | None = None
        self._trials = 0
        self._snapshots: list[tuple[int, object]] = []

    def install(self) -> None:
        """Rebind every target; fails if one no longer exists."""
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"rqsim.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceError(f"cannot trace rqsim.{module_name}.{attr}: it no longer exists")
            wrap = self._trial_wrapper if span_name == "harness.trial" else self.wrap
            setattr(module, attr, wrap(span_name, fn))

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if name == "diffusion.simulate":
                self._snapshots.append((len(spans), result))
            spans.append((span_id, parent, self._trial, name, start, end, _attrs(name, result)))
            return result

        return traced

    def _trial_wrapper(self, name: str, fn):
        traced = self.wrap(name, fn)
        spans = self.spans

        def trial(*args, **kwargs):
            self._trial = self._trials
            self._trials += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._trial = None
                # Snapshot properties are cached on first use; reading them
                # only now keeps their cost inside the spans that caused it.
                for i, snap in self._snapshots:
                    counts = (("tree", snap.is_tree), ("induced_edges", snap.induced_edge_count))
                    spans[i] = spans[i][:6] + (counts,)
                self._snapshots.clear()

        return trial

    def span_cost(self, calls: int = 20000, batches: int = 5) -> float:
        """Seconds one span adds to a call, in this process: a wrapped no-op
        against a bare one, median over batches. Spans times this cost is
        the share of the traced wall time that tracing itself took."""
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        traced = probe.wrap("calibration", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(batches):
            probe.spans.clear()
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def write(self, path) -> None:
        """Write spans as JSONL in id order, so parents precede children."""
        keys = ("id", "parent", "trial", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans):
                doc = dict(zip(keys, rec))
                doc.update(rec[6])
                fh.write(json.dumps(doc) + "\n")


#: Highest percentiles considered for the trial-time tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values) -> tuple[float, float]:
    """Highest listed percentile with at least 10 samples beyond it; the
    maximum (reported as percentile 100) when there are too few samples."""
    for pct in _TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 100.0, float(np.max(values))


def summarize(path) -> dict[str, float]:
    """Per-layer metrics from a JSONL span file; raises TraceError when the
    spans do not nest, a layer is missing, or the counts disagree."""
    spans: dict[int, tuple[float, float, int | None, str]] = {}
    durations: dict[str, list[float]] = defaultdict(list)
    child_time: dict[str, float] = defaultdict(float)
    pairs, budgets, trees = 0, [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            start, end, trial, name = s["start"], s["end"], s["trial"], s["name"]
            if end < start:
                raise TraceError(f"span {s['id']} ends before it starts")
            # A parent is written before its children.
            parent = spans.get(s["parent"])
            if parent is None:
                if name != SWEEP_SPAN:
                    raise TraceError(f"span {s['id']} ({name}) has no enclosing sweep span")
            else:
                p_start, p_end, p_trial, p_name = parent
                if start < p_start or end > p_end:
                    raise TraceError(f"span {s['id']} is not inside its parent {s['parent']}")
                if p_name != SWEEP_SPAN and trial != p_trial:
                    raise TraceError(f"span {s['id']} has another trial id than its parent")
                child_time[p_name] += end - start
            spans[s["id"]] = (start, end, trial, name)
            durations[name].append(end - start)
            pairs += s.get("pairs", 0)
            if name == "estimators.run":
                budgets.append(s["budget_used"])
            elif name == "diffusion.simulate":
                trees.append(s["tree"])

    missing = [name for name in LAYERS if not durations[name]]
    if missing:
        raise TraceError(f"layers recorded no spans: {', '.join(missing)}")
    if pairs != sum(budgets):
        raise TraceError(f"respondent.pairs {pairs} != sum of budget_used {sum(budgets)}")
    # Self time: a span's duration minus its child spans.
    self_time = {name: sum(d) - child_time[name] for name, d in durations.items()}

    wall = sum(durations[SWEEP_SPAN])
    trial_ms = np.array(durations["harness.trial"]) * 1e3
    sim_ms = np.array(durations["diffusion.simulate"]) * 1e3
    score_ms = np.array(durations["centrality.score"]) * 1e3
    tail_pct, tail_ms = tail_percentile(trial_ms)

    m = {
        "graphs.build_ms": float(np.median(durations["graphs.build"])) * 1e3,
        "graphs.builds": len(durations["graphs.build"]),
        "graphs.self_share": self_time["graphs.build"] / wall,
        "diffusion.simulate_ms_p50": float(np.percentile(sim_ms, 50)),
        "diffusion.simulate_ms_p90": float(np.percentile(sim_ms, 90)),
        "diffusion.calls": len(sim_ms),
        "diffusion.tree_share": sum(trees) / len(trees),
        "diffusion.self_share": self_time["diffusion.simulate"] / wall,
        "centrality.score_ms_p50": float(np.percentile(score_ms, 50)),
        "centrality.score_ms_p90": float(np.percentile(score_ms, 90)),
        "centrality.calls": len(score_ms),
        "centrality.self_share": self_time["centrality.score"] / wall,
        "respondent.query_calls": len(durations["respondent.query"]),
        "respondent.pairs": pairs,
        "respondent.us_per_pair": self_time["respondent.query"] / pairs * 1e6,
        "respondent.self_share": self_time["respondent.query"] / wall,
        "estimators.self_ms": self_time["estimators.run"] * 1e3,
        "estimators.self_share": self_time["estimators.run"] / wall,
        "estimators.budget_used_mean": sum(budgets) / len(budgets),
        "budget.rstar_calls": len(durations["budget.rstar"]),
        "budget.rstar_us": float(np.mean(durations["budget.rstar"])) * 1e6,
        "harness.trial_ms_p50": float(np.percentile(trial_ms, 50)),
        "harness.trial_ms_hi": tail_ms,
        "harness.trial_ms_hi_pct": tail_pct,
        "harness.trial_samples": len(trial_ms),
        "harness.self_share": (wall - sum(durations["harness.trial"])) / wall,
        "harness.trial_self_share": self_time["harness.trial"] / wall,
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    # Spans nest, so the layers' self times partition the traced wall time.
    total = sum(v for k, v in m.items() if k.endswith("self_share"))
    if abs(total - 1.0) > 1e-6:
        raise TraceError(f"layer shares add up to {total}, not 1")
    return m
