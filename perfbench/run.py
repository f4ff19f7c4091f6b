"""rqsim sweep benchmark: throughput at 1 and all workers, checked outputs,
and an outside-in per-layer trace.

    python3 perfbench/run.py --workload tree_grid --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout against its ``src/`` (nothing is
installed). For one workload it:

1. with ``--trace 0``, times ``import rqsim`` plus one graph build in
   fresh interpreters (``setup_s``, median of probes spread over the run);
2. runs the workload's sweeps at 1 worker in a fresh process, then at all
   workers (``nproc``) in another, each with a host-speed sampler on every
   CPU (``calibrate.py``) so that the figures are at a reference speed;
3. with ``--trace 1``, runs the 1-worker sweep again in a fresh process
   with spans recorded, writes them to ``perfbench/out/`` as JSONL and
   computes the per-layer metrics from that file;
4. checks the outputs (see ``check_rows``) and the likelihood tables of
   the workload's own snapshots against ``oracle.py``, and counts the
   trials of every row that fails a check into ``failed``.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``). The exit
code is 1 when a check fails and 2 when the benchmark cannot run.
``--workload all`` runs every workload with both metric sets.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import TraceError, summarize  # noqa: E402
from workloads import N_INFECTED, WORKLOADS  # noqa: E402

#: Set-up probes in each of three groups, taken before, between and after
#: the sweeps (after one discarded warm-up that fills the bytecode cache),
#: so that the reported median spans the host's slow drift.
SETUP_GROUP = 3
#: Two-sample z beyond which a row's detections disagree with the
#: reference. Loose enough that honest rows pass over hundreds of runs,
#: tight enough that an estimator that stops using its answers fails.
Z_TOLERANCE = 4.5
#: A run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(step: str, deadline: float | None, **options) -> dict:
    """Run ``child.py`` in its own process group and return its JSON line.

    ``deadline`` is a ``time.monotonic()`` value, or None for no limit.
    """
    cmd = [sys.executable, str(HERE / "child.py"), step]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Installed code runs from cached bytecode, so the probes use the cache too.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{step} step timed out: {' '.join(cmd)}") from None
    finally:
        # Pool workers of a failed sweep must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{step} step exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(out.strip().splitlines()[-1])


def two_sample_z(x1: int, n1: int, x2: int, n2: int) -> float:
    """Agresti-Caffo z statistic for the difference of two proportions."""
    p1, p2 = (x1 + 1) / (n1 + 2), (x2 + 1) / (n2 + 2)
    se = math.sqrt(p1 * (1 - p1) / (n1 + 2) + p2 * (1 - p2) / (n2 + 2))
    return (p1 - p2) / se


def check_rows(one: dict, others: dict[str, dict], reference: dict) -> dict[int, list[str]]:
    """Failed checks by row index of the 1-worker sweep.

    A row fails when it carries an error, when its mean budget breaks the
    budget identity (na spends r*min(floor(K/r), N), ad at most K, K = 0
    nothing), when its detections disagree with the reference, or when
    its zero-timing CSV line differs in another sweep of the same seed.
    """
    failures: dict[int, list[str]] = {}
    for i, row in enumerate(one["rows"]):
        reasons = []
        K, r, spent = row["K"], row["r"], row["mean_budget"]
        if row["error"]:
            reasons.append(f"error: {row['error']}")
        elif K == 0:
            if spent != 0:
                reasons.append(f"K=0 spent {spent}")
        elif row["scheme"] == "na":
            if r < 1 or spent != r * min(K // r, N_INFECTED):
                reasons.append(f"na budget {spent} != r*min(K//r, N) with K={K}, r={r}")
        elif not 0 < spent <= K:
            reasons.append(f"ad budget {spent} outside (0, K={K}]")
        if not row["error"]:
            ref = reference.get(f"{row['scheme']}:{K}")
            if ref is None:
                raise BenchError(f"baseline.json has no reference for row {row['scheme']}:{K}")
            z = two_sample_z(row["detections"], row["trials"], ref["detections"], ref["trials"])
            if abs(z) > Z_TOLERANCE:
                reasons.append(
                    f"detections {row['detections']}/{row['trials']} vs reference "
                    f"{ref['detections']}/{ref['trials']}: |z| = {abs(z):.2f} > {Z_TOLERANCE}"
                )
        if reasons:
            failures[i] = reasons

    lines = one["csv"].splitlines()
    for label, other in others.items():
        other_lines = other["csv"].splitlines()
        if len(other_lines) != len(lines) or other_lines[0] != lines[0]:
            for i in range(len(one["rows"])):
                failures.setdefault(i, []).append(f"{label} CSV has another shape")
            continue
        for i, (a, b) in enumerate(zip(lines[1:], other_lines[1:])):
            if a != b:
                failures.setdefault(i, []).append(f"{label} CSV line differs: {b!r} != {a!r}")
    return failures


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def run_workload(name: str, seed: int, seconds: float, end_to_end: bool, per_layer: bool,
                 reference: dict, deadline: float | None) -> tuple[int, int, dict[str, float]]:
    """Returns (attempted, failed, metrics) for one workload."""
    workload = WORKLOADS[name]
    trials = workload.trials_per_row(seconds)
    workers = nproc()
    attempted = workload.rows * trials
    metrics: dict[str, float] = {}

    probes: list[float] = []

    def probe_setup(count: int) -> None:
        if end_to_end:
            probes.extend(run_child("setup", deadline, workload=name, seed=seed)["setup_s"]
                          for _ in range(count))

    probe_setup(1)
    probes.clear()  # the warm-up only fills the bytecode cache
    probe_setup(SETUP_GROUP)
    sweep = dict(workload=name, seed=seed, trials=trials)
    one = run_child("sweep", deadline, workers=1, **sweep)
    probe_setup(SETUP_GROUP)
    many = run_child("sweep", deadline, workers=workers, **sweep)
    probe_setup(SETUP_GROUP)
    # Figures are at the reference speed of calibrate.py and net of steal
    # (see README.md). The 1-worker sweep runs in-process on one thread, so
    # its CPU time is its wall time less steal; at all workers every CPU is
    # busy, so the sweep would have ended sooner by the mean steal and
    # sampler time per CPU.
    slowdown = (one["slowdown"] + many["slowdown"]) / 2
    if end_to_end:
        metrics["setup_s"] = statistics.median(probes) / slowdown
    metrics["trials_per_s_1w"] = attempted / one["cpu_s"] * one["slowdown"]
    busy = many["wall_s"] - (many["steal_s"] + many["sampler_cpu_s"]) / workers
    metrics["trials_per_s"] = attempted / busy * many["slowdown"]
    metrics["peak_rss_mb"] = one["peak_rss_mb"]
    for label, raw in (("1 worker", one), (f"{workers} workers", many)):
        print(f"# {name}: {label}: wall {raw['wall_s']:.3f} s, CPU {raw['cpu_s']:.3f} s, "
              f"steal {raw['steal_s']:.3f} s, samplers {raw['sampler_cpu_s']:.3f} s, "
              f"slowdown {raw['slowdown']:.3f}")
    others = {f"{workers}-worker": many}

    if per_layer:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
        traced = run_child("sweep", deadline, workers=1, trace=spans_path, **sweep)
        others["traced 1-worker"] = traced
        metrics.update(summarize(spans_path))
        pairs_from_rows = round(sum(r["mean_budget"] * r["trials"] for r in traced["rows"]))
        if metrics["respondent.pairs"] != pairs_from_rows:
            raise BenchError(f"respondent.pairs {metrics['respondent.pairs']} != "
                             f"budget spent by the rows {pairs_from_rows}")
        metrics["harness.scaling_eff"] = metrics["trials_per_s"] / (workers * metrics["trials_per_s_1w"])
        metrics["trace.overhead_share"] = (metrics["trace.spans"] * traced["span_cost_s"]
                                           / metrics["trace.wall_s"])
        metrics["repo.src_lines"] = src_lines()
        print(f"# {name}: spans in {spans_path.relative_to(ROOT)}")

    if name not in reference:
        raise BenchError(f"baseline.json has no reference for {name}")
    failures = check_rows(one, others, reference[name])
    scorer = run_child("verify", deadline, workload=name, seed=seed)
    print(f"# {name}: scorer check on {scorer['snapshots']} snapshots ({scorer['loopy']} loopy), "
          f"largest difference from the oracle {scorer['max_diff']:.3g}")
    for reason in scorer["failures"]:
        print(f"# {name}: CHECK FAILED scorer: {reason}")
    if scorer["failures"]:
        # Every row scores its snapshots with this table.
        for i in range(len(one["rows"])):
            failures.setdefault(i, []).append("likelihood tables disagree with the oracle")
    for i, reasons in sorted(failures.items()):
        for reason in reasons:
            print(f"# {name}: CHECK FAILED row {i}: {reason}")
    failed = sum(one["rows"][i]["trials"] for i in failures)
    print(f"# {name}: {len(one['rows'])} rows x {trials} trials, {workers} workers; "
          f"trials_failed {failed} of trials_total {attempted}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rqsim sweep benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True, help="master seed of every sweep")
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the sweep: the 1-worker run lasts about this long at the "
                         "commit that introduced the benchmark")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    every = args.workload == "all"
    names = sorted(WORKLOADS) if every else [args.workload]
    sets = {"end_to_end": every or not args.trace, "per_layer": every or bool(args.trace)}
    deadline = None if every else time.monotonic() + DEADLINE_S

    try:
        if not (SRC / "rqsim" / "__init__.py").is_file():
            raise BenchError(f"no rqsim sources under {SRC}; run from a checkout of the repository")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))["reference"]
        attempted = failed = 0
        result: dict[str, dict] = {}
        for name in names:
            a, f, metrics = run_workload(name, args.seed, args.seconds, sets["end_to_end"],
                                         sets["per_layer"], reference, deadline)
            attempted += a
            failed += f
            for key in ("end_to_end", "per_layer"):
                for m in spec[key]:
                    if m["name"] not in metrics:
                        if sets[key]:
                            raise BenchError(f"metric {m['name']} was not measured")
                        continue
                    value = metrics[m["name"]]
                    print(f"{name:>13} {m['name']:<28} {value:>14.6g} {m['unit']}")
                    if sets[key]:
                        label = f"{name}.{m['name']}" if every else m["name"]
                        result[label] = {"value": value, "unit": m["unit"]}
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
