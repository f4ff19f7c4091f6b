"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/child.py setup --workload W --seed S
    python3 perfbench/child.py sweep --workload W --seed S --trials T --workers K [--trace PATH]
    python3 perfbench/child.py verify --workload W --seed S

``setup`` times ``import rqsim`` plus one build of the workload's graph.
``sweep`` runs the workload's sweeps through ``rqsim.run_experiment`` and
reports wall, CPU and steal time, the host's slowdown and the samplers' CPU
time (see ``calibrate.py``), peak RSS and the zero-timing CSV; with
``--trace`` it instead records spans, writes them to PATH and reports the
calibrated cost of one span. ``verify`` checks ``rqsim.likelihood_table``
on snapshots of the workload's graph against ``oracle.py``. The last line
of standard output is one JSON object. ``run.py`` starts these with ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from calibrate import Samplers
from workloads import N_INFECTED, WORKLOADS

#: Candidates per snapshot scored through the ``nodes`` argument, as the
#: estimators do.
SUBSET = 16


def stolen_s() -> float:
    """Seconds the hypervisor has taken from this process's CPUs (steal
    time), summed over them; 0 where the kernel does not report it."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as f:
            ticks = sum(int(fields[8]) for fields in map(str.split, f)
                        if fields[0] in cpus and len(fields) > 8)
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def setup(workload, seed: int) -> dict:
    # CPU time: wall time less what the hypervisor took, as in the sweeps.
    t0 = time.process_time()
    import numpy as np
    import rqsim

    workload.build_graph(rqsim, np.random.default_rng(seed))
    return {"setup_s": time.process_time() - t0}


def sweep(workload, seed: int, trials: int, workers: int, trace_path: str | None) -> dict:
    import rqsim

    run = rqsim.run_experiment
    tracer = None
    if trace_path:
        from tracer import SWEEP_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(SWEEP_SPAN, run)

    # Untraced sweeps run with a host-speed sampler on every CPU.
    samplers = Samplers(os.sched_getaffinity(0)) if tracer is None else contextlib.nullcontext()
    rows = []
    wall = cpu = steal = 0.0
    with samplers:
        for kwargs in workload.configs(seed, trials, workers):
            config = rqsim.ExperimentConfig(**kwargs)
            s0 = stolen_s()
            c0 = time.process_time()
            t0 = time.perf_counter()
            rows.extend(run(config))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            steal += stolen_s() - s0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "slowdown": getattr(samplers, "slowdown", None),
        "sampler_cpu_s": getattr(samplers, "cpu_s", None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv": rqsim.rows_to_csv(rows, zero_timing=True),
        "rows": json.loads(rqsim.rows_to_json(rows, zero_timing=True)),
    }
    if tracer is not None:
        tracer.write(trace_path)
        result["span_cost_s"] = tracer.span_cost()
    return result


def verify(workload, seed: int) -> dict:
    """Compare rqsim's likelihood tables with the oracle's on snapshots
    drawn from ``seed``: the full table, and a random subset of
    candidates scored through the ``nodes`` argument."""
    import numpy as np
    import rqsim
    from oracle import compare, oracle_scores

    rng = np.random.default_rng(seed)
    graph = None
    failures, worst, loopy = [], 0.0, 0
    for i in range(workload.check_snapshots):
        if graph is None or not workload.fixed_graph:
            graph = workload.build_graph(rqsim, rng)
        source = int(rng.integers(graph.n)) if graph.is_finite else 0
        snapshot = rqsim.simulate_si(graph, source, N_INFECTED, rng)
        infected = json.loads(snapshot.to_json())["infected_order"]
        want = oracle_scores(graph, infected)
        loopy += not snapshot.is_tree
        subset = sorted(int(v) for v in rng.choice(infected, size=SUBSET, replace=False))
        for label, got, expected in (
            ("full table", rqsim.likelihood_table(snapshot), want),
            (f"{SUBSET} nodes", rqsim.likelihood_table(snapshot, subset), {v: want[v] for v in subset}),
        ):
            diff, reason = compare(got, expected)
            worst = max(worst, diff)
            if reason:
                failures.append(f"snapshot {i} ({label}): {reason}")
    return {"snapshots": workload.check_snapshots, "loopy": loopy, "max_diff": worst,
            "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("step", choices=("setup", "sweep", "verify"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int)
    ap.add_argument("--workers", type=int)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "setup":
        result = setup(workload, args.seed)
    elif args.step == "verify":
        result = verify(workload, args.seed)
    else:
        result = sweep(workload, args.seed, args.trials, args.workers, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
