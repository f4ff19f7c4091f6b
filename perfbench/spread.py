"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tree_grid --seeds 1 10 [--trace 0] [--seconds S]

For each metric it prints the median and the interquartile range (from
``statistics.quantiles(values, n=4)``) as a share of the median; a metric
is steady when that share is well inside its bound in BENCHMARK.json.
``--save`` stores the medians and spreads in ``perfbench/baseline.json``
under ``measured``, with the environment they were measured in. Runs are
sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import numpy

from run import HERE, ROOT, nproc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    first, last = args.seeds
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                          if k in bounds or args.trace), file=sys.stderr)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else None
        summary[name] = {"median": med, "iqr_over_median": spread}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:<28} median {med:<12.6g} iqr/median {spread}{flag}")

    if args.save:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        key = "per_layer" if args.trace else "end_to_end"
        doc["environment"] = {"nproc": nproc(), "python": platform.python_version(),
                              "numpy": numpy.__version__, "machine": platform.machine()}
        doc.setdefault("measured", {}).setdefault(args.workload, {})[key] = {
            "seeds": f"{first}-{last}", "seconds": seconds, "metrics": summary}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
