"""Record the reference detections that the correctness gate compares against.

    python3 perfbench/reference.py --workload tree_grid --seeds 1000 1019 --trials 100

Runs the workload's sweep at all workers once per master seed in the
inclusive range, pools detections and trials per row, and stores them
under ``reference`` in ``perfbench/baseline.json``. Use seeds that the
benchmark is not normally run with, so that the reference stays
independent of the runs it judges.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, nproc, run_child
from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    ap.add_argument("--trials", type=int, required=True, help="trials per row and seed")
    args = ap.parse_args(argv)

    pooled: dict[str, dict[str, int]] = {}
    first, last = args.seeds
    for seed in range(first, last + 1):
        result = run_child("sweep", None, workload=args.workload, seed=seed,
                           trials=args.trials, workers=nproc())
        for row in result["rows"]:
            if row["error"]:
                raise SystemExit(f"seed {seed}: row K={row['K']} failed: {row['error']}")
            ref = pooled.setdefault(f"{row['scheme']}:{row['K']}", {"detections": 0, "trials": 0})
            ref["detections"] += row["detections"]
            ref["trials"] += row["trials"]

    path = HERE / "baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc.setdefault("reference", {})[args.workload] = dict(
        pooled, seeds=f"{first}-{last}", trials_per_seed=args.trials
    )
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(doc["reference"][args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
