"""Command-line interface.

Subcommands:

* ``simulate``   -- run a Monte Carlo sweep and emit CSV or JSON rows
* ``budget``     -- evaluate a closed-form budget threshold
* ``rstar``      -- evaluate a closed-form repetition count
* ``centrality`` -- print the top-k likelihood table of a snapshot file
* ``oracle``     -- exact reference computations (distance law, ordering counts)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import budget as _budget
from .centrality import brute_force_rumor_centrality, log_rumor_centralities
from .diffusion import Snapshot, distance_distribution
from .errors import InvalidParameterError, RQSimError
from .harness import ExperimentConfig, rows_to_csv, rows_to_json, run_experiment


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    # Unset flags stay out of the namespace, so that they do not override the config file.
    p = sub.add_parser("simulate", help="run a Monte Carlo detection sweep",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="JSON file of flat key/value options (flags override)")
    p.add_argument("--graph", help="graph spec, e.g. regular:3, gw:10, er:2000:4, sf:2000:1.5, edgelist:PATH")
    p.add_argument("--n", type=int, help="number of infected nodes (default 400)")
    p.add_argument("--scheme", choices=("na", "ad"), help="querying scheme")
    p.add_argument("--k", help="budget value or comma list; 0 = no-query baseline")
    p.add_argument("--r", type=int, help="fixed repetition count (overrides --rstar)")
    p.add_argument("--rstar", choices=("necessary", "sufficient"),
                   help="derive r from the closed form (default: sufficient)")
    p.add_argument("--p", help="identity truth probability, value or comma list")
    p.add_argument("--q", help="direction truth probability, value or comma list")
    p.add_argument("--trials", type=int, help="trials per combination (default 200)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--candidate-order", choices=("hop", "centrality"),
                   help="batch candidate ordering (default hop)")
    p.add_argument("--fixed-graph", action="store_true",
                   help="pin one random graph instance instead of regenerating per trial "
                   "(no effect on regular:, where every trial grows its own tree)")
    p.add_argument("--threads", type=int,
                   help="worker processes (default: the CPUs this process may run on)")
    p.add_argument("--format", choices=("csv", "json"),
                   help="output format (default csv); a failed row's CSV line reads detections 0 "
                   "with nan p_hat, ci_lo, ci_hi and mean_budget: its error is on stderr and in json")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--zero-timing", action="store_true",
                   help="blank the wall_time_ms column for byte-reproducible output")


def _cmd_simulate(args: argparse.Namespace) -> int:
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    opts = {}
    if "config" in args:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                opts = json.load(fh)
            except ValueError as exc:  # undecodable text as well as text that is not JSON
                raise InvalidParameterError(f"{args.config}: not a JSON document: {exc}") from None
        if not isinstance(opts, dict):
            raise InvalidParameterError(f"{args.config}: the config must be a JSON object")
    if "r" in flags or "rstar" in flags:  # a flag's r rule replaces the file's
        for key in ("r", "rstar", "r_mode"):
            opts.pop(key, None)
    opts.update(flags)
    if any(key not in opts for key in ("graph", "scheme", "k", "p", "q")):
        print("simulate: --graph, --scheme, --k, --p and --q are required", file=sys.stderr)
        return 2
    fmt = opts.pop("format", "csv")
    output = opts.pop("output", None)
    zero_timing = opts.pop("zero_timing", False)
    if fmt not in ("csv", "json") or not isinstance(output, (str, type(None))) or (
        type(zero_timing) is not bool
    ):
        raise InvalidParameterError(
            f"bad format, output or zero_timing option: {fmt!r}, {output!r}, {zero_timing!r}"
        )
    config = ExperimentConfig.from_mapping(opts)
    # Opened before the sweep, so that a bad path fails before any trial
    # runs, and for appending, so that a failed sweep leaves the file as it
    # was.  A pipe or FIFO cannot be truncated, nor does it need to be.
    with open(output, "a", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as out:
        rows = run_experiment(config)
        if output and out.seekable():
            out.seek(0)
            out.truncate()
        out.write((rows_to_json if fmt == "json" else rows_to_csv)(rows, zero_timing))
    return 0


def _add_budget(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("budget", help="closed-form budget threshold")
    p.add_argument("--scheme", choices=("na", "ad"), required=True)
    p.add_argument("--kind", choices=("necessary", "sufficient"), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--ht", type=float, help="entropy of the infection-time vector (necessary bounds)")
    p.add_argument("--c", type=float, help="leading constant (necessary bounds; default 1)")
    p.add_argument("--r", type=int, help="repetition count for the default H(T) bound (necessary, no --ht)")


def _cmd_budget(args: argparse.Namespace) -> int:
    # A flag that the evaluation does not read is refused rather than dropped.
    if args.kind == "sufficient":
        unread, reader = ("ht", "c", "r"), "a sufficient budget"
    else:
        unread, reader = ("r",) if args.ht is not None else (), "a necessary budget with --ht"
    for name in unread:
        if getattr(args, name) is not None:
            raise InvalidParameterError(f"--{name} is not read by {reader}")
    inputs = _budget.BudgetInputs(
        delta=args.delta, d=args.d, p=args.p, q=args.q, h_t=args.ht,
        c_const=1.0 if args.c is None else args.c,
    )
    value = _budget.budget_threshold(args.scheme, args.kind, inputs, args.r)
    print("scheme,kind,delta,d,p,q,K")
    print(f"{args.scheme},{args.kind},{args.delta:g},{args.d},{args.p:g},{args.q:g},{value:.6g}")
    return 0


def _add_rstar(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("rstar", help="closed-form repetition count")
    p.add_argument("--scheme", choices=("na", "ad"), required=True)
    p.add_argument("--kind", choices=("necessary", "sufficient"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k", type=int, required=True)


def _cmd_rstar(args: argparse.Namespace) -> int:
    print(_budget.choose_r_star(args.scheme, args.kind, args.k, args.d, args.p, args.q))
    return 0


def _add_centrality(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("centrality", help="top-k likelihood table for a snapshot JSON file")
    p.add_argument("--snapshot", required=True, help="snapshot JSON path (see Snapshot.to_json)")
    p.add_argument("--top", type=int, default=10)


def _cmd_centrality(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise InvalidParameterError(f"--top must be at least 1, got {args.top}")
    with open(args.snapshot, "r", encoding="utf-8") as fh:
        snap = Snapshot.from_json(fh)
    print("note: the snapshot file carries no graph; scores are those of its parent-edge tree",
          file=sys.stderr)
    table = log_rumor_centralities(snap)
    ranked = sorted(table.log_r.items(), key=lambda kv: (-kv[1], kv[0]))
    print("rank,node,log_score,is_center")
    for rank, (node, score) in enumerate(ranked[: args.top], start=1):
        print(f"{rank},{node},{score:.6f},{int(node == table.center)}")
    return 0


def _add_oracle(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("oracle", help="exact reference computations")
    kinds = p.add_subparsers(dest="oracle_kind", required=True)

    dist = kinds.add_parser("distance", help="law of the k-th infection's hop distance")
    dist.add_argument("--d", type=int, required=True)
    dist.add_argument("--k", type=int, required=True)

    brute = kinds.add_parser("orderings", help="brute-force infection-ordering counts")
    brute.add_argument("--snapshot", required=True, help="snapshot JSON path (at most 10 nodes)")


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.oracle_kind == "distance":
        # l = 1 is computed even when k < 2, so that d and k are checked
        # before anything is printed.
        probs = [distance_distribution(args.d, args.k, l) for l in range(1, max(args.k, 2))]
        print("l,probability")
        total = 0.0
        for l, prob in enumerate(probs, start=1):
            total += prob
            print(f"{l},{prob:.10f}")
        print(f"sum,{total:.10f}")
        return 0
    with open(args.snapshot, "r", encoding="utf-8") as fh:
        snap = Snapshot.from_json(fh)
    # Counted before anything is printed, so that a snapshot above 10 nodes prints only the error.
    counts = [brute_force_rumor_centrality(snap, root) for root in snap.infected]
    print("root,orderings")
    for root, ways in zip(snap.infected, counts):
        print(f"{root},{ways}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rqsim",
        description="Diffusion source finding by budgeted querying of noisy respondents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_budget(sub)
    _add_rstar(sub)
    _add_centrality(sub)
    _add_oracle(sub)

    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "budget": _cmd_budget,
        "rstar": _cmd_rstar,
        "centrality": _cmd_centrality,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (RQSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
