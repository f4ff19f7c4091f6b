"""The row-major sweep trial as first written, kept as a differential oracle.

``rqsim.harness._run_single_trial`` now runs one trial of every row on one
shared snapshot; this module keeps the original per-(row, trial) trial
unchanged, so the tests can check that a single-row sweep, and row 0 of
any sweep, still draw exactly the same numbers.
"""

from __future__ import annotations

import numpy as np

from rqsim.centrality import likelihood_table, pick_best
from rqsim.diffusion import simulate_si
from rqsim.errors import RQSimError
from rqsim.estimators import ADConfig, NAConfig, run_mvad, run_mvna
from rqsim.harness import ExperimentConfig, _build_graph
from rqsim.respondent import TruthModel


def _run_single_trial(
    config: ExperimentConfig, row_index: int, K: int, r: int, p: float, q: float, trial_index: int
) -> tuple[int, int]:
    """Returns (detected, budget_used) for one trial of the row (K, r, p, q)."""
    seq = np.random.SeedSequence(entropy=config.master_seed, spawn_key=(row_index, trial_index))
    rng = np.random.default_rng(seq)
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

    if K == 0:
        table = likelihood_table(snapshot)
        estimate = pick_best(table, table)
        return int(estimate == source), 0

    model = TruthModel(p=p, q=q)
    if config.scheme == "na":
        outcome = run_mvna(
            snapshot,
            NAConfig(budget=K, repetitions=r, candidate_order=config.candidate_order),
            model,
            rng,
        )
    else:
        outcome = run_mvad(snapshot, ADConfig(budget=K, repetitions=r), model, rng)
    return int(outcome.estimate == source), outcome.budget_used
