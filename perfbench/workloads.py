"""The benchmark's workloads: fixed rqsim sweeps at N = 400, p = q = 0.8.

This module does not import rqsim, so the set-up probe can time that
import from a clean interpreter. See README.md for why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

N_INFECTED = 400
P = Q = 0.8
R_MODE = "rstar:sufficient"

@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    #: One ``run_experiment`` call per (scheme, budgets) entry, in order.
    sweeps: tuple[tuple[str, tuple[int, ...]], ...]
    fixed_graph: bool
    #: Sizing constant close to the 1-worker trials per second at the
    #: commit that introduced the benchmark (2 vCPUs), so that the 1-worker
    #: run lasts roughly ``--seconds`` there. The trial count is then fixed,
    #: so a faster commit runs the same work in less time.
    nominal_rate: float
    #: Builds the workload's graph through rqsim's public generator.
    build_graph: Callable[[object, object], object]
    #: Snapshots whose likelihood tables are checked against the oracle.
    check_snapshots: int

    @property
    def rows(self) -> int:
        return sum(len(budgets) for _, budgets in self.sweeps)

    def trials_per_row(self, seconds: float) -> int:
        return max(2, round(seconds * self.nominal_rate / self.rows))

    def configs(self, seed: int, trials: int, workers: int) -> list[dict]:
        """Keyword arguments of each ``rqsim.ExperimentConfig`` in the sweep."""
        return [
            dict(
                graph=self.graph,
                scheme=scheme,
                budgets=budgets,
                p_values=(P,),
                q_values=(Q,),
                n_infected=N_INFECTED,
                r_mode=R_MODE,
                trials=trials,
                master_seed=seed,
                fixed_graph=self.fixed_graph,
                threads=workers,
            )
            for scheme, budgets in self.sweeps
        ]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="tree_grid",
            graph="regular:3",
            sweeps=(("na", (0, 50, 100, 200, 400)), ("ad", (50, 100, 200, 400))),
            fixed_graph=False,
            nominal_rate=200.0,
            build_graph=lambda rqsim, rng: rqsim.make_regular_tree(3),
            check_snapshots=3,
        ),
        Workload(
            name="loopy_single",
            graph="er:2000:4",
            sweeps=(("na", (200,)),),
            fixed_graph=False,
            nominal_rate=1.8,
            build_graph=lambda rqsim, rng: rqsim.make_erdos_renyi(2000, 4.0, rng),
            check_snapshots=2,
        ),
        Workload(
            name="dense_pinned",
            graph="sf:4039:22",
            sweeps=(("ad", (50, 200)),),
            fixed_graph=True,
            nominal_rate=1.0,
            build_graph=lambda rqsim, rng: rqsim.make_scale_free(4039, 22.0, rng),
            check_snapshots=1,
        ),
    )
}
