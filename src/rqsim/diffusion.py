"""Susceptible-infected diffusion with unit-rate exponential edge delays.

Because the delays are memoryless, drawing the next infected node by
picking a boundary edge (infected endpoint, susceptible endpoint)
uniformly at random is exactly equivalent in law to running the race of
exponential clocks, and costs O(1) amortized per step.  The spreading
rate is fixed at 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import InfeasibleTargetError, InvalidInputError, InvalidParameterError


@dataclass(frozen=True, eq=False)
class Snapshot:
    """An observed infection: who is infected, in what order, spread by whom.

    ``infected`` lists nodes in infection order (``infected[0]`` is the
    source); ``parent`` maps every infected node except the source to the
    neighbor that infected it.  The parent edges form a tree rooted at the
    source.  ``graph`` is the underlying graph the diffusion ran on (may
    be ``None`` for snapshots restored from JSON without their graph).
    """

    graph: object
    source: int
    infected: tuple[int, ...]
    parent: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.infected)

    @cached_property
    def infected_set(self) -> frozenset[int]:
        return frozenset(self.infected)

    @cached_property
    def induced_adjacency(self) -> dict[int, list[int]]:
        """Adjacency of the infected-induced subgraph of ``graph``, sorted.

        Without a graph this is the parent-edge tree, the only edges known.
        """
        if self.graph is None:
            adj: dict[int, list[int]] = {v: [] for v in self.infected}
            for child, par in self.parent.items():
                adj[child].append(par)
                adj[par].append(child)
            for lst in adj.values():
                lst.sort()
            return adj
        members = self.infected_set
        return {
            v: sorted(w for w in self.graph.neighbors(v) if w in members)
            for v in self.infected
        }

    @cached_property
    def induced_edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.induced_adjacency.values()) // 2

    @cached_property
    def is_tree(self) -> bool:
        """True when the infected-induced subgraph is itself a tree."""
        return self.induced_edge_count == self.n - 1

    @cached_property
    def hops_from_source(self) -> dict[int, int]:
        """Hop distance to the source along the parent-edge tree."""
        hops = {self.source: 0}
        for v in self.infected[1:]:
            hops[v] = hops[self.parent[v]] + 1
        return hops

    def to_json(self) -> str:
        """Serialize to JSON (``source``, ``infected_order``, ``parent_pairs``)."""
        doc = {
            "source": self.source,
            "infected_order": list(self.infected),
            "parent_pairs": sorted((c, p) for c, p in self.parent.items()),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text_or_fp: str | IO[str]) -> "Snapshot":
        """Rebuild a graph-less snapshot from :meth:`to_json` output."""
        if hasattr(text_or_fp, "read"):
            doc = json.load(text_or_fp)
        else:
            doc = json.loads(text_or_fp)
        pairs = doc["parent_pairs"]
        snap = Snapshot(
            graph=None,
            source=int(doc["source"]),
            infected=tuple(int(v) for v in doc["infected_order"]),
            parent={int(c): int(p) for c, p in pairs},
        )
        _validate_snapshot(snap)
        # Every later node has an entry, so one more names the source, a
        # node outside the order, or a node twice.
        if len(pairs) != snap.n - 1:
            raise InvalidInputError("need exactly one parent entry per non-source infected node")
        return snap


def _validate_snapshot(snap: Snapshot) -> None:
    if not snap.infected or snap.infected[0] != snap.source:
        raise InvalidInputError("infection order must start at the source")
    seen = {snap.source}
    for v in snap.infected[1:]:
        par = snap.parent.get(v)
        if par is None or par not in seen:
            raise InvalidInputError(f"node {v} has no earlier parent in the order")
        seen.add(v)
    if len(seen) != len(snap.infected):
        raise InvalidInputError("infection order contains duplicates")


def simulate_si(graph, source: int, n_target: int, rng: np.random.Generator) -> Snapshot:
    """Spread from ``source`` until exactly ``n_target`` nodes are infected.

    Each step selects one boundary edge uniformly at random; its infected
    endpoint becomes the new node's parent.  Raises
    :class:`InfeasibleTargetError` when the reachable component is smaller
    than ``n_target``.
    """
    if n_target < 1:
        raise InvalidParameterError(f"n_target must be >= 1, got {n_target}")
    order = [source]
    infected = {source}
    parent: dict[int, int] = {}
    boundary: list[tuple[int, int]] = [(source, w) for w in graph.neighbors(source)]

    while len(order) < n_target:
        # Stale entries (already-infected targets) are discarded lazily;
        # redrawing keeps the pick uniform over the live boundary.
        while boundary:
            i = int(rng.integers(len(boundary)))
            u, v = boundary[i]
            boundary[i] = boundary[-1]
            boundary.pop()
            if v not in infected:
                break
        else:
            raise InfeasibleTargetError(
                f"reachable component exhausted at {len(order)} < {n_target} nodes"
            )
        infected.add(v)
        order.append(v)
        parent[v] = u
        for w in graph.neighbors(v):
            if w not in infected:
                boundary.append((v, w))

    return Snapshot(graph=graph, source=source, infected=tuple(order), parent=parent)


def _symmetric_sums(a: int, b_max: int, d: int) -> list[int]:
    """Elementary symmetric sums e_0..e_b of x_i = 1 + i(d-2), i = 1..a.

    Standard one-row dynamic programming; exact integer arithmetic.
    """
    e = [0] * (b_max + 1)
    e[0] = 1
    for i in range(1, a + 1):
        x = 1 + i * (d - 2)
        for j in range(min(i, b_max), 0, -1):
            e[j] += x * e[j - 1]
    return e


def distance_distribution(d: int, k: int, l: int) -> float:
    """P(the k-th infected node sits l hops from the source) on a d-regular tree.

    Exact closed form: the number of size-k infection topologies placing
    the k-th node at distance l, over the total number of topologies.
    Returns 0.0 for l outside [1, k-1].
    """
    if d < 3:
        raise InvalidParameterError(f"d must be >= 3, got {d}")
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if not 1 <= l <= k - 1:
        return 0.0
    a, b = k - 2, k - l - 1
    num = _symmetric_sums(a, b, d)[b] * d * (d - 1) ** (l - 1)
    den = 1
    for j in range(1, k):
        den *= 2 + j * (d - 2)
    return num / den
