"""SI diffusion as one scalar loop, kept as a differential oracle.

``rqsim.diffusion.simulate_si`` draws every pick of a fresh regular tree
spread from its root in one broadcast call and expands the tree in one
pass.  This module keeps the scalar loop it replaced unchanged (one
``rng.integers`` call per pick, the tree grown by ``neighbors`` calls), so
the tests can require the same snapshot, the same expanded tree and the
same generator state from both.
"""

from __future__ import annotations

import numpy as np

from rqsim.diffusion import Snapshot
from rqsim.errors import InfeasibleTargetError, InvalidParameterError


def simulate_si(graph, source: int, n_target: int, rng: np.random.Generator) -> Snapshot:
    """Spread from ``source`` until exactly ``n_target`` nodes are infected.

    Each step selects one boundary edge uniformly at random; its infected
    endpoint becomes the new node's parent.  Raises
    :class:`InfeasibleTargetError` when the reachable component is smaller
    than ``n_target``.
    """
    if n_target < 1:
        raise InvalidParameterError(f"n_target must be >= 1, got {n_target}")
    index, parent_pos = {source: 0}, [-1]  # index keeps the infection order
    # (position of the infected endpoint, susceptible endpoint)
    boundary: list[tuple[int, int]] = [(0, w) for w in graph.neighbors(source)]

    while len(index) < n_target:
        # Stale entries (already-infected targets) are discarded lazily;
        # redrawing keeps the pick uniform over the live boundary.
        while boundary:
            i = int(rng.integers(len(boundary)))
            u, v = boundary[i]
            boundary[i] = boundary[-1]
            boundary.pop()
            if v not in index:
                break
        else:
            raise InfeasibleTargetError(
                f"reachable component exhausted at {len(index)} < {n_target} nodes"
            )
        index[v] = pos = len(index)
        parent_pos.append(u)
        for w in graph.neighbors(v):
            if w not in index:
                boundary.append((pos, w))

    return Snapshot(graph, tuple(index), parent_pos, index)
