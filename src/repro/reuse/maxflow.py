"""Edmonds–Karp maximum flow / minimum cut.

The Helix reuse baseline reduces plan selection to the project-selection
problem and solves it with max-flow; the paper's implementation (and ours)
uses Edmonds–Karp, which runs in O(|V| · |E|²) — the polynomial overhead
that Figure 9(d) contrasts with the linear-time algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """A capacitated directed graph supporting max-flow and min-cut queries."""

    def __init__(self):
        #: adjacency: node -> {neighbor -> residual capacity}
        self._capacity: dict[Hashable, dict[Hashable, float]] = {}

    def add_edge(self, u: Hashable, v: Hashable, capacity: float) -> None:
        """Add (or widen) a directed edge; reverse residual edges are implicit."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity.setdefault(u, {})
        self._capacity.setdefault(v, {})
        self._capacity[u][v] = self._capacity[u].get(v, 0.0) + capacity
        self._capacity[v].setdefault(u, 0.0)

    def _bfs_augmenting_path(
        self, source: Hashable, sink: Hashable
    ) -> list[Hashable] | None:
        parent: dict[Hashable, Hashable] = {source: source}
        queue: deque[Hashable] = deque([source])
        while queue:
            u = queue.popleft()
            for v, residual in self._capacity[u].items():
                if residual > 1e-12 and v not in parent:
                    parent[v] = u
                    if v == sink:
                        path = [v]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    queue.append(v)
        return None

    def max_flow(self, source: Hashable, sink: Hashable) -> float:
        """Run Edmonds–Karp; mutates residual capacities in place."""
        if source not in self._capacity or sink not in self._capacity:
            return 0.0
        total = 0.0
        while True:
            path = self._bfs_augmenting_path(source, sink)
            if path is None:
                return total
            bottleneck = min(
                self._capacity[u][v] for u, v in zip(path, path[1:])
            )
            for u, v in zip(path, path[1:]):
                self._capacity[u][v] -= bottleneck
                self._capacity[v][u] += bottleneck
            total += bottleneck

    def min_cut_source_side(self, source: Hashable) -> set[Hashable]:
        """Nodes reachable from the source in the residual graph.

        Only meaningful after :meth:`max_flow` has run.
        """
        reachable: set[Hashable] = {source}
        queue: deque[Hashable] = deque([source])
        while queue:
            u = queue.popleft()
            for v, residual in self._capacity[u].items():
                if residual > 1e-12 and v not in reachable:
                    reachable.add(v)
                    queue.append(v)
        return reachable
