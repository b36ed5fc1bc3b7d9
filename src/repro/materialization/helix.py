"""Helix materialization baseline ("HL", paper Section 7.1).

Helix (Xin et al., VLDB 2018) materializes an artifact when its recreation
cost exceeds twice its load cost (Algorithm 2 of the Helix paper).  It does
not rank artifacts against each other: it walks the graph from the root
(sources) in topological order and stores every qualifying artifact until
the budget runs out.  The consequence the paper highlights (Figures 6-7) is
that early artifacts exhaust the budget and high-utility artifacts near the
end of a workload are never materialized.
"""

from __future__ import annotations

from typing import Any, Mapping

import networkx as nx

from ..eg.graph import ExperimentGraph
from ..eg.storage import LoadCostModel
from .base import Materializer

__all__ = ["HelixMaterializer"]


class HelixMaterializer(Materializer):
    """Materialize-from-the-root when C_r(v) > 2 · C_l(v), until budget."""

    name = "HL"

    def __init__(
        self,
        budget_bytes: float | None,
        load_cost_model: LoadCostModel | None = None,
        cost_ratio: float = 2.0,
    ):
        super().__init__(budget_bytes)
        if cost_ratio <= 0.0:
            raise ValueError("cost_ratio must be positive")
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )
        self.cost_ratio = cost_ratio

    def select(self, eg: ExperimentGraph, available: Mapping[str, Any]) -> set[str]:
        recreation = eg.recreation_costs()
        selected: set[str] = set()
        spent = 0.0
        # Helix keeps whatever it stored earlier; previously materialized
        # vertices occupy budget first, in the same root-first order.
        previously = eg.stored_ids()
        ordering = list(nx.topological_sort(eg.graph))
        for pass_previous in (True, False):
            for vertex_id in ordering:
                vertex = eg.vertex(vertex_id)
                if vertex.is_supernode or vertex.is_source or vertex.size <= 0:
                    continue
                if pass_previous != (vertex_id in previously):
                    continue
                if vertex_id in selected or vertex_id not in available:
                    continue
                load_cost = self.load_cost_model.cost_for_tier(
                    vertex.size, eg.tier_of(vertex_id)
                )
                if recreation[vertex_id] <= self.cost_ratio * load_cost:
                    continue
                if self.budget_bytes is not None and spent + vertex.size > self.budget_bytes:
                    continue
                selected.add(vertex_id)
                spent += vertex.size
        return selected
