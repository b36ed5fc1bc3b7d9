"""ML-based greedy materialization — Algorithm 1 of the paper ("HM").

Vertices are ranked by the utility function (Equation 2) and materialized
greedily until the byte budget is exhausted.  Each invocation re-evaluates
the utilities of the incoming workload's vertices *and* of the currently
materialized set, so low-utility artifacts can be evicted when better
candidates arrive (the behaviour Figure 6 of the paper depends on).
"""

from __future__ import annotations

import heapq

from ..eg.storage import LoadCostModel
from .base import UtilityMaterializer

__all__ = ["HeuristicMaterializer"]


class HeuristicMaterializer(UtilityMaterializer):
    """Greedy utility-driven artifact selection (paper Algorithm 1)."""

    name = "HM"

    def __init__(
        self,
        budget_bytes: float | None,
        alpha: float = 0.5,
        load_cost_model: LoadCostModel | None = None,
        max_artifacts: int | None = None,
    ):
        super().__init__(budget_bytes, alpha, load_cost_model)
        #: optional cap on the *number* of artifacts (paper's Figure 8b uses
        #: a budget of "one artifact" to isolate the effect of alpha)
        self.max_artifacts = max_artifacts

    def _route(self, eg, stored, available) -> str:
        capped = self.max_artifacts is not None
        return "budget" if capped else super()._route(eg, stored, available)

    def _fill(self, utilities, heap, available) -> set[str]:
        selected: set[str] = set()
        spent = 0.0
        while heap:
            _neg_utility, _neg_cr, vertex_id = heapq.heappop(heap)
            size = utilities[vertex_id].size
            if self.budget_bytes is not None and spent + size > self.budget_bytes:
                continue
            if self.max_artifacts is not None and len(selected) >= self.max_artifacts:
                break
            selected.add(vertex_id)
            spent += size
        return selected
