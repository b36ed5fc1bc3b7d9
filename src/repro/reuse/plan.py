"""Reuse plan representation shared by all reuse algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.dag import WorkloadDAG

__all__ = ["ReusePlan"]


@dataclass
class ReusePlan:
    """Which vertices of a workload DAG to load from the Experiment Graph.

    ``loads`` is the final (backward-pass-pruned) set of vertices the client
    should retrieve instead of computing.  ``recreation_costs`` records the
    per-vertex cost the planner assigned, and ``estimated_cost`` the total
    predicted cost of producing all terminal vertices under the plan.
    """

    loads: set[str] = field(default_factory=set)
    recreation_costs: dict[str, float] = field(default_factory=dict)
    estimated_cost: float = 0.0
    #: name of the algorithm that produced the plan (for experiment logs)
    algorithm: str = ""

    def plan_cost(self, workload: WorkloadDAG, eg, load_cost_model) -> float:
        """Objective value of the plan: load costs plus executed compute.

        Each executed vertex is counted once (unlike the forward pass's
        per-vertex recreation costs, which double-count shared ancestors
        for comparison purposes).  Vertices unknown to the EG contribute 0.
        """
        total = 0.0
        for vertex_id in self.loads:
            if vertex_id in eg:
                total += load_cost_model.cost_for_tier(
                    eg.vertex(vertex_id).size, eg.tier_of(vertex_id)
                )
        for vertex_id in self.execution_set(workload):
            if vertex_id in eg:
                total += eg.vertex(vertex_id).compute_time
        return total

    def execution_set(self, workload: WorkloadDAG) -> set[str]:
        """Vertices that must be *executed* under this plan.

        Walk backwards from the terminals and stop at loaded or already
        computed vertices.
        """
        needed: set[str] = set()
        stack = list(workload.terminals)
        visited: set[str] = set()
        while stack:
            vertex_id = stack.pop()
            if vertex_id in visited:
                continue
            visited.add(vertex_id)
            vertex = workload.vertex(vertex_id)
            if vertex_id in self.loads or vertex.computed:
                continue
            if not vertex.is_supernode:
                needed.add(vertex_id)
            stack.extend(workload.parents(vertex_id))
        return needed
