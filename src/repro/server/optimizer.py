"""Server-side optimizer (paper Section 3.2, Step 3).

Receives a (locally pruned) workload DAG, queries the Experiment Graph for
materialized artifacts, runs the configured reuse algorithm to produce the
optimal execution plan, and — when warmstarting is enabled — matches the
remaining training operations to stored initializer models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..eg.graph import ExperimentGraph
from ..eg.storage import StorageTier
from ..graph.dag import WorkloadDAG
from ..obs.trace import get_tracer
from ..reuse.plan import ReusePlan
from ..reuse.warmstart import WarmstartAssignment, find_warmstart_assignments

__all__ = ["Optimizer", "OptimizationResult"]


@dataclass
class OptimizationResult:
    """Plan plus warmstart assignments and planning overhead."""

    plan: ReusePlan
    warmstarts: list[WarmstartAssignment] = field(default_factory=list)
    #: seconds spent inside the reuse algorithm (Figure 9d's overhead)
    planning_seconds: float = 0.0
    #: tier each planned load resides in at planning time — the placement
    #: the reuse algorithm priced, recorded for observability (the client
    #: re-reads tiers at execution time; they can only have warmed since)
    load_tiers: dict[str, StorageTier] = field(default_factory=dict)

    @property
    def planned_cold_loads(self) -> int:
        return sum(1 for tier in self.load_tiers.values() if tier is StorageTier.COLD)


class Optimizer:
    """Generates optimized execution plans against the Experiment Graph."""

    def __init__(
        self,
        eg: ExperimentGraph,
        reuse_algorithm,
        warmstarting: bool = False,
    ):
        self.eg = eg
        self.reuse_algorithm = reuse_algorithm
        self.warmstarting = warmstarting

    def optimize(self, workload: WorkloadDAG) -> OptimizationResult:
        with get_tracer().span(
            "optimizer.optimize", warmstarting=self.warmstarting
        ) as span:
            started = time.perf_counter()
            plan = self.reuse_algorithm.plan(workload, self.eg)
            planning_seconds = time.perf_counter() - started

            warmstarts: list[WarmstartAssignment] = []
            if self.warmstarting:
                warmstarts = find_warmstart_assignments(workload, self.eg, plan)
            load_tiers = {
                vertex_id: self.eg.tier_of(vertex_id) for vertex_id in plan.loads
            }
            span.set_attribute("loads", len(plan.loads))
            span.set_attribute("warmstarts", len(warmstarts))
            return OptimizationResult(
                plan=plan,
                warmstarts=warmstarts,
                planning_seconds=planning_seconds,
                load_tiers=load_tiers,
            )
