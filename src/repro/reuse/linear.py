"""Linear-time reuse — Algorithm 2 of the paper plus the backward pass.

**Forward pass.**  Visit the workload DAG in topological order keeping, for
every vertex, its *recreation cost* — the cheapest way to have it available:

* already computed in the client (cost 0),
* loaded from the Experiment Graph (cost ``C_l``), or
* executed from its parents (cost ``C_i`` + parents' recreation costs).

Whenever loading is strictly cheaper than executing, the vertex joins the
candidate reuse set ``R``.

**Backward pass.**  Walking back from the terminal vertices, keep only the
reuse candidates actually on the chosen execution frontier: once a loaded
(or computed) vertex is reached, its ancestors are irrelevant and any reuse
candidates above it are dropped.

Both passes visit each vertex once — O(|V| + |E|) total.

Reproduction note: the forward pass sums parents' recreation costs, which
double-counts an ancestor shared by several children.  When two
materialized siblings share an expensive *unmaterialized* ancestor, each
sibling's execution cost includes that ancestor separately, so the
algorithm may load both siblings even though computing the ancestor once
and deriving both would be cheaper.  On such diamond instances the plan can
cost more than the min-cut optimum (see
``tests/test_properties.py::TestPlannerProperties``); on the paper's
workloads — whose reuse frontiers are tree-like — the plans match Helix
exactly, as the paper reports in Section 7.4.
"""

from __future__ import annotations

import logging

from ..eg.graph import ExperimentGraph
from ..eg.storage import LoadCostModel
from ..graph.dag import WorkloadDAG
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .plan import ReusePlan

__all__ = ["LinearReuse"]

_INF = float("inf")

logger = logging.getLogger(__name__)


class LinearReuse:
    """The paper's linear-time reuse algorithm ("LN")."""

    name = "LN"

    def __init__(
        self,
        load_cost_model: LoadCostModel | None = None,
        backward_pass: bool = True,
    ):
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )
        #: ablation knob: without the backward pass, every forward-pass
        #: candidate is loaded, including ones above the execution frontier
        self.backward_pass = backward_pass

    # ------------------------------------------------------------------
    def plan(self, workload: WorkloadDAG, eg: ExperimentGraph) -> ReusePlan:
        """Compute the optimal load/compute plan for a workload DAG."""
        with get_tracer().span(
            "reuse.plan", algorithm=self.name, vertices=workload.num_vertices
        ) as span:
            recreation_cost, candidates = self._forward_pass(workload, eg)
            if self.backward_pass:
                loads = self._backward_pass(workload, candidates)
            else:
                loads = candidates
            plan = ReusePlan(
                loads=loads,
                recreation_costs=recreation_cost,
                algorithm=self.name,
            )
            plan.estimated_cost = plan.plan_cost(workload, eg, self.load_cost_model)
            span.set_attribute("candidates", len(candidates))
            span.set_attribute("loads", len(loads))
            span.set_attribute("estimated_cost", plan.estimated_cost)
        registry = get_registry()
        registry.counter(
            "repro_planner_plans_total", "reuse-planning passes", ("algorithm",)
        ).inc(algorithm=self.name)
        registry.counter(
            "repro_planner_loads_total", "vertices planned as EG loads", ("algorithm",)
        ).inc(len(loads), algorithm=self.name)
        logger.debug(
            "reuse plan: %d candidates -> %d loads (est cost %.4f)",
            len(candidates),
            len(loads),
            plan.estimated_cost,
        )
        return plan

    # ------------------------------------------------------------------
    def _costs(self, workload: WorkloadDAG, eg: ExperimentGraph, vertex_id: str) -> tuple[float, float]:
        """(C_i, C_l) for one vertex per the paper's conventions."""
        vertex = workload.vertex(vertex_id)
        if vertex.is_supernode:
            return 0.0, _INF  # connectors: free to "compute", never stored
        if vertex_id not in eg:
            return _INF, _INF  # never seen: EG has no prior information
        record = eg.vertex(vertex_id)
        compute = record.compute_time
        if record.materialized:
            # price the load at the tier the artifact currently resides in:
            # a cold (demoted-to-disk) artifact costs disk bandwidth, which
            # can flip the load-vs-recompute decision
            load = self.load_cost_model.cost_for_tier(
                record.size, eg.tier_of(vertex_id)
            )
        else:
            load = _INF
        return compute, load

    def _forward_pass(
        self, workload: WorkloadDAG, eg: ExperimentGraph
    ) -> tuple[dict[str, float], set[str]]:
        recreation_cost: dict[str, float] = {}
        candidates: set[str] = set()
        for vertex_id in workload.topological_order():
            vertex = workload.vertex(vertex_id)
            if vertex.is_source or vertex.computed:
                # sources are always loaded by the client; computed vertices
                # are already in the client's memory
                recreation_cost[vertex_id] = 0.0
                continue
            compute_cost, load_cost = self._costs(workload, eg, vertex_id)
            parents_cost = sum(
                recreation_cost[p] for p in workload.parents(vertex_id)
            )
            execution_cost = compute_cost + parents_cost
            if load_cost < execution_cost:
                recreation_cost[vertex_id] = load_cost
                candidates.add(vertex_id)
            else:
                recreation_cost[vertex_id] = execution_cost
        return recreation_cost, candidates

    def _backward_pass(self, workload: WorkloadDAG, candidates: set[str]) -> set[str]:
        kept: set[str] = set()
        visited: set[str] = set()
        stack = list(workload.terminals)
        while stack:
            vertex_id = stack.pop()
            if vertex_id in visited:
                continue
            visited.add(vertex_id)
            if vertex_id in candidates:
                kept.add(vertex_id)
                continue  # loading here: ancestors are not needed
            if workload.vertex(vertex_id).computed:
                continue  # already in client memory: stop traversal
            stack.extend(workload.parents(vertex_id))
        return kept
