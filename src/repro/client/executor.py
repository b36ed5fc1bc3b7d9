"""Client-side executor (paper Section 3.1, Step 4).

Runs the operations of an optimized workload DAG.  Vertices selected by
the reuse plan are *loaded* from the Experiment Graph store instead of
computed; training vertices with a warmstart assignment are initialized
from the assigned stored model.

The plan's loads are fetched first (in sorted vertex order, each priced
at the tier it occupied before any load ran), then the remaining vertices
run strictly in topological order — the paper's client.  Each vertex's
outcome is staged and committed to the report only once the vertex
succeeded.  See ``docs/EXECUTION.md`` for the invariants.

Compute times are measured with a wall clock (and can be overridden with a
virtual cost model for timing-independent tests).  Load times are *modeled*
via the :class:`~repro.eg.storage.LoadCostModel` — the store is in-process,
so charging the modeled retrieval cost keeps the accounting consistent with
the costs the planner optimized against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..eg.graph import ExperimentGraph
from ..eg.storage import LoadCostModel, StorageTier
from ..graph.artifacts import artifact_meta
from ..graph.dag import WorkloadDAG
from ..graph.operations import Operation, TrainOperation
from ..obs.profile import ProfileReport
from ..obs.trace import Span, get_tracer
from ..reuse.plan import ReusePlan
from ..reuse.warmstart import WarmstartAssignment

__all__ = ["ExecutionReport", "Executor", "WallClockCostModel", "VirtualCostModel"]


class WallClockCostModel:
    """Record measured wall-clock seconds as the operation cost (default)."""

    def record(self, operation: Operation, measured_seconds: float) -> float:
        del operation
        return measured_seconds


class VirtualCostModel:
    """Use an operation-declared ``virtual_cost`` when present.

    Tests and the synthetic-workload experiments attach ``virtual_cost``
    attributes to operations so that planner decisions are deterministic
    and independent of machine speed.
    """

    def record(self, operation: Operation, measured_seconds: float) -> float:
        return float(getattr(operation, "virtual_cost", measured_seconds))


@dataclass
class ExecutionReport:
    """Outcome and cost accounting of one workload execution."""

    #: recorded compute seconds + modeled load seconds
    total_time: float = 0.0
    compute_time: float = 0.0
    load_time: float = 0.0
    #: measured wall seconds of the execute() call (``compute_time`` and
    #: ``load_time`` are recorded / modeled costs, not wall time)
    wall_time: float = 0.0
    executed_vertices: int = 0
    loaded_vertices: int = 0
    #: subset of ``loaded_vertices`` that resided in the store's cold (disk)
    #: tier when execution started
    cold_loaded_vertices: int = 0
    warmstarted_vertices: int = 0
    #: seconds the optimizer spent planning (filled in by the server)
    optimizer_overhead: float = 0.0
    plan_algorithm: str = ""
    terminal_values: dict[str, Any] = field(default_factory=dict)
    #: quality of every model trained in this run, by vertex id
    model_qualities: dict[str, float] = field(default_factory=dict)
    #: artifact-store snapshot after the updater ran (bytes per tier,
    #: hit/promotion/demotion counters for tiered stores)
    store_stats: dict[str, Any] = field(default_factory=dict)
    #: top-k spans by self time for this execution; populated only under a
    #: tracer that keeps a ring of finished spans (an explicit ``Tracer``) —
    #: ``None`` under the default no-op and the telemetry plane's tracer
    profile: ProfileReport | None = None


@dataclass(frozen=True)
class _LoadOutcome:
    """Fully staged result of loading one vertex (not yet in the report)."""

    vertex_id: str
    cost: float
    cold: bool


@dataclass(frozen=True)
class _ComputeOutcome:
    """Fully staged result of computing one vertex (not yet in the report)."""

    vertex_id: str
    recorded: float
    warmstarted: bool
    quality: float | None


class Executor:
    """Executes workload DAGs, honoring reuse plans and warmstarts."""

    def __init__(
        self,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
        load_cost_model: LoadCostModel | None = None,
    ):
        self.cost_model = cost_model if cost_model is not None else WallClockCostModel()
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )

    def execute(
        self,
        workload: WorkloadDAG,
        plan: ReusePlan | None = None,
        eg: ExperimentGraph | None = None,
        warmstarts: list[WarmstartAssignment] | None = None,
        report: ExecutionReport | None = None,
    ) -> ExecutionReport:
        """Run the workload; mutates vertex state in place and reports costs.

        ``report`` may be supplied by the caller (it is filled in place and
        returned); per-vertex accounting is atomic — a vertex either
        contributes all of its counters and costs or none, even when an
        operation or the store fails mid-run.
        """
        if not workload.terminals:
            raise ValueError("workload has no terminal vertices to produce")
        plan = plan if plan is not None else ReusePlan()
        if report is None:
            report = ExecutionReport()
        report.plan_algorithm = plan.algorithm
        warm_by_vertex = {w.vertex_id: w for w in (warmstarts or [])}

        if plan.loads and eg is None:
            raise ValueError("a plan with loads requires the Experiment Graph")
        # tiers are snapshotted before any load: retrieving a cold artifact
        # promotes it (and may demote others), so reading tiers lazily would
        # make pricing depend on load order — the snapshot prices every load
        # at the tier the planner saw
        load_tiers = {
            vertex_id: eg.tier_of(vertex_id)
            for vertex_id in sorted(plan.loads)
            if not workload.vertex(vertex_id).computed
        }
        needed = plan.execution_set(workload)

        tracer = get_tracer()
        started_wall = time.perf_counter()
        with tracer.span(
            "executor.execute", vertices=len(needed), loads=len(load_tiers)
        ) as root_span:
            for vertex_id in sorted(load_tiers):
                self._commit_load(
                    report, self._load_vertex(workload, eg, vertex_id, load_tiers[vertex_id])
                )
            for vertex_id in workload.topological_order():
                vertex = workload.vertex(vertex_id)
                if vertex.is_supernode or vertex.computed or vertex_id not in needed:
                    continue
                self._commit_compute(
                    report, self._compute_vertex(workload, vertex_id, warm_by_vertex)
                )
        report.wall_time = time.perf_counter() - started_wall

        for terminal in workload.terminals:
            report.terminal_values[terminal] = workload.vertex(terminal).data
        report.total_time = report.compute_time + report.load_time
        if tracer.keep_last and isinstance(root_span, Span):
            report.profile = ProfileReport.from_trace(tracer, root_span)
        return report

    # ------------------------------------------------------------------
    # Per-vertex bodies
    # ------------------------------------------------------------------
    def _load_vertex(
        self,
        workload: WorkloadDAG,
        eg: ExperimentGraph | None,
        vertex_id: str,
        tier: StorageTier,
    ) -> _LoadOutcome:
        assert eg is not None  # guaranteed by execute()
        with get_tracer().span(
            "executor.load",
            vertex=vertex_id[:12],
            tier=tier.value,
            cache_hit=True,
        ):
            payload = eg.load(vertex_id)
            record = eg.vertex(vertex_id)
            cost = self.load_cost_model.cost_for_tier(record.size, tier)
            vertex = workload.vertex(vertex_id)
            vertex.data = payload
            vertex.computed = True
            vertex.size = record.size
            vertex.meta = record.meta if record.meta is not None else artifact_meta(payload)
            return _LoadOutcome(vertex_id, cost, tier is StorageTier.COLD)

    def _compute_vertex(
        self,
        workload: WorkloadDAG,
        vertex_id: str,
        warm_by_vertex: dict[str, WarmstartAssignment],
    ) -> _ComputeOutcome:
        vertex = workload.vertex(vertex_id)
        operation = workload.incoming_operation(vertex_id)
        if operation is None:
            raise RuntimeError(
                f"vertex {vertex_id[:12]} needs computing but has no operation"
            )
        with get_tracer().span(
            "executor.compute",
            vertex=vertex_id[:12],
            operation=type(operation).__name__,
            cache_hit=False,
        ) as span:
            payloads = self._input_payloads(workload, vertex_id)
            underlying = payloads[0] if len(payloads) == 1 else payloads

            warm = warm_by_vertex.get(vertex_id)
            warmstarted = False
            started = time.perf_counter()
            if warm is not None and isinstance(operation, TrainOperation):
                payload = operation.run_warmstarted(underlying, warm.source_model)
                warmstarted = True
            else:
                payload = operation.run(underlying)
            measured = time.perf_counter() - started
            span.set_attribute("warmstarted", warmstarted)

            recorded = self.cost_model.record(operation, measured)
            warmstartable = isinstance(operation, TrainOperation) and operation.warmstartable
            vertex.record_result(payload, recorded, warmstartable=warmstartable)

            quality: float | None = None
            if isinstance(operation, TrainOperation):
                score = operation.score(payload, underlying)
                if score is not None and vertex.meta is not None:
                    vertex.meta = vertex.meta.with_quality(score)
                    quality = score
            return _ComputeOutcome(vertex_id, recorded, warmstarted, quality)

    # ------------------------------------------------------------------
    # Atomic per-vertex report commits
    # ------------------------------------------------------------------
    @staticmethod
    def _commit_load(report: ExecutionReport, outcome: _LoadOutcome) -> None:
        report.loaded_vertices += 1
        if outcome.cold:
            report.cold_loaded_vertices += 1
        report.load_time += outcome.cost

    @staticmethod
    def _commit_compute(report: ExecutionReport, outcome: _ComputeOutcome) -> None:
        report.executed_vertices += 1
        report.compute_time += outcome.recorded
        if outcome.warmstarted:
            report.warmstarted_vertices += 1
        if outcome.quality is not None:
            report.model_qualities[outcome.vertex_id] = outcome.quality

    def _input_payloads(self, workload: WorkloadDAG, vertex_id: str) -> list[Any]:
        payloads = []
        for input_id in workload.operation_inputs(vertex_id):
            parent = workload.vertex(input_id)
            if not parent.computed:
                raise RuntimeError(
                    f"input {input_id[:12]} of {vertex_id[:12]} is not computed; "
                    "topological execution order violated"
                )
            payloads.append(parent.data)
        return payloads
