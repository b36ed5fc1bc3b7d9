"""Model warmstarting (paper Section 6.2).

When a workload trains a model whose exact artifact is *not* reusable
(different hyperparameters, or stochastic training), the optimizer can
still initialize the training operation from a stored model of the same
type trained on the same input artifact.  Among multiple candidates, the
one with the highest quality score wins.

Warmstarting may change the trained model, so it is applied only to
training operations explicitly flagged as warmstartable AND when the user
opts in (``enabled=True`` on the optimizer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..eg.graph import ExperimentGraph
from ..graph.artifacts import ArtifactType
from ..graph.dag import WorkloadDAG
from ..graph.operations import TrainOperation
from .plan import ReusePlan

__all__ = ["WarmstartAssignment", "find_warmstart_assignments"]


@dataclass
class WarmstartAssignment:
    """One training vertex matched to a stored initializer model."""

    vertex_id: str
    source_model_vertex: str
    source_model: Any
    source_quality: float


def find_warmstart_assignments(
    workload: WorkloadDAG,
    eg: ExperimentGraph,
    plan: ReusePlan,
) -> list[WarmstartAssignment]:
    """Match warmstartable training vertices to stored initializer models.

    Only vertices that the plan will actually *execute* are considered —
    a model that is loaded from the store needs no training at all.
    Among several candidates the highest-scoring model wins (the paper's
    choice).
    """
    to_execute = plan.execution_set(workload)
    assignments: list[WarmstartAssignment] = []
    for vertex in workload.artifact_vertices():
        if vertex.artifact_type is not ArtifactType.MODEL:
            continue
        if vertex.vertex_id not in to_execute:
            continue
        operation = workload.incoming_operation(vertex.vertex_id)
        if not isinstance(operation, TrainOperation) or not operation.warmstartable:
            continue
        model_type = operation.params.get("model_type")
        if model_type is None:
            continue
        inputs = workload.operation_inputs(vertex.vertex_id)
        if not inputs:
            continue
        # the training dataset is the first input by convention
        candidates = eg.warmstart_candidates(inputs[0], model_type)
        # exclude the vertex itself (exact retrain with same hyperparameters)
        candidates = [c for c in candidates if c.vertex_id != vertex.vertex_id]
        if not candidates:
            continue
        best = candidates[0]  # already sorted by quality descending
        assignments.append(
            WarmstartAssignment(
                vertex_id=vertex.vertex_id,
                source_model_vertex=best.vertex_id,
                source_model=eg.load(best.vertex_id),
                source_quality=best.quality,
            )
        )
    return assignments
