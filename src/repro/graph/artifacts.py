"""Artifact node types and meta-data records (paper Section 4.1).

Nodes in a workload DAG represent data.  The paper distinguishes three data
node types — ``Dataset``, ``Aggregate``, and ``Model`` — plus ``Supernode``,
a data-less connector used to give multi-input operations a single input
vertex.

Every artifact carries *meta-data* (small, always stored in the Experiment
Graph) separate from its *content* (potentially large, stored only when the
materializer selects it).  :func:`artifact_meta` derives the meta-data
record from a computed payload.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..dataframe import DataFrame, dtype_name
from ..ml.base import BaseEstimator

__all__ = [
    "ArtifactType",
    "ArtifactMeta",
    "Footprint",
    "artifact_meta",
    "payload_footprint",
    "payload_size_bytes",
]

#: what an artifact's content occupies, as meta-data: ``((column lineage id,
#: bytes), ...)`` in column order for a frame — the shape a column-
#: deduplicating store charges by — or one byte count for anything else
Footprint = tuple[tuple[str, int], ...] | int


class ArtifactType(enum.Enum):
    """The kind of data a DAG node holds."""

    DATASET = "dataset"
    AGGREGATE = "aggregate"
    MODEL = "model"
    SUPERNODE = "supernode"


@dataclass
class ArtifactMeta:
    """Small, always-stored description of an artifact.

    For datasets: column names, dtypes and per-column lineage ids.  For
    models: estimator type, hyperparameters, and the evaluation score ``q``
    (0 ≤ q ≤ 1) that the quality-aware materializer consumes.
    """

    artifact_type: ArtifactType
    #: dataset: {column -> dtype str}; model: {hyperparameter -> value}
    schema: dict[str, Any] = field(default_factory=dict)
    #: dataset: {column -> lineage id} used for storage dedup
    column_ids: dict[str, str] = field(default_factory=dict)
    #: model quality score in [0, 1]; None for non-model artifacts
    quality: float | None = None
    #: model: estimator class name
    model_type: str | None = None
    #: whether the training operation that produced the model is warmstartable
    warmstartable: bool = False

    def with_quality(self, quality: float) -> "ArtifactMeta":
        """Return a copy of the meta-data with an updated model score."""
        if self.artifact_type is not ArtifactType.MODEL:
            raise ValueError("only model artifacts carry a quality score")
        if not 0.0 <= quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {quality}")
        return ArtifactMeta(
            artifact_type=self.artifact_type,
            schema=dict(self.schema),
            column_ids=dict(self.column_ids),
            quality=quality,
            model_type=self.model_type,
            warmstartable=self.warmstartable,
        )


def payload_size_bytes(payload: Any) -> int:
    """Approximate in-memory size of an artifact's content in bytes."""
    if payload is None:
        return 0
    if isinstance(payload, DataFrame):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, BaseEstimator):
        return _estimator_size(payload)
    if isinstance(payload, (list, tuple)):
        return sum(payload_size_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_size_bytes(k) + payload_size_bytes(v) for k, v in payload.items()
        )
    return sys.getsizeof(payload)


def payload_footprint(payload: Any) -> Footprint:
    """The :data:`Footprint` of a payload that is in hand.

    O(columns): ``Column.nbytes`` is measured once per column and kept
    on it.  Callers still record the result where it must outlive the
    payload (``ExperimentGraph.materialize``).
    """
    if isinstance(payload, DataFrame):
        return tuple(
            (column.column_id, column.nbytes)
            for column in map(payload.column, payload.columns)
        )
    return payload_size_bytes(payload)


def _estimator_size(model: BaseEstimator) -> int:
    """Sum the numpy attributes of a fitted estimator (its 'weights')."""
    total = sys.getsizeof(model)
    for value in vars(model).values():
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
        elif isinstance(value, list):
            # e.g. a boosted ensemble's list of trees
            total += sum(payload_size_bytes(item) for item in value)
        elif isinstance(value, BaseEstimator):
            total += _estimator_size(value)
        elif isinstance(value, dict):
            total += sys.getsizeof(value)
    return total


def artifact_meta(payload: Any, warmstartable: bool = False) -> ArtifactMeta:
    """Derive an :class:`ArtifactMeta` record from a computed payload."""
    if isinstance(payload, DataFrame):
        return ArtifactMeta(
            artifact_type=ArtifactType.DATASET,
            schema={
                name: dtype_name(payload.column(name).dtype)
                for name in payload.columns
            },
            column_ids=payload.column_ids,
        )
    if isinstance(payload, BaseEstimator):
        return ArtifactMeta(
            artifact_type=ArtifactType.MODEL,
            schema=dict(payload.get_params()),
            model_type=type(payload).__name__,
            warmstartable=warmstartable or payload.supports_warm_start,
        )
    return ArtifactMeta(artifact_type=ArtifactType.AGGREGATE)
