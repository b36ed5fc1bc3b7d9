"""User-facing workload API (paper Section 4.2).

A :class:`Workspace` is where a workload script builds its DAG.  Nodes wrap
DAG vertices and expose a pandas/scikit-learn-flavoured method surface; the
generic ``add`` method is the paper's lower-level abstraction and accepts
any :class:`~repro.graph.operations.Operation`.

The same workload code runs in two modes:

* **lazy** (default) — methods only grow the workload DAG; nothing executes
  until the collaborative optimizer runs the (optimized) DAG.
* **eager** — every method call executes immediately against plain
  dataframes, with no DAG, no dedup, and no reuse.  This is the "KG"/"OML"
  baseline of the paper: the script as a user would run it on Kaggle.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..graph.artifacts import ArtifactType
from ..graph.dag import WorkloadDAG
from ..graph.operations import Operation
from ..ml.base import BaseEstimator
from . import ops
from .executor import VirtualCostModel, WallClockCostModel

__all__ = ["Workspace", "Node", "DatasetNode", "ModelNode", "AggregateNode"]


class Workspace:
    """Builds one workload; lazy workspaces own a :class:`WorkloadDAG`."""

    def __init__(
        self,
        eager: bool = False,
        cost_model: WallClockCostModel | VirtualCostModel | None = None,
    ):
        self.eager = eager
        self.cost_model = cost_model if cost_model is not None else WallClockCostModel()
        self.dag = WorkloadDAG()
        #: accumulated compute seconds in eager mode
        self.eager_time = 0.0
        self.eager_ops = 0

    # ------------------------------------------------------------------
    def source(self, name: str, payload: Any) -> "DatasetNode":
        """Register a raw source dataset."""
        if self.eager:
            return DatasetNode(self, vertex_id=None, payload=payload)
        vertex_id = self.dag.add_source(name, payload)
        return DatasetNode(self, vertex_id=vertex_id)

    def _apply(self, operation: Operation, inputs: Sequence["Node"]) -> "Node":
        """Route one operation through the lazy DAG or eager execution."""
        if self.eager:
            payloads = [node.payload for node in inputs]
            underlying = payloads[0] if len(payloads) == 1 else payloads
            started = time.perf_counter()
            payload = operation.run(underlying)
            measured = time.perf_counter() - started
            self.eager_time += self.cost_model.record(operation, measured)
            self.eager_ops += 1
            return _wrap(self, None, operation.return_type, payload)
        vertex_id = self.dag.add_operation([n.vertex_id for n in inputs], operation)
        return _wrap(self, vertex_id, operation.return_type, None)

    def mark_terminal(self, node: "Node") -> None:
        """Declare a node as a workload output (triggers execution later)."""
        if not self.eager:
            self.dag.mark_terminal(node.vertex_id)

    def value(self, node: "Node") -> Any:
        """The computed payload of a node (after execution in lazy mode)."""
        if self.eager:
            return node.payload
        return self.dag.vertex(node.vertex_id).data


def _wrap(
    workspace: Workspace,
    vertex_id: str | None,
    artifact_type: ArtifactType,
    payload: Any,
) -> "Node":
    if artifact_type is ArtifactType.MODEL:
        return ModelNode(workspace, vertex_id, payload)
    if artifact_type is ArtifactType.AGGREGATE:
        return AggregateNode(workspace, vertex_id, payload)
    return DatasetNode(workspace, vertex_id, payload)


class Node:
    """Handle to one artifact vertex (lazy) or payload (eager)."""

    def __init__(self, workspace: Workspace, vertex_id: str | None, payload: Any = None):
        self.workspace = workspace
        self.vertex_id = vertex_id
        self.payload = payload

    def add(self, operation: Operation, *others: "Node") -> "Node":
        """The paper's low-level API: apply any operation to this node."""
        return self.workspace._apply(operation, [self, *others])

    def terminal(self) -> "Node":
        """Mark this node as a workload output; returns self for chaining."""
        self.workspace.mark_terminal(self)
        return self

    @property
    def value(self) -> Any:
        return self.workspace.value(self)


class DatasetNode(Node):
    """A Dataset artifact with dataframe-like operations."""

    def __getitem__(self, key: str | Sequence[str]) -> "DatasetNode":
        names = [key] if isinstance(key, str) else list(key)
        return self.select(names)

    def select(self, names: Sequence[str]) -> "DatasetNode":
        return self.add(ops.SelectColumnsOp(names))

    def drop(self, names: Sequence[str] | str) -> "DatasetNode":
        names = [names] if isinstance(names, str) else list(names)
        return self.add(ops.DropColumnsOp(names))

    def fillna(
        self,
        value: float | None = None,
        strategy: str | None = None,
        columns: Sequence[str] | None = None,
    ) -> "DatasetNode":
        return self.add(ops.FillNAOp(value=value, strategy=strategy, columns=columns))

    def one_hot(self, column: str, prefix: str | None = None) -> "DatasetNode":
        return self.add(ops.OneHotOp(column, prefix=prefix))

    def groupby_agg(
        self,
        by: str | Sequence[str],
        aggregations: Mapping[str, str | Sequence[str]],
    ) -> "DatasetNode":
        return self.add(ops.GroupByAggOp(by, aggregations))

    def map_column(
        self, column: str, function: Callable[[np.ndarray], np.ndarray], fn_name: str
    ) -> "DatasetNode":
        return self.add(ops.MapColumnOp(column, function, fn_name))

    def add_column(
        self, name: str, function: Callable[..., np.ndarray], fn_name: str
    ) -> "DatasetNode":
        return self.add(ops.AddColumnOp(name, function, fn_name))

    def clip(
        self, column: str, lower: float | None = None, upper: float | None = None
    ) -> "DatasetNode":
        return self.add(ops.ClipOp(column, lower=lower, upper=upper))

    def describe(self) -> "AggregateNode":
        return self.add(ops.DescribeOp())

    # -- multi-input ---------------------------------------------------
    def merge(self, other: "DatasetNode", on: str, how: str = "inner") -> "DatasetNode":
        return self.add(ops.MergeOp(on=on, how=how), other)

    def align(self, other: "DatasetNode") -> tuple["DatasetNode", "DatasetNode"]:
        """Column-intersect two datasets; returns (left, right) nodes."""
        left = self.add(ops.AlignOp("left"), other)
        right = self.add(ops.AlignOp("right"), other)
        return left, right

    # -- learning ------------------------------------------------------
    def fit(
        self,
        estimator: BaseEstimator,
        y: "DatasetNode | None" = None,
        scorer: str | None = None,
        eval_X: "DatasetNode | None" = None,
        eval_y: "DatasetNode | None" = None,
    ) -> "ModelNode":
        """Train ``estimator`` on this dataset (optionally with labels).

        ``eval_X``/``eval_y`` supply a held-out pair, both or neither, used
        only for the quality score stored in the Experiment Graph.
        """
        supervised = y is not None
        operation = ops.FitOp(estimator, scorer=scorer, supervised=supervised)
        inputs: list[Node] = []
        if supervised:
            inputs.append(y)
        if (eval_X is None) != (eval_y is None):
            raise ValueError("eval_X and eval_y must be given together")
        if eval_X is not None:
            if not supervised:
                raise ValueError("evaluation inputs require labels")
            inputs.extend([eval_X, eval_y])
        return self.add(operation, *inputs)


class ModelNode(Node):
    """A Model artifact usable for transforms, predictions, evaluation."""

    def transform(self, X: DatasetNode, prefix: str) -> DatasetNode:
        return self.add(ops.TransformOp(prefix), X)

    def predict(self, X: DatasetNode, proba: bool = False) -> DatasetNode:
        return self.add(ops.PredictOp(proba=proba), X)

    def evaluate(self, X: DatasetNode, y: DatasetNode, metric: str = "roc_auc") -> "AggregateNode":
        return self.add(ops.EvaluateOp(metric=metric), X, y)


class AggregateNode(Node):
    """A scalar/collection artifact (e.g. an evaluation score)."""
