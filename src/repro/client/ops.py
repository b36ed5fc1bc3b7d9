"""Concrete operations bridging the DAG model to the dataframe/ML substrates.

Every class here extends :class:`~repro.graph.operations.DataOperation` or
:class:`~repro.graph.operations.TrainOperation` (the paper's extensibility
API, Listing 2) and implements ``run`` against the payload types of
:mod:`repro.dataframe` and :mod:`repro.ml`.

Operation hashes are derived from the operation name and parameters, so two
workloads issuing the same call produce the same artifact vertex — the
hook that lets the Experiment Graph recognize redundant work.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..dataframe import Column, DataFrame, combine_column_ids
from ..graph.artifacts import ArtifactType
from ..graph.operations import DataOperation, TrainOperation
from ..ml import accuracy_score, clone, roc_auc_score
from ..ml.base import BaseEstimator

__all__ = [
    "SelectColumnsOp",
    "DropColumnsOp",
    "FillNAOp",
    "OneHotOp",
    "GroupByAggOp",
    "MergeOp",
    "AlignOp",
    "MapColumnOp",
    "ClipOp",
    "DescribeOp",
    "AddColumnOp",
    "FitOp",
    "TransformOp",
    "PredictOp",
    "EvaluateOp",
    "SCORERS",
]


def _frame(payload: Any, op_name: str) -> DataFrame:
    if not isinstance(payload, DataFrame):
        raise TypeError(f"{op_name} expects a DataFrame input, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# Single-input dataset operations
# ----------------------------------------------------------------------
class SelectColumnsOp(DataOperation):
    """Project to a subset of columns."""

    def __init__(self, names: Sequence[str]):
        super().__init__("select", params={"names": list(names)})

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).select(self.params["names"])


class DropColumnsOp(DataOperation):
    """Drop the given columns."""

    def __init__(self, names: Sequence[str]):
        super().__init__("drop", params={"names": list(names)})

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).drop(self.params["names"])


class FillNAOp(DataOperation):
    """Impute missing values with a constant or per-column statistic."""

    def __init__(
        self,
        value: float | None = None,
        strategy: str | None = None,
        columns: Sequence[str] | None = None,
    ):
        super().__init__(
            "fillna",
            params={
                "value": value,
                "strategy": strategy,
                "columns": list(columns) if columns is not None else None,
            },
        )

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).fillna(
            value=self.params["value"],
            strategy=self.params["strategy"],
            columns=self.params["columns"],
            operation_hash=self.op_hash,
        )


class OneHotOp(DataOperation):
    """One-hot encode one categorical column."""

    def __init__(self, column: str, prefix: str | None = None):
        super().__init__("one_hot", params={"column": column, "prefix": prefix})

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).one_hot(
            self.params["column"],
            prefix=self.params["prefix"],
            operation_hash=self.op_hash,
        )


class GroupByAggOp(DataOperation):
    """Group by one or more key columns and aggregate."""

    def __init__(
        self,
        by: str | Sequence[str],
        aggregations: Mapping[str, str | Sequence[str]],
    ):
        canonical = {
            k: list(v) if not isinstance(v, str) else v
            for k, v in aggregations.items()
        }
        by_canonical = by if isinstance(by, str) else list(by)
        super().__init__(
            "groupby_agg", params={"by": by_canonical, "aggregations": canonical}
        )

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).groupby_agg(
            self.params["by"],
            self.params["aggregations"],
            operation_hash=self.op_hash,
        )


class MapColumnOp(DataOperation):
    """Apply a named vectorized function to one column.

    The function *name* (not identity) enters the operation hash, so two
    scripts applying "log1p" to the same column share the artifact.
    """

    def __init__(self, column: str, function: Callable[[np.ndarray], np.ndarray], fn_name: str):
        super().__init__("map_column", params={"column": column, "fn": fn_name})
        self._function = function

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).map_column(
            self.params["column"], self._function, operation_hash=self.op_hash
        )


class AddColumnOp(DataOperation):
    """Derive a new column from the whole frame with a named function."""

    def __init__(self, name: str, function: Callable[[DataFrame], np.ndarray], fn_name: str):
        super().__init__("add_column", params={"column": name, "fn": fn_name})
        self._function = function

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).assign(
            self.params["column"], self._function, operation_hash=self.op_hash
        )


class ClipOp(DataOperation):
    """Clamp one numeric column to a range."""

    def __init__(self, column: str, lower: float | None = None, upper: float | None = None):
        super().__init__(
            "clip", params={"column": column, "lower": lower, "upper": upper}
        )

    def run(self, underlying_data: Any) -> DataFrame:
        return _frame(underlying_data, self.name).clip_column(
            self.params["column"],
            lower=self.params["lower"],
            upper=self.params["upper"],
            operation_hash=self.op_hash,
        )


class DescribeOp(DataOperation):
    """Summary statistics — an Aggregate artifact (e.g. for visualization)."""

    def __init__(self):
        super().__init__("describe", return_type=ArtifactType.AGGREGATE)

    def run(self, underlying_data: Any) -> dict[str, dict[str, float]]:
        return _frame(underlying_data, self.name).describe()


# ----------------------------------------------------------------------
# Multi-input dataset operations
# ----------------------------------------------------------------------
class MergeOp(DataOperation):
    """Join two datasets on a key column."""

    def __init__(self, on: str, how: str = "inner"):
        super().__init__("merge", params={"on": on, "how": how})

    def run(self, underlying_data: Any) -> DataFrame:
        left, right = underlying_data
        return _frame(left, self.name).merge(
            _frame(right, self.name),
            on=self.params["on"],
            how=self.params["how"],
            operation_hash=self.op_hash,
        )


class AlignOp(DataOperation):
    """Keep only columns common to both inputs; return one side.

    The paper notes that multi-output operations are not representable, so
    alignment is re-implemented as two single-output operations — ``side``
    selects which aligned frame this vertex holds.
    """

    def __init__(self, side: str):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        super().__init__("align", params={"side": side})

    def run(self, underlying_data: Any) -> DataFrame:
        left, right = underlying_data
        aligned_left, aligned_right = DataFrame.align(
            _frame(left, self.name), _frame(right, self.name)
        )
        return aligned_left if self.params["side"] == "left" else aligned_right


# ----------------------------------------------------------------------
# Model operations
# ----------------------------------------------------------------------
def _score_train_auc(model: Any, X: np.ndarray, y: np.ndarray) -> float:
    scores = (
        model.predict_proba(X)[:, 1]
        if hasattr(model, "predict_proba")
        else model.decision_function(X)
    )
    try:
        return roc_auc_score(y, scores)
    except ValueError:
        return 0.5


def _score_train_accuracy(model: Any, X: np.ndarray, y: np.ndarray) -> float:
    return accuracy_score(y, model.predict(X))


#: registry of evaluation functions usable as FitOp scorers; each maps a
#: fitted model and the data it was trained on to a quality q in [0, 1]
SCORERS: dict[str, Callable[[Any, np.ndarray, np.ndarray], float]] = {
    "train_auc": _score_train_auc,
    "train_accuracy": _score_train_accuracy,
}


def _extract_matrix(payload: Any) -> np.ndarray:
    if isinstance(payload, DataFrame):
        return payload.to_numpy()
    return np.asarray(payload, dtype=float)


def _extract_vector(payload: Any) -> np.ndarray:
    if isinstance(payload, DataFrame):
        if payload.num_columns != 1:
            raise ValueError("label input must have exactly one column")
        return payload.values(payload.columns[0])
    return np.asarray(payload).ravel()


class FitOp(TrainOperation):
    """Train an estimator on (X, y) — or on X alone for transformers.

    The estimator type and hyperparameters form the operation hash, so the
    same model trained with the same configuration on the same data is the
    same artifact.  ``scorer`` names an entry in :data:`SCORERS`; if the
    operation receives four inputs (X, y, X_eval, y_eval), scoring uses the
    held-out pair instead of the training data.
    """

    def __init__(
        self,
        estimator: BaseEstimator,
        scorer: str | None = None,
        supervised: bool = True,
    ):
        self._estimator = estimator
        if scorer is not None and scorer not in SCORERS:
            raise ValueError(f"unknown scorer {scorer!r}; have {sorted(SCORERS)}")
        super().__init__(
            "fit",
            params={
                "model_type": type(estimator).__name__,
                "hyperparams": estimator.get_params(),
                "scorer": scorer,
                "supervised": supervised,
            },
        )
        self.warmstartable = estimator.supports_warm_start

    def _unpack(self, underlying_data: Any) -> tuple[np.ndarray, np.ndarray | None]:
        if not self.params["supervised"]:
            payload = (
                underlying_data[0]
                if isinstance(underlying_data, list)
                else underlying_data
            )
            return _extract_matrix(payload), None
        X_payload, y_payload = underlying_data[0], underlying_data[1]
        return _extract_matrix(X_payload), _extract_vector(y_payload)

    def run(self, underlying_data: Any) -> BaseEstimator:
        return self._fit(underlying_data, warm_model=None)

    def run_warmstarted(self, underlying_data: Any, initial_model: Any) -> BaseEstimator:
        return self._fit(underlying_data, warm_model=initial_model)

    def _fit(self, underlying_data: Any, warm_model: Any) -> BaseEstimator:
        X, y = self._unpack(underlying_data)
        model = clone(self._estimator)
        if warm_model is not None and model.supports_warm_start:
            model.fit(X, y, warm_start_from=warm_model)
        elif y is None:
            model.fit(X)
        else:
            model.fit(X, y)
        return model

    def score(self, model: Any, underlying_data: Any) -> float | None:
        scorer_name = self.params["scorer"]
        if scorer_name is None:
            return None
        scorer = SCORERS[scorer_name]
        if isinstance(underlying_data, list) and len(underlying_data) >= 4:
            X_eval = _extract_matrix(underlying_data[2])
            y_eval = _extract_vector(underlying_data[3])
        else:
            X_eval, y_eval = self._unpack(underlying_data)
        if y_eval is None:
            return None
        quality = scorer(model, X_eval, y_eval)
        return float(np.clip(quality, 0.0, 1.0))


class TransformOp(DataOperation):
    """Apply a fitted transformer artifact to a dataset: inputs [model, X]."""

    def __init__(self, prefix: str):
        super().__init__("transform", params={"prefix": prefix})

    def run(self, underlying_data: Any) -> DataFrame:
        model, X_payload = underlying_data
        matrix = model.transform(_extract_matrix(X_payload))
        return matrix_to_frame(matrix, self.params["prefix"], self.op_hash, X_payload)


class PredictOp(DataOperation):
    """Predict with a model artifact: inputs [model, X] -> one-column dataset."""

    def __init__(self, proba: bool = False, column: str = "prediction"):
        super().__init__("predict", params={"proba": proba, "column": column})

    def run(self, underlying_data: Any) -> DataFrame:
        model, X_payload = underlying_data
        X = _extract_matrix(X_payload)
        if self.params["proba"]:
            values = model.predict_proba(X)[:, 1]
        else:
            values = model.predict(X)
        column_id = combine_column_ids(
            self.op_hash,
            X_payload.column_ids.values() if isinstance(X_payload, DataFrame) else [],
        )
        return DataFrame([Column(self.params["column"], values, column_id)])


class EvaluateOp(DataOperation):
    """Score a model on (X, y): inputs [model, X, y] -> Aggregate."""

    def __init__(self, metric: str = "roc_auc"):
        if metric not in ("roc_auc", "accuracy"):
            raise ValueError(f"unsupported metric {metric!r}")
        super().__init__(
            "evaluate", return_type=ArtifactType.AGGREGATE, params={"metric": metric}
        )

    def run(self, underlying_data: Any) -> float:
        model, X_payload, y_payload = underlying_data
        X = _extract_matrix(X_payload)
        y = _extract_vector(y_payload)
        if self.params["metric"] == "roc_auc":
            scores = (
                model.predict_proba(X)[:, 1]
                if hasattr(model, "predict_proba")
                else model.decision_function(X)
            )
            return roc_auc_score(y, scores)
        return accuracy_score(y, model.predict(X))


def matrix_to_frame(
    matrix: np.ndarray, prefix: str, op_hash: str, source_payload: Any
) -> DataFrame:
    """Wrap a transformer's output matrix as a DataFrame with lineage ids.

    Column ids are derived from the operation hash, the input artifact's
    column ids, and the output position — deterministic, so re-running the
    same transform yields dedup-compatible columns.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    input_ids = (
        list(source_payload.column_ids.values())
        if isinstance(source_payload, DataFrame)
        else []
    )
    base_id = combine_column_ids(op_hash, input_ids)
    columns = [
        Column(f"{prefix}_{j}", matrix[:, j], f"{base_id}:{j}")
        for j in range(matrix.shape[1])
    ]
    return DataFrame(columns)
