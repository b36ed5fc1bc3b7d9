"""Operations — the edges of workload DAGs (paper Section 4.2).

An operation is identified by a deterministic hash of its name and
parameters; two workloads that apply the same operation to the same inputs
therefore produce the same artifact vertex id, which is how the Experiment
Graph recognizes redundant computation.

Users extend :class:`DataOperation` (returns a ``Dataset`` or an
``Aggregate``) or :class:`TrainOperation` (returns a ``Model``) and
implement ``run``.  ``TrainOperation`` additionally declares whether it can
be warmstarted and how to score the model it produces.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Any, Callable

from .artifacts import ArtifactType

__all__ = [
    "Operation",
    "DataOperation",
    "TrainOperation",
    "FunctionOperation",
    "operation_hash",
]


_REPR_TYPES = frozenset({str, int, float, bool, type(None)})


def _canonical(value: Any) -> str:
    """Deterministic string form of a parameter value.

    Exact builtin types are dispatched first (parameters are almost all
    of them); anything else, subclasses included, takes the general
    chain, which gives the same strings for the builtins.
    """
    kind = type(value)
    if kind in _REPR_TYPES:
        return repr(value)
    if kind is dict:
        return "{" + ",".join(f"{k}={_canonical(value[k])}" for k in sorted(value)) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, Mapping):
        inner = ",".join(f"{k}={_canonical(value[k])}" for k in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if callable(value):
        return getattr(value, "__name__", repr(type(value).__name__))
    return repr(value)


def operation_hash(name: str, params: Mapping[str, Any] | None = None) -> str:
    """Hash of an operation's name and parameters (paper Section 4.1)."""
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    if params:
        digest.update(b"\x00")
        digest.update(_canonical(params).encode("utf-8"))
    return digest.hexdigest()


class Operation:
    """Base class for DAG edge payloads.

    Parameters
    ----------
    name:
        Operation name; part of the identity hash.
    return_type:
        The :class:`~repro.graph.artifacts.ArtifactType` of the output node.
    params:
        Hyperparameters/arguments; part of the identity hash.
    """

    def __init__(
        self,
        name: str,
        return_type: ArtifactType,
        params: Mapping[str, Any] | None = None,
    ):
        self.name = name
        self.return_type = return_type
        self.params: dict[str, Any] = dict(params or {})
        self.op_hash = operation_hash(name, self.params)

    def run(self, underlying_data: Any) -> Any:
        """Execute the operation on the input payload(s).

        ``underlying_data`` is the single input payload, or a list of
        payloads for multi-input operations.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, hash={self.op_hash[:8]})"


class DataOperation(Operation):
    """Preprocessing/feature-engineering operation (Dataset or Aggregate)."""

    def __init__(
        self,
        name: str,
        return_type: ArtifactType = ArtifactType.DATASET,
        params: Mapping[str, Any] | None = None,
    ):
        if return_type not in (ArtifactType.DATASET, ArtifactType.AGGREGATE):
            raise ValueError("DataOperation must return a Dataset or Aggregate")
        super().__init__(name, return_type, params)


class TrainOperation(Operation):
    """Model-training operation; always returns a Model artifact.

    Subclasses set ``warmstartable`` when training can resume from an
    existing model, and may override ``run_warmstarted`` to exploit it.
    ``score`` evaluates the trained model to the quality ``q`` stored in
    the Experiment Graph; by default there is no score (``None``).
    """

    warmstartable: bool = False

    def __init__(self, name: str, params: Mapping[str, Any] | None = None):
        super().__init__(name, ArtifactType.MODEL, params)

    def run_warmstarted(self, underlying_data: Any, initial_model: Any) -> Any:
        """Train starting from ``initial_model``; default falls back to run."""
        del initial_model
        return self.run(underlying_data)

    def score(self, model: Any, underlying_data: Any) -> float | None:
        """Quality of the trained model in [0, 1]; None if not evaluable."""
        del model, underlying_data
        return None


class FunctionOperation(DataOperation):
    """Adapter wrapping a plain function as a DataOperation.

    The function identity (its qualified name) plus ``params`` define the
    operation hash, so lambdas should be given an explicit ``name``.
    """

    def __init__(
        self,
        function: Callable[..., Any],
        name: str | None = None,
        return_type: ArtifactType = ArtifactType.DATASET,
        params: Mapping[str, Any] | None = None,
    ):
        self.function = function
        resolved = name or getattr(function, "__qualname__", function.__name__)
        super().__init__(resolved, return_type, params)

    def run(self, underlying_data: Any) -> Any:
        if isinstance(underlying_data, list):
            return self.function(*underlying_data, **self.params)
        return self.function(underlying_data, **self.params)
