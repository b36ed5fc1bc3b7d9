"""Estimator protocol for the from-scratch ML substrate.

Mirrors the scikit-learn contract the paper's workloads rely on:
``fit``/``predict``/``transform``, ``get_params``/``set_params`` for
hyperparameter hashing, and ``clone`` for search.  Estimators whose training
can be resumed from a previous model set ``supports_warm_start`` and accept
``warm_start_from=`` in ``fit`` — this is the hook used by the optimizer's
warmstarting (paper Section 6.2).
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

__all__ = ["BaseEstimator", "TransformerMixin", "ClassifierMixin", "clone", "check_Xy"]


def check_Xy(X: np.ndarray, y: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and coerce inputs to 2-D float X and 1-D y."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity; impute before fitting")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.ndim != 1:
        y = y.ravel()
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    return X, y


class BaseEstimator:
    """Base class providing parameter introspection and representation."""

    #: whether ``fit`` accepts ``warm_start_from=`` (Section 6.2)
    supports_warm_start: bool = False

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, p in signature.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self) -> dict[str, Any]:
        """Return constructor hyperparameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"{type(self).__name__} has no parameter {name!r}")
            setattr(self, name, value)
        return self

    @property
    def is_fitted(self) -> bool:
        return getattr(self, "_fitted", False)

    def _mark_fitted(self) -> None:
        self._fitted = True

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy with identical hyperparameters."""
    return type(estimator)(**copy.deepcopy(estimator.get_params()))


class TransformerMixin:
    """Adds ``fit_transform`` to transformers."""

    def fit_transform(self, X: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class ClassifierMixin:
    """Adds ``score`` (accuracy) to classifiers."""

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        from .metrics import accuracy_score

        return accuracy_score(np.asarray(y).ravel(), self.predict(X))
