"""Cross-validation and hyperparameter search.

Workload 5 of the paper performs random and grid search for gradient
boosted trees; :class:`GridSearchCV` and :class:`RandomizedSearchCV`
reproduce that behaviour on the from-scratch estimators.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .base import BaseEstimator, check_Xy, clone

__all__ = ["KFold", "cross_val_score", "GridSearchCV", "RandomizedSearchCV"]


class KFold:
    """Deterministic k-fold splitter."""

    def __init__(self, n_splits: int = 5, shuffle: bool = False, random_state: int = 0):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(X)
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        indices = np.arange(n)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(indices)
        fold_sizes = np.full(self.n_splits, n // self.n_splits)
        fold_sizes[: n % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test = indices[start : start + size]
            train = np.concatenate([indices[:start], indices[start + size :]])
            yield train, test
            start += size


def cross_val_score(
    estimator: BaseEstimator,
    X: np.ndarray,
    y: np.ndarray,
    cv: int = 5,
    scoring: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> np.ndarray:
    """Per-fold scores of a freshly cloned estimator."""
    X, y = check_Xy(X, y)
    scores = []
    for train, test in KFold(n_splits=cv).split(X):
        model = clone(estimator)
        model.fit(X[train], y[train])
        if scoring is None:
            scores.append(model.score(X[test], y[test]))
        else:
            scores.append(scoring(y[test], model.predict(X[test])))
    return np.asarray(scores)


class _BaseSearchCV(BaseEstimator):
    def __init__(
        self,
        estimator: BaseEstimator,
        cv: int = 3,
        scoring: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ):
        self.estimator = estimator
        self.cv = cv
        self.scoring = scoring

    def _candidates(self) -> list[dict[str, Any]]:
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseSearchCV":
        X, y = check_Xy(X, y)
        self.results_: list[dict[str, Any]] = []
        best_score = -np.inf
        best_params: dict[str, Any] | None = None
        for params in self._candidates():
            candidate = clone(self.estimator).set_params(**params)
            scores = cross_val_score(candidate, X, y, cv=self.cv, scoring=self.scoring)
            mean_score = float(scores.mean())
            self.results_.append({"params": params, "mean_score": mean_score})
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
        assert best_params is not None, "no candidates evaluated"
        self.best_params_ = best_params
        self.best_score_ = best_score
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        self.best_estimator_.fit(X, y)
        self._mark_fitted()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.best_estimator_.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.best_estimator_.predict_proba(X)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.best_estimator_.decision_function(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        self._check_fitted()
        return self.best_estimator_.score(X, y)


class GridSearchCV(_BaseSearchCV):
    """Exhaustive search over a parameter grid with cross-validation."""

    def __init__(
        self,
        estimator: BaseEstimator,
        param_grid: Mapping[str, Sequence[Any]],
        cv: int = 3,
        scoring: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ):
        super().__init__(estimator, cv=cv, scoring=scoring)
        self.param_grid = dict(param_grid)

    def _candidates(self) -> list[dict[str, Any]]:
        names = sorted(self.param_grid)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(self.param_grid[n] for n in names))
        ]


class RandomizedSearchCV(_BaseSearchCV):
    """Random sample of a parameter grid with cross-validation."""

    def __init__(
        self,
        estimator: BaseEstimator,
        param_distributions: Mapping[str, Sequence[Any]],
        n_iter: int = 10,
        cv: int = 3,
        scoring: Callable[[np.ndarray, np.ndarray], float] | None = None,
        random_state: int = 0,
    ):
        super().__init__(estimator, cv=cv, scoring=scoring)
        self.param_distributions = dict(param_distributions)
        self.n_iter = n_iter
        self.random_state = random_state

    def _candidates(self) -> list[dict[str, Any]]:
        rng = np.random.default_rng(self.random_state)
        names = sorted(self.param_distributions)
        candidates = []
        for _ in range(self.n_iter):
            chosen = {}
            for name in names:
                options = self.param_distributions[name]
                chosen[name] = options[int(rng.integers(0, len(options)))]
            candidates.append(chosen)
        return candidates
