"""Tree ensembles: random forest and gradient boosting.

:class:`GradientBoostingClassifier` supports warmstarting in the paper's
sense — when ``fit`` receives a previously boosted model via
``warm_start_from=``, training *continues* from its staged ensemble instead
of restarting, so only the remaining ``n_estimators - len(existing)`` rounds
are fitted.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_Xy
from .tree import DecisionTreeClassifier, DecisionTreeRegressor, _presort

__all__ = ["RandomForestClassifier", "GradientBoostingClassifier"]


class RandomForestClassifier(BaseEstimator, ClassifierMixin):
    """Bagged ensemble of depth-limited CART trees with feature subsampling."""

    def __init__(
        self,
        n_estimators: int = 10,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.random_state)
        self.estimators_: list[DecisionTreeClassifier] = []
        n = len(X)
        for i in range(self.n_estimators):
            indices = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[indices], y[indices])
            self.estimators_.append(tree)
        self._mark_fitted()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        stacked = np.stack([t.predict_proba(X) for t in self.estimators_])
        return stacked.mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary gradient boosting with log-loss and regression-tree learners.

    The lightweight stand-in for the LightGBM/XGBoost models the Kaggle
    workloads train.  Warmstartable: continuing from a prior model keeps its
    trees and fits only the remaining rounds.
    """

    supports_warm_start = True

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        warm_start_from: "GradientBoostingClassifier | None" = None,
    ) -> "GradientBoostingClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError("binary classification only")
        y01 = (y == self.classes_[1]).astype(float)
        rng = np.random.default_rng(self.random_state)

        if (
            warm_start_from is not None
            and warm_start_from.is_fitted
            and warm_start_from.n_features_ == X.shape[1]
        ):
            self.init_score_ = warm_start_from.init_score_
            self.estimators_ = list(warm_start_from.estimators_)
            # inherited trees keep the weight they were *trained* under;
            # only the rounds added here use this model's learning rate
            self.tree_weights_ = list(warm_start_from.tree_weights_)
            self.warm_started_ = True
        else:
            positive_rate = np.clip(y01.mean(), 1e-6, 1 - 1e-6)
            self.init_score_ = float(np.log(positive_rate / (1.0 - positive_rate)))
            self.estimators_ = []
            self.tree_weights_ = []
            self.warm_started_ = False

        self.n_features_ = X.shape[1]
        raw = np.full(len(X), self.init_score_)
        for tree, weight in zip(self.estimators_, self.tree_weights_, strict=True):
            raw += weight * tree.predict(X)

        rounds_remaining = max(0, self.n_estimators - len(self.estimators_))
        self.n_rounds_trained_ = rounds_remaining
        n = len(X)
        # every full-data round grows its tree on X itself: sort X once for all
        whole = _presort(X) if rounds_remaining and self.subsample >= 1.0 else None
        for _ in range(rounds_remaining):
            probability = 1.0 / (1.0 + np.exp(-np.clip(raw, -500, 500)))
            residual = y01 - probability
            presorted = whole
            if self.subsample < 1.0:
                size = max(1, int(self.subsample * n))
                subset = rng.choice(n, size=size, replace=False)
                presorted, residual = _presort(X[subset]), residual[subset]
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            reached = tree._fit(*presorted, residual)
            self.estimators_.append(tree)
            self.tree_weights_.append(self.learning_rate)
            raw += self.learning_rate * (tree.predict(X) if whole is None else reached)
        self._mark_fitted()
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        raw = np.full(len(X), self.init_score_)
        for tree, weight in zip(self.estimators_, self.tree_weights_, strict=True):
            raw += weight * tree.predict(X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        raw = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(raw, -500, 500)))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(
            self.decision_function(X) >= 0.0, self.classes_[1], self.classes_[0]
        )
