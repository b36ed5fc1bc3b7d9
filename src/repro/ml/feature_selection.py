"""Univariate feature selection (SelectKBest).

Listing 1 of the paper uses ``SelectKBest(k=2)``; the selector provides
the same ``fit_transform(X, y)`` surface, scored by the ANOVA F-statistic.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, TransformerMixin, check_Xy

__all__ = ["f_classif", "SelectKBest"]


def f_classif(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-way ANOVA F-statistic per feature."""
    X, y = check_Xy(X, y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("f_classif requires at least two classes")
    grand_mean = X.mean(axis=0)
    between = np.zeros(X.shape[1])
    within = np.zeros(X.shape[1])
    for c in classes:
        block = X[y == c]
        mean = block.mean(axis=0)
        between += len(block) * (mean - grand_mean) ** 2
        within += ((block - mean) ** 2).sum(axis=0)
    df_between = len(classes) - 1
    df_within = len(X) - len(classes)
    within[within == 0.0] = np.finfo(float).tiny
    return (between / df_between) / (within / df_within)


class SelectKBest(BaseEstimator, TransformerMixin):
    """Keep the k features with the highest univariate score."""

    def __init__(self, score_func=f_classif, k: int = 10):
        self.score_func = score_func
        self.k = k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SelectKBest":
        X, y = check_Xy(X, y)
        self.scores_ = np.asarray(self.score_func(X, y), dtype=float)
        k = min(self.k, X.shape[1])
        # stable: ties broken by feature index
        order = np.argsort(-self.scores_, kind="stable")
        self.selected_ = np.sort(order[:k])
        self._mark_fitted()
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        return X[:, self.selected_]

    def get_support(self) -> np.ndarray:
        """Boolean mask of the selected features."""
        self._check_fitted()
        mask = np.zeros(len(self.scores_), dtype=bool)
        mask[self.selected_] = True
        return mask
