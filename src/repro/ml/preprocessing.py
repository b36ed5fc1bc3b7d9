"""Feature scaling transformers."""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, TransformerMixin, check_Xy

__all__ = ["StandardScaler", "MinMaxScaler"]


class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardize columns to zero mean and unit variance."""

    def __init__(self, with_mean: bool = True, with_std: bool = True):
        self.with_mean = with_mean
        self.with_std = with_std

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "StandardScaler":
        X, _ = check_Xy(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            scale[scale == 0.0] = 1.0
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        self._mark_fitted()
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        return X * self.scale_ + self.mean_


class MinMaxScaler(BaseEstimator, TransformerMixin):
    """Rescale columns to the [0, 1] range."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        self.feature_range = feature_range

    def fit(self, X: np.ndarray, y: np.ndarray | None = None) -> "MinMaxScaler":
        X, _ = check_Xy(X)
        self.data_min_ = X.min(axis=0)
        self.data_max_ = X.max(axis=0)
        span = self.data_max_ - self.data_min_
        span[span == 0.0] = 1.0
        self._span = span
        self._mark_fitted()
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        low, high = self.feature_range
        unit = (X - self.data_min_) / self._span
        return unit * (high - low) + low
