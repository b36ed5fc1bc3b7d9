"""Linear models trained by full-batch gradient descent.

These estimators support **warmstarting** (paper Section 6.2): passing a
previously trained model of the same type via ``fit(..., warm_start_from=m)``
initializes the weight vector from that model instead of zeros, which raises
the convergence rate.  ``n_iter_`` records how many epochs training actually
used, so experiments can observe the warmstart saving.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_Xy

__all__ = ["LogisticRegression"]


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((len(X), 1))])


class _GradientDescentClassifier(BaseEstimator, ClassifierMixin):
    """Shared full-batch gradient-descent loop for binary linear classifiers."""

    supports_warm_start = True

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-4,
        learning_rate: float = 0.1,
        random_state: int = 0,
    ):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.learning_rate = learning_rate
        self.random_state = random_state

    # subclasses provide the loss gradient on margins/probabilities
    def _gradient(self, Xb: np.ndarray, y_signed: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        warm_start_from: "_GradientDescentClassifier | None" = None,
    ) -> "_GradientDescentClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) != 2:
            raise ValueError(f"binary classifier got {len(self.classes_)} classes")
        y_signed = np.where(y == self.classes_[1], 1.0, -1.0)
        Xb = _add_intercept(X)

        if warm_start_from is not None and warm_start_from.is_fitted:
            if warm_start_from.coef_.shape[0] != X.shape[1]:
                raise ValueError(
                    "warm-start model was trained on "
                    f"{warm_start_from.coef_.shape[0]} features, data has {X.shape[1]}"
                )
            w = np.concatenate(
                [warm_start_from.coef_.copy(), [warm_start_from.intercept_]]
            )
            self.warm_started_ = True
        else:
            w = np.zeros(Xb.shape[1])
            self.warm_started_ = False

        previous = w.copy()
        iterations = 0
        for iterations in range(1, self.max_iter + 1):
            gradient = self._gradient(Xb, y_signed, w)
            w = w - self.learning_rate * gradient
            if np.max(np.abs(w - previous)) < self.tol:
                break
            previous = w.copy()

        self.coef_ = w[:-1]
        self.intercept_ = float(w[-1])
        self.n_iter_ = iterations
        self._mark_fitted()
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X, _ = check_Xy(X)
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        margins = self.decision_function(X)
        return np.where(margins >= 0.0, self.classes_[1], self.classes_[0])


class LogisticRegression(_GradientDescentClassifier):
    """L2-regularized logistic regression (full-batch gradient descent)."""

    def _gradient(self, Xb: np.ndarray, y_signed: np.ndarray, w: np.ndarray) -> np.ndarray:
        margins = y_signed * (Xb @ w)
        # d/dw of mean(log(1 + exp(-m))) plus L2 term (no penalty on intercept)
        sigma = 1.0 / (1.0 + np.exp(np.clip(margins, -500, 500)))
        gradient = -(Xb * (y_signed * sigma)[:, None]).mean(axis=0)
        penalty = np.concatenate([w[:-1] / (self.C * len(Xb)), [0.0]])
        return gradient + penalty

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return an (n, 2) matrix of class probabilities."""
        margins = self.decision_function(X)
        p1 = 1.0 / (1.0 + np.exp(-np.clip(margins, -500, 500)))
        return np.column_stack([1.0 - p1, p1])
