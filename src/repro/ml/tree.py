"""CART decision trees (classification and regression).

Used directly and as the base learner for the ensembles in
:mod:`repro.ml.ensemble`.  Splits are exact: each node sorts all its drawn
features in one column-wise sort and scans every candidate threshold of
every feature at once with column cumulative sums, so the fit is
O(n log n · d) per node in a fixed number of numpy calls.  Prediction
routes whole row-index arrays down the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import BaseEstimator, ClassifierMixin, check_Xy

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]


@dataclass
class _Node:
    """One tree node; leaves have ``feature is None``."""

    prediction: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    n_samples: int = 0
    proba: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _sorted_columns(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The drawn features sorted column by column, with ``y`` in each order.

    Returns ``(xs, ys, nl, valid)``: row ``b`` of ``valid`` marks the
    boundaries between sorted rows ``b`` and ``b + 1`` that change the value
    and leave ``nl[b]`` rows left and ``n - nl[b]`` right, both ``>= min_leaf``.
    """
    n = len(y)
    columns = X[:, feature_indices]
    order = np.argsort(columns, axis=0, kind="mergesort")
    xs = np.take_along_axis(columns, order, axis=0)
    nl = np.arange(1, n, dtype=float)[:, None]
    valid = (np.diff(xs, axis=0) > 0) & (nl >= min_leaf) & (n - nl >= min_leaf)
    return xs, y[order], nl, valid


def _pick(
    xs: np.ndarray, gains: np.ndarray, valid: np.ndarray, feature_indices: np.ndarray
) -> tuple[int, float, float] | None:
    """The best valid boundary; a tie goes to the earlier boundary, then to
    the feature drawn first (the per-feature loop's strict ``>``)."""
    gains = np.where(valid, gains, -np.inf)
    rows = np.argmax(gains, axis=0)
    best = gains[rows, np.arange(gains.shape[1])]
    column = int(np.argmax(best))
    if not best[column] > 1e-12:
        return None
    boundary = rows[column]
    threshold = (xs[boundary, column] + xs[boundary + 1, column]) / 2.0
    return int(feature_indices[column]), float(threshold), float(best[column])


def _best_split_gini(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) under Gini impurity."""
    n = len(y)
    if n < 2:
        return None
    total_pos = float(y.sum())
    parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
    xs, ys, nl, valid = _sorted_columns(X, y, feature_indices, min_leaf)
    nr = n - nl
    pos_l = np.cumsum(ys, axis=0)[:-1]
    pos_r = total_pos - pos_l
    gini_l = 1.0 - (pos_l / nl) ** 2 - ((nl - pos_l) / nl) ** 2
    gini_r = 1.0 - (pos_r / nr) ** 2 - ((nr - pos_r) / nr) ** 2
    weighted = (nl * gini_l + nr * gini_r) / n
    return _pick(xs, parent_gini - weighted, valid, feature_indices)


def _best_split_mse(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, variance decrease) under squared error."""
    n = len(y)
    if n < 2:
        return None
    total_sum = float(y.sum())
    parent_sse = float(((y - y.mean()) ** 2).sum())
    xs, ys, nl, valid = _sorted_columns(X, y, feature_indices, min_leaf)
    nr = n - nl
    cumulative_sq = np.cumsum(ys**2, axis=0)
    sum_l = np.cumsum(ys, axis=0)[:-1]
    sum_r = total_sum - sum_l
    sq_l = cumulative_sq[:-1]
    sq_r = cumulative_sq[-1] - sq_l
    sse = (sq_l - sum_l**2 / nl) + (sq_r - sum_r**2 / nr)
    return _pick(xs, parent_sse - sse, valid, feature_indices)


class _BaseTree(BaseEstimator):
    def __init__(
        self,
        max_depth: int = 5,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * n_features))
        return min(int(self.max_features), n_features)

    def _leaves(self, X: np.ndarray) -> tuple[int, list[tuple[_Node, np.ndarray]]]:
        """Rows of ``X``, and ``(leaf, rows)`` for every leaf, routed by ``<=``."""
        self._check_fitted()
        X, _ = check_Xy(X)
        leaves, stack = [], [(self.root_, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                leaves.append((node, rows))
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += [(node.left, rows[left]), (node.right, rows[~left])]
        return len(X), leaves

    def predict(self, X: np.ndarray) -> np.ndarray:
        n, leaves = self._leaves(X)
        predictions = np.empty(n)
        for leaf, rows in leaves:
            predictions[rows] = leaf.prediction
        return predictions

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)


class DecisionTreeClassifier(_BaseTree, ClassifierMixin):
    """Binary CART classifier with Gini impurity."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) > 2:
            raise ValueError("only binary classification is supported")
        y01 = (y == self.classes_[-1]).astype(float)
        rng = np.random.default_rng(self.random_state)
        self._k_features = self._resolve_max_features(X.shape[1])
        self.root_ = self._grow(X, y01, depth=0, rng=rng)
        self._mark_fitted()
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        p1 = float(y.mean())
        node = _Node(
            prediction=float(self.classes_[-1] if p1 >= 0.5 else self.classes_[0]),
            n_samples=len(y),
            proba=np.asarray([1.0 - p1, p1]),
        )
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or p1 in (0.0, 1.0)
        ):
            return node
        features = rng.choice(X.shape[1], size=self._k_features, replace=False)
        split = _best_split_gini(X, y, features, self.min_samples_leaf)
        if split is None:
            return node
        feature, threshold, _gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        n, leaves = self._leaves(X)
        proba = np.empty((n, 2))
        for leaf, rows in leaves:
            proba[rows] = leaf.proba
        return proba


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with squared-error splitting."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_Xy(X, y)
        y = y.astype(float)
        rng = np.random.default_rng(self.random_state)
        self._k_features = self._resolve_max_features(X.shape[1])
        self.root_ = self._grow(X, y, depth=0, rng=rng)
        self._mark_fitted()
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> _Node:
        node = _Node(prediction=float(y.mean()), n_samples=len(y))
        if depth >= self.max_depth or len(y) < self.min_samples_split:
            return node
        if np.allclose(y, y[0]):
            return node
        features = rng.choice(X.shape[1], size=self._k_features, replace=False)
        split = _best_split_mse(X, y, features, self.min_samples_leaf)
        if split is None:
            return node
        feature, threshold, _gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        return node

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        from .metrics import r2_score

        return r2_score(np.asarray(y).ravel(), self.predict(X))
