"""CART decision trees (classification and regression).

Used directly and as the base learner for the ensembles in
:mod:`repro.ml.ensemble`.  Splits are exact.  A fit sorts every column of
``X`` once, O(n log n · d), and a boosting fit once for all its rounds;
each split filters its node's sorted orders into its children's by stable
partition, O(n · d), and scans every candidate threshold of every drawn
feature at once with cumulative sums.  Prediction routes whole row-index
arrays down the tree.
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


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X``'s columns as contiguous rows, and each one's stable argsort (ties
    in row order), both ``(d, n)``: what :meth:`_BaseTree._fit` grows a tree
    from.  A boosting fit takes it once for all its rounds."""
    columns = np.ascontiguousarray(X.T)
    return columns, np.argsort(columns, axis=1, kind="stable")


def _partition(
    rows: np.ndarray, order: np.ndarray, side: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A child's ``rows`` and ``order``: the parent's, each row of ``order``
    filtered to the rows of ``X`` that ``side`` marks.  A stable sort
    filtered to a subset is the subset's own stable sort."""
    kept = np.compress(side.take(order).ravel(), order)
    return rows[side[rows]], kept.reshape(len(order), -1)


def _sorted_columns(
    columns: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    features: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The node's rows in each drawn feature's sorted order, with ``y``.

    ``columns`` and ``order`` come from :func:`_presort`, ``order`` filtered
    to the node.  Returns ``(xs, ys, left, nl)``: ``xs`` and ``ys`` have one
    row per drawn feature; ``left`` holds the flat indices of the last sorted
    row left of each valid boundary, in draw then boundary order, and ``nl``
    the rows left of it.  A valid boundary changes the value and leaves
    ``nl`` rows left and ``n - nl`` right, both ``>= min_leaf``.
    """
    order = order[features]
    n = order.shape[1]
    xs = columns[features[:, None], order]
    nl = np.arange(1, n, dtype=float)
    valid = (xs[:, 1:] > xs[:, :-1]) & ((nl >= min_leaf) & (n - nl >= min_leaf))
    row, boundary = np.divmod(np.flatnonzero(valid), n - 1)
    return xs, y[order], row * n + boundary, nl.take(boundary)


def _pick(
    xs: np.ndarray, gains: np.ndarray, left: np.ndarray, feature_indices: np.ndarray
) -> tuple[int, float, float] | None:
    """The first best boundary, in draw then boundary order (the per-feature
    loop's strict ``>``)."""
    if len(gains) == 0:
        return None
    best = int(np.argmax(gains))
    if not gains[best] > 1e-12:
        return None
    row, boundary = divmod(int(left[best]), xs.shape[1])
    threshold = (xs[row, boundary] + xs[row, boundary + 1]) / 2.0
    return int(feature_indices[row]), float(threshold), float(gains[best])


def _best_split_gini(
    columns: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    feature_indices: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) of ``rows`` under Gini."""
    n = len(rows)
    if n < 2:
        return None
    total_pos = float(y[rows].sum())
    parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
    xs, ys, left, nl = _sorted_columns(columns, y, order, feature_indices, min_leaf)
    nr = n - nl
    pos_l = np.cumsum(ys, axis=1).take(left)
    pos_r = total_pos - pos_l
    gini_l = 1.0 - (pos_l / nl) ** 2 - ((nl - pos_l) / nl) ** 2
    gini_r = 1.0 - (pos_r / nr) ** 2 - ((nr - pos_r) / nr) ** 2
    weighted = (nl * gini_l + nr * gini_r) / n
    return _pick(xs, parent_gini - weighted, left, feature_indices)


def _best_split_mse(
    columns: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    feature_indices: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, variance decrease) of ``rows`` under squared error."""
    n = len(rows)
    if n < 2:
        return None
    node_y = y[rows]
    total_sum = float(node_y.sum())
    parent_sse = float(((node_y - node_y.mean()) ** 2).sum())
    xs, ys, left, nl = _sorted_columns(columns, y, order, feature_indices, min_leaf)
    nr = n - nl
    cumulative_sq = np.cumsum(ys**2, axis=1)
    sum_l = np.cumsum(ys, axis=1).take(left)
    sum_r = total_sum - sum_l
    sq_l = cumulative_sq.take(left)
    sq_r = cumulative_sq[:, -1].take(left // n) - sq_l
    sse = (sq_l - sum_l**2 / nl) + (sq_r - sum_r**2 / nr)
    return _pick(xs, parent_sse - sse, left, feature_indices)


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

    def _fit(self, columns: np.ndarray, order: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Grow the tree from :func:`_presort` of ``X``, and return the leaf
        value each row of ``X`` reached: ``predict(X)``, since growth routes
        rows with the same ``<=`` test."""
        rng = np.random.default_rng(self.random_state)
        self._k_features = self._resolve_max_features(len(columns))
        out = np.empty(len(y))
        self.root_ = self._grow(columns, y, np.arange(len(y)), order, 0, rng, out)
        self._mark_fitted()
        return out

    def _grow(
        self,
        columns: np.ndarray,
        y: np.ndarray,
        rows: np.ndarray,
        order: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> _Node:
        node_y = y[rows]  # a classifier's are 0.0 / 1.0: close means equal
        node = self._node(node_y)
        split = None
        if (
            depth < self.max_depth
            and len(rows) >= self.min_samples_split
            and not np.allclose(node_y, node_y[0])
        ):
            features = rng.choice(len(columns), size=self._k_features, replace=False)
            split = self._split(columns, y, rows, order, features)
        if split is None:
            out[rows] = node.prediction
            return node
        node.feature, node.threshold, _gain = split
        left = columns[node.feature] <= node.threshold
        node.left, node.right = (
            self._grow(columns, y, *_partition(rows, order, side), depth + 1, rng, out)
            for side in (left, ~left)
        )
        return node


class DecisionTreeClassifier(_BaseTree, ClassifierMixin):
    """Binary CART classifier with Gini impurity."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) > 2:
            raise ValueError("only binary classification is supported")
        self._fit(*_presort(X), (y == self.classes_[-1]).astype(float))
        return self

    def _node(self, y: np.ndarray) -> _Node:
        p1 = float(y.mean())
        return _Node(
            prediction=float(self.classes_[-1] if p1 >= 0.5 else self.classes_[0]),
            n_samples=len(y),
            proba=np.asarray([1.0 - p1, p1]),
        )

    def _split(self, *args) -> tuple[int, float, float] | None:
        return _best_split_gini(*args, self.min_samples_leaf)

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
        self._fit(*_presort(X), y.astype(float))
        return self

    def _node(self, y: np.ndarray) -> _Node:
        return _Node(prediction=float(y.mean()), n_samples=len(y))

    def _split(self, *args) -> tuple[int, float, float] | None:
        return _best_split_mse(*args, self.min_samples_leaf)
