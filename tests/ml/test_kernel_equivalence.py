"""The whole-array training kernels equal the code they replaced, bit for bit.

``repro.ml.tree`` sorts ``X`` once per fit (once per boosting fit) and
carries that sort down the tree by stable partition; each node scans every
candidate threshold of every drawn feature at once, and prediction routes
by node.  ``DataFrame.groupby_agg`` groups rows with one stable sort.  What
they replaced is kept below, verbatim, as oracles: the per-node fit (each
node sorting its own drawn columns), the per-feature split loops before it,
the row-by-row tree walk and the per-group ``np.flatnonzero`` groupby.  They
live here, not in ``src/``, because nothing but these tests runs them.

The properties compare results as bytes, so a last-bit difference fails;
the last test fits every estimator of the eight Kaggle scripts twice, as
shipped and with the per-node path patched in, and compares every payload.
"""

from __future__ import annotations

import pickle
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.api import Workspace
from repro.client.parser import parse_workload
from repro.dataframe import DataFrame
from repro.dataframe.frame import _AGGREGATIONS, Column, _default_hash, derive_column_id
from repro.ml import tree
from repro.ml.base import check_Xy
from repro.ml.ensemble import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _BaseTree, _Node
from repro.workloads.home_credit import generate_home_credit
from repro.workloads.kaggle import KAGGLE_WORKLOADS

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Oracles: the per-feature split loops
# ----------------------------------------------------------------------
def _loop_split_gini(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) under Gini impurity."""
    n = len(y)
    total_pos = float(y.sum())
    parent_gini = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
    best: tuple[int, float, float] | None = None
    best_gain = 1e-12
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        xs = X[order, feature]
        ys = y[order]
        cumulative_pos = np.cumsum(ys)
        left_counts = np.arange(1, n + 1, dtype=float)
        # candidate boundaries: positions where the value changes
        boundaries = np.flatnonzero(np.diff(xs) > 0)
        if len(boundaries) == 0:
            continue
        valid = boundaries[
            (left_counts[boundaries] >= min_leaf)
            & (n - left_counts[boundaries] >= min_leaf)
        ]
        if len(valid) == 0:
            continue
        nl = left_counts[valid]
        nr = n - nl
        pos_l = cumulative_pos[valid]
        pos_r = total_pos - pos_l
        gini_l = 1.0 - (pos_l / nl) ** 2 - ((nl - pos_l) / nl) ** 2
        gini_r = 1.0 - (pos_r / nr) ** 2 - ((nr - pos_r) / nr) ** 2
        weighted = (nl * gini_l + nr * gini_r) / n
        gains = parent_gini - weighted
        local = int(np.argmax(gains))
        if gains[local] > best_gain:
            best_gain = float(gains[local])
            boundary = valid[local]
            threshold = (xs[boundary] + xs[boundary + 1]) / 2.0
            best = (int(feature), float(threshold), best_gain)
    return best


def _loop_split_mse(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, variance decrease) under squared error."""
    n = len(y)
    total_sum = float(y.sum())
    parent_sse = float(((y - y.mean()) ** 2).sum())
    best: tuple[int, float, float] | None = None
    best_gain = 1e-12
    for feature in feature_indices:
        order = np.argsort(X[:, feature], kind="mergesort")
        xs = X[order, feature]
        ys = y[order]
        cumulative = np.cumsum(ys)
        cumulative_sq = np.cumsum(ys**2)
        left_counts = np.arange(1, n + 1, dtype=float)
        boundaries = np.flatnonzero(np.diff(xs) > 0)
        if len(boundaries) == 0:
            continue
        valid = boundaries[
            (left_counts[boundaries] >= min_leaf)
            & (n - left_counts[boundaries] >= min_leaf)
        ]
        if len(valid) == 0:
            continue
        nl = left_counts[valid]
        nr = n - nl
        sum_l = cumulative[valid]
        sum_r = total_sum - sum_l
        sq_l = cumulative_sq[valid]
        sq_r = cumulative_sq[-1] - sq_l
        sse = (sq_l - sum_l**2 / nl) + (sq_r - sum_r**2 / nr)
        gains = parent_sse - sse
        local = int(np.argmax(gains))
        if gains[local] > best_gain:
            best_gain = float(gains[local])
            boundary = valid[local]
            threshold = (xs[boundary] + xs[boundary + 1]) / 2.0
            best = (int(feature), float(threshold), best_gain)
    return best


# ----------------------------------------------------------------------
# Oracles: the per-node fit, each node sorting its own drawn columns
# ----------------------------------------------------------------------
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


def _grow_classifier(
    self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
) -> _Node:
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


def _grow_regressor(
    self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
) -> _Node:
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


def _fit(self, columns: np.ndarray, order: np.ndarray, y: np.ndarray) -> None:
    """``_BaseTree._fit`` the per-node way: ``fit``'s body before the presort
    (the shipped ``fit`` still prepares ``y`` and calls it)."""
    X = columns.T
    rng = np.random.default_rng(self.random_state)
    self._k_features = self._resolve_max_features(X.shape[1])
    self.root_ = self._grow(X, y, depth=0, rng=rng)
    self._mark_fitted()


def _boost(
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
    for _ in range(rounds_remaining):
        probability = 1.0 / (1.0 + np.exp(-np.clip(raw, -500, 500)))
        residual = y01 - probability
        X_round = X
        if self.subsample < 1.0:
            size = max(1, int(self.subsample * n))
            subset = rng.choice(n, size=size, replace=False)
            X_round, residual = X[subset], residual[subset]
        tree = DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        tree.fit(X_round, residual)
        self.estimators_.append(tree)
        self.tree_weights_.append(self.learning_rate)
        raw += self.learning_rate * tree.predict(X)
    self._mark_fitted()
    return self


def _patch_per_node_fit(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(GradientBoostingClassifier, "fit", _boost)
    patch.setattr(_BaseTree, "_fit", _fit)
    patch.setattr(DecisionTreeClassifier, "_grow", _grow_classifier)
    patch.setattr(DecisionTreeRegressor, "_grow", _grow_regressor)


def _predict_row(node: _Node, row: np.ndarray) -> _Node:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def _predict(self, X: np.ndarray) -> np.ndarray:
    self._check_fitted()
    X, _ = check_Xy(X)
    return np.asarray([_predict_row(self.root_, row).prediction for row in X])


def _predict_proba(self, X: np.ndarray) -> np.ndarray:
    self._check_fitted()
    X, _ = check_Xy(X)
    return np.vstack([_predict_row(self.root_, row).proba for row in X])


def groupby_agg(
    self,
    by: str | Sequence[str],
    aggregations: Mapping[str, str | Sequence[str]],
    operation_hash: str | None = None,
) -> "DataFrame":
    """Group by one or more keys and aggregate other columns.

    ``aggregations`` maps column name to an aggregation name (or list of
    names) among sum/mean/min/max/count/std/var/median/nunique.  Output
    columns are named ``{column}_{agg}``; key columns come first.
    """
    key_names = [by] if isinstance(by, str) else list(by)
    if not key_names:
        raise ValueError("groupby needs at least one key column")
    operation_hash = operation_hash or _default_hash(
        "groupby", key_names, sorted(aggregations.items())
    )
    if len(key_names) == 1:
        keys = self.values(key_names[0])
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        key_columns = [(key_names[0], unique_keys)]
    else:
        composite = list(zip(*(self.values(k) for k in key_names)))
        seen: dict[tuple, int] = {}
        inverse = np.empty(self.num_rows, dtype=int)
        ordered: list[tuple] = []
        for index, key in enumerate(composite):
            group = seen.get(key)
            if group is None:
                group = len(ordered)
                seen[key] = group
                ordered.append(key)
        # re-index groups in sorted key order for determinism
        order = sorted(range(len(ordered)), key=lambda g: tuple(map(repr, ordered[g])))
        rank = {g: r for r, g in enumerate(order)}
        for index, key in enumerate(composite):
            inverse[index] = rank[seen[key]]
        sorted_keys = [ordered[g] for g in order]
        key_columns = [
            (
                name,
                np.asarray(
                    [key[j] for key in sorted_keys],
                    dtype=self.column(name).dtype,
                ),
            )
            for j, name in enumerate(key_names)
        ]
        unique_keys = np.arange(len(sorted_keys))
    group_indices: list[np.ndarray] = [
        np.flatnonzero(inverse == g) for g in range(len(unique_keys))
    ]

    columns = [
        Column(
            name,
            values,
            derive_column_id(operation_hash + ":" + name, self.column(name).column_id),
        )
        for name, values in key_columns
    ]
    for name, aggs in aggregations.items():
        if isinstance(aggs, str):
            aggs = [aggs]
        source = self.column(name)
        for agg in aggs:
            try:
                func = _AGGREGATIONS[agg]
            except KeyError:
                raise ValueError(f"unknown aggregation {agg!r}") from None
            values = np.asarray(
                [func(source.values[idx]) for idx in group_indices]
            )
            column_id = derive_column_id(
                operation_hash + ":" + agg, source.column_id
            )
            columns.append(Column(f"{name}_{agg}", values, column_id))
    return DataFrame(columns)


# ----------------------------------------------------------------------
# Split search
# ----------------------------------------------------------------------
def _bits(split: tuple[int, float, float] | None) -> tuple | None:
    if split is None:
        return None
    feature, threshold, gain = split
    return feature, np.float64(threshold).tobytes(), np.float64(gain).tobytes()


@st.composite
def split_inputs(draw, labels: st.SearchStrategy):
    """A node's rows among its parent's: few distinct values (ties, mixed
    ``±0.0``, duplicates, constant and repeated columns), features in a drawn
    order, any ``min_samples_leaf``."""
    n = draw(st.integers(min_value=1, max_value=24))
    d = draw(st.integers(min_value=1, max_value=5))
    values = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0, 1e6])
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["free", "constant", "repeat"]))
        if kind == "constant" or (kind == "repeat" and not columns):
            columns.append(np.full(n, draw(values)))
        elif kind == "repeat":
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        else:
            columns.append(np.asarray(draw(st.lists(values, min_size=n, max_size=n))))
    X = np.column_stack(columns)
    y = np.asarray(draw(st.lists(labels, min_size=n, max_size=n)), dtype=float)
    side = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    side[draw(st.integers(0, n - 1))] = True
    if draw(st.booleans()):
        side[:] = True  # the root
    features = np.asarray(draw(st.permutations(range(d)))[: draw(st.integers(1, d))])
    min_leaf = draw(st.integers(min_value=1, max_value=n))
    return X, y, side, features, min_leaf


def _three_searches(search: str, X, y, side, features, min_leaf) -> list:
    """The split of the rows ``side`` marks: shipped, from ``X``'s presort
    partitioned to them; per node, sorting them; and by the feature loop."""
    columns, order = tree._presort(X)
    rows, order = tree._partition(np.arange(len(X)), order, side)
    shipped = getattr(tree, f"_best_split_{search}")(
        columns, y, rows, order, features, min_leaf
    )
    per_node = globals()[f"_best_split_{search}"](X[side], y[side], features, min_leaf)
    loop = globals()[f"_loop_split_{search}"](X[side], y[side], features, min_leaf)
    return [_bits(shipped), _bits(per_node), _bits(loop)]


def _all_equal(results: list) -> bool:
    return all(result == results[0] for result in results)


class TestSplitSearch:
    @SETTINGS
    @given(split_inputs(st.sampled_from([0.0, 1.0])))
    def test_gini_equals_the_feature_loop(self, case):
        assert _all_equal(_three_searches("gini", *case))

    @SETTINGS
    @given(
        split_inputs(
            st.one_of(
                st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            )
        )
    )
    def test_mse_equals_the_feature_loop(self, case):
        assert _all_equal(_three_searches("mse", *case))

    @pytest.mark.parametrize("search", ["gini", "mse"])
    def test_edge_cases(self, search):
        y = np.asarray([0.0, 1.0, 1.0, 0.0])
        cases = [
            (np.asarray([[0.0], [1.0]]), np.asarray([0.0, 1.0]), 1),  # n == 2
            (np.asarray([[1.0]]), np.asarray([1.0]), 1),  # n == 1
            (np.ones((4, 3)), y, 1),  # every column constant
            (np.arange(4.0)[:, None], y, 3),  # min_samples_leaf voids every boundary
            (np.tile([[0.0, 1.0, 1.0, 2.0]], (3, 1)).T, y, 1),  # equal gains everywhere
            (np.asarray([[0.0], [-0.0], [0.0], [1.0]]), y, 1),  # mixed zeros tie
        ]
        for X, labels, min_leaf in cases:
            side = np.ones(len(X), dtype=bool)
            features = np.arange(X.shape[1])
            splits = _three_searches(search, X, labels, side, features, min_leaf)
            assert _all_equal(splits)


# ----------------------------------------------------------------------
# Whole fits: one presort, carried down by partition
# ----------------------------------------------------------------------
@st.composite
def fit_inputs(draw, min_rows: int = 1):
    """Rows with ties, mixed ``±0.0`` and maybe a constant column, maybe
    drawn with replacement (a bootstrap's duplicates), binary labels."""
    n = draw(st.integers(min_value=min_rows, max_value=30))
    d = draw(st.integers(min_value=1, max_value=4))
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 7.0])
    X = np.asarray(
        draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    )
    if draw(st.booleans()):
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = draw(values)
    y = np.asarray(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    params = {
        "max_depth": draw(st.integers(min_value=1, max_value=4)),
        "min_samples_leaf": draw(st.sampled_from([1, 3])),
        "random_state": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }
    return X, y, params


def _per_node(fit):
    """``fit()`` with the per-node path patched in."""
    with pytest.MonkeyPatch.context() as patch:
        _patch_per_node_fit(patch)
        return fit()


def _regression_target(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.5 * y - 0.25 * X[:, 0]  # ties from the labels, and X's zeros


class TestPresortedFit:
    @SETTINGS
    @given(fit_inputs(), st.sampled_from([None, 1, "sqrt"]))
    def test_trees_equal_the_per_node_fit(self, case, max_features):
        X, y, params = case
        params["max_features"] = max_features
        for estimator, target in [
            (DecisionTreeClassifier, y),
            (DecisionTreeRegressor, _regression_target(X, y)),
        ]:

            def fit():
                fitted = estimator(**params).fit(X, target)
                return pickle.dumps(fitted), fitted.predict(X).tobytes()

            assert fit() == _per_node(fit)

    @SETTINGS
    @given(fit_inputs())
    def test_leaf_values_are_predict(self, case):
        X, y, params = case
        regressor = DecisionTreeRegressor(**params)
        reached = regressor._fit(*tree._presort(X), _regression_target(X, y))
        assert reached.tobytes() == regressor.predict(X).tobytes()
        classifier = DecisionTreeClassifier(**params)
        classifier.classes_ = np.unique(y)
        reached = classifier._fit(*tree._presort(X), (y == y.max()).astype(float))
        assert reached.tobytes() == classifier.predict(X).tobytes()

    @SETTINGS
    @given(fit_inputs(min_rows=2), st.sampled_from([1.0, 0.6]))
    def test_boosting_equals_the_per_node_fit(self, case, subsample):
        X, y, params = case
        y[:2] = [0, 1]
        params["subsample"] = subsample

        def fit():
            cold = GradientBoostingClassifier(n_estimators=3, **params).fit(X, y)
            warm = GradientBoostingClassifier(n_estimators=5, **params).fit(
                X, y, warm_start_from=cold
            )
            return pickle.dumps((cold, warm)), warm.predict_proba(X).tobytes()

        assert fit() == _per_node(fit)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    def test_tiny_fits(self, n, max_depth, min_samples_leaf):
        X = np.asarray([[0.0, 1.0], [-0.0, 2.0], [1.0, 1.0]])[:n]
        y = np.asarray([0, 1, 1])[:n]
        params = {"max_depth": max_depth, "min_samples_leaf": min_samples_leaf}
        for estimator, target in [
            (DecisionTreeClassifier, y),
            (DecisionTreeRegressor, _regression_target(X, y)),
        ]:

            def fit():
                return pickle.dumps(estimator(**params).fit(X, target))

            assert fit() == _per_node(fit)


# ----------------------------------------------------------------------
# Prediction
# ----------------------------------------------------------------------
class TestPrediction:
    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_routed_prediction_equals_the_row_walk(self, seed, n, d, depth):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        # half-integers hit the midpoint thresholds exactly: the ``<=`` edge
        query = np.vstack([X, rng.integers(-1, 10, size=(20, d)) / 2.0])
        classifier = DecisionTreeClassifier(max_depth=depth, random_state=seed).fit(X, y)
        regressor = DecisionTreeRegressor(max_depth=depth, random_state=seed).fit(
            X, rng.normal(size=n)
        )
        for fitted in (classifier, regressor):
            shipped, oracle = fitted.predict(query), _predict(fitted, query)
            assert shipped.dtype == oracle.dtype and shipped.tobytes() == oracle.tobytes()
        shipped, oracle = classifier.predict_proba(query), _predict_proba(classifier, query)
        assert shipped.shape == oracle.shape and shipped.tobytes() == oracle.tobytes()


# ----------------------------------------------------------------------
# groupby
# ----------------------------------------------------------------------
def _frame_bytes(frame: DataFrame) -> list[tuple]:
    return [
        (name, column.dtype.str, column.column_id, column.values.tobytes())
        for name, column in zip(frame.columns, map(frame.column, frame.columns))
    ]


@st.composite
def grouped_frames(draw):
    """Few keys (single-row groups, one group, no rows), int and float values."""
    n = draw(st.integers(min_value=0, max_value=30))

    def column(elements: st.SearchStrategy, dtype) -> np.ndarray:
        return np.asarray(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.5, 1e300]),
    )
    n_keys = draw(st.integers(min_value=1, max_value=n + 1))
    return DataFrame(
        {
            "k": column(st.integers(0, n_keys - 1), np.int64),
            "j": column(st.sampled_from("ab"), object),
            "i": column(st.integers(-(2**40), 2**40), np.int64),
            "f": column(floats, float),
        }
    )


class TestGroupBy:
    @SETTINGS
    @given(grouped_frames(), st.sampled_from(["k", ["k", "j"], ["j"]]))
    def test_all_aggregations_equal_the_group_loop(self, frame, by):
        aggregations = {"i": sorted(_AGGREGATIONS), "f": sorted(_AGGREGATIONS)}
        with np.errstate(all="ignore"):
            shipped = frame.groupby_agg(by, aggregations)
            oracle = groupby_agg(frame, by, aggregations)
        assert _frame_bytes(shipped) == _frame_bytes(oracle)


# ----------------------------------------------------------------------
# The eight Kaggle scripts, end to end
# ----------------------------------------------------------------------
def _eager_payloads(monkeypatch: pytest.MonkeyPatch, sources: dict) -> list:
    """Every payload the eight scripts compute eagerly: frames as bytes,
    models and aggregates pickled."""
    payloads: list = []
    apply = Workspace._apply

    def recording(self, operation, inputs):
        node = apply(self, operation, inputs)
        payload = node.payload
        payloads.append(
            _frame_bytes(payload) if isinstance(payload, DataFrame) else pickle.dumps(payload)
        )
        return node

    with monkeypatch.context() as patch:
        patch.setattr(Workspace, "_apply", recording)
        for script in KAGGLE_WORKLOADS.values():
            parse_workload(script, sources, eager=True)
    return payloads


def test_kaggle_scripts_fit_the_same_models(monkeypatch):
    sources = generate_home_credit(n_applications=150, n_test=40, seed=11)
    shipped = _eager_payloads(monkeypatch, sources)
    _patch_per_node_fit(monkeypatch)
    monkeypatch.setattr(_BaseTree, "predict", _predict)
    monkeypatch.setattr(DecisionTreeClassifier, "predict_proba", _predict_proba)
    monkeypatch.setattr(DataFrame, "groupby_agg", groupby_agg)
    oracle = _eager_payloads(monkeypatch, sources)
    assert len(shipped) == len(oracle)
    assert [i for i, (a, b) in enumerate(zip(shipped, oracle)) if a != b] == []
