"""The whole-array training kernels equal the loops they replaced, bit for bit.

``repro.ml.tree`` searches a node's split over all drawn features in one
column-wise sort and routes prediction by node; ``DataFrame.groupby_agg``
groups rows with one stable sort.  The loops they replaced are kept below,
verbatim, as oracles: the per-feature split search, the row-by-row tree
walk and the per-group ``np.flatnonzero`` groupby.  They live here, not in
``src/``, because nothing but these tests runs them.

The properties compare results as bytes, so a last-bit difference fails;
the last test fits every estimator of the eight Kaggle scripts twice, as
shipped and with the oracles patched in, and compares every payload.
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
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _BaseTree, _Node
from repro.workloads.home_credit import generate_home_credit
from repro.workloads.kaggle import KAGGLE_WORKLOADS

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Oracles: the loops as they were
# ----------------------------------------------------------------------
def _best_split_gini(
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


def _best_split_mse(
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
    """A node's rows: few distinct values (ties, duplicates, constant and
    repeated columns), features in a drawn order, any ``min_samples_leaf``."""
    n = draw(st.integers(min_value=1, max_value=24))
    d = draw(st.integers(min_value=1, max_value=5))
    values = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, 1e6])
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
    features = np.asarray(draw(st.permutations(range(d)))[: draw(st.integers(1, d))])
    min_leaf = draw(st.integers(min_value=1, max_value=n))
    return X, y, features, min_leaf


class TestSplitSearch:
    @SETTINGS
    @given(split_inputs(st.sampled_from([0.0, 1.0])))
    def test_gini_equals_the_feature_loop(self, case):
        X, y, features, min_leaf = case
        assert _bits(tree._best_split_gini(X, y, features, min_leaf)) == _bits(
            _best_split_gini(X, y, features, min_leaf)
        )

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
        X, y, features, min_leaf = case
        assert _bits(tree._best_split_mse(X, y, features, min_leaf)) == _bits(
            _best_split_mse(X, y, features, min_leaf)
        )

    @pytest.mark.parametrize("search", ["gini", "mse"])
    def test_edge_cases(self, search):
        shipped = getattr(tree, f"_best_split_{search}")
        oracle = globals()[f"_best_split_{search}"]
        y = np.asarray([0.0, 1.0, 1.0, 0.0])
        cases = [
            (np.asarray([[0.0], [1.0]]), np.asarray([0.0, 1.0]), 1),  # n == 2
            (np.asarray([[1.0]]), np.asarray([1.0]), 1),  # n == 1
            (np.ones((4, 3)), y, 1),  # every column constant
            (np.arange(4.0)[:, None], y, 3),  # min_samples_leaf voids every boundary
            (np.tile([[0.0, 1.0, 1.0, 2.0]], (3, 1)).T, y, 1),  # equal gains everywhere
        ]
        for X, labels, min_leaf in cases:
            features = np.arange(X.shape[1])
            assert _bits(shipped(X, labels, features, min_leaf)) == _bits(
                oracle(X, labels, features, min_leaf)
            )


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
    monkeypatch.setattr(tree, "_best_split_gini", _best_split_gini)
    monkeypatch.setattr(tree, "_best_split_mse", _best_split_mse)
    monkeypatch.setattr(_BaseTree, "predict", _predict)
    monkeypatch.setattr(DecisionTreeClassifier, "predict_proba", _predict_proba)
    monkeypatch.setattr(DataFrame, "groupby_agg", groupby_agg)
    oracle = _eager_payloads(monkeypatch, sources)
    assert len(shipped) == len(oracle)
    assert [i for i, (a, b) in enumerate(zip(shipped, oracle)) if a != b] == []
