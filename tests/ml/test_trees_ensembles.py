"""Tests for CART trees, random forest, and gradient boosting."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    RandomForestClassifier,
)


def _depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(_depth(node.left), _depth(node.right))


def _n_leaves(node) -> int:
    return 1 if node.is_leaf else _n_leaves(node.left) + _n_leaves(node.right)


@pytest.fixture
def xor_like():
    """Nonlinear (quadrant) data a linear model cannot fit but a tree can.

    Unlike pure XOR, the first greedy split already has positive gain, so
    CART's greedy search finds the structure reliably.
    """
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(300, 2))
    y = ((X[:, 0] > 0) & (X[:, 1] > 0)).astype(np.int64)
    return X, y


class TestDecisionTreeClassifier:
    def test_fits_xor(self, xor_like):
        X, y = xor_like
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_respects_max_depth(self, xor_like):
        X, y = xor_like
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert _depth(tree.root_) <= 2

    def test_pure_node_becomes_leaf(self):
        X = np.asarray([[0.0], [1.0]])
        y = np.asarray([1, 1])
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert _depth(tree.root_) == 0

    def test_predict_proba_rows_sum_to_one(self, xor_like):
        X, y = xor_like
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.allclose(tree.predict_proba(X).sum(axis=1), 1.0)

    def test_min_samples_leaf(self, xor_like):
        X, y = xor_like
        tree = DecisionTreeClassifier(max_depth=10, min_samples_leaf=50).fit(X, y)

        def leaves(node):
            if node.is_leaf:
                return [node.n_samples]
            return leaves(node.left) + leaves(node.right)

        assert min(leaves(tree.root_)) >= 50

    def test_rejects_multiclass(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="binary"):
            DecisionTreeClassifier().fit(X, np.asarray([0, 1, 2]))

    def test_preserves_class_labels(self, xor_like):
        X, y = xor_like
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y * 3 + 2)
        assert set(tree.predict(X)) <= {2, 5}

    def test_deterministic(self, xor_like):
        X, y = xor_like
        a = DecisionTreeClassifier(max_depth=4, random_state=1).fit(X, y)
        b = DecisionTreeClassifier(max_depth=4, random_state=1).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_constant_feature_no_split(self):
        X = np.ones((10, 1))
        y = np.asarray([0, 1] * 5)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert _n_leaves(tree.root_) == 1


class TestDecisionTreeRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert np.array_equal(tree.predict(X), y)

    def test_constant_target(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, np.ones(10))
        assert _n_leaves(tree.root_) == 1
        assert np.allclose(tree.predict(X), 1.0)

    def test_max_features_sqrt(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 9))
        y = X[:, 0]
        tree = DecisionTreeRegressor(max_depth=2, max_features="sqrt").fit(X, y)
        assert tree._k_features == 3


class TestRandomForest:
    def test_fits_xor(self, xor_like):
        X, y = xor_like
        forest = RandomForestClassifier(n_estimators=10, max_depth=4).fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_number_of_trees(self, xor_like):
        X, y = xor_like
        forest = RandomForestClassifier(n_estimators=7, max_depth=2).fit(X, y)
        assert len(forest.estimators_) == 7

    def test_proba_is_average(self, xor_like):
        X, y = xor_like
        forest = RandomForestClassifier(n_estimators=5, max_depth=3).fit(X, y)
        manual = np.stack([t.predict_proba(X) for t in forest.estimators_]).mean(axis=0)
        assert np.allclose(forest.predict_proba(X), manual)

    def test_deterministic(self, xor_like):
        X, y = xor_like
        a = RandomForestClassifier(n_estimators=4, random_state=9).fit(X, y)
        b = RandomForestClassifier(n_estimators=4, random_state=9).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))


class TestGradientBoosting:
    def test_fits_xor(self, xor_like):
        X, y = xor_like
        gbt = GradientBoostingClassifier(n_estimators=25, max_depth=2).fit(X, y)
        assert gbt.score(X, y) > 0.9

    def test_more_rounds_reduce_training_error(self, xor_like):
        X, y = xor_like
        small = GradientBoostingClassifier(n_estimators=3, max_depth=2).fit(X, y)
        large = GradientBoostingClassifier(n_estimators=30, max_depth=2).fit(X, y)
        assert large.score(X, y) >= small.score(X, y)

    def test_warmstart_continues_ensemble(self, xor_like):
        X, y = xor_like
        base = GradientBoostingClassifier(n_estimators=10, max_depth=2).fit(X, y)
        warm = GradientBoostingClassifier(n_estimators=25, max_depth=2)
        warm.fit(X, y, warm_start_from=base)
        assert warm.warm_started_
        assert len(warm.estimators_) == 25
        assert warm.n_rounds_trained_ == 15
        # the first 10 trees are shared objects from the base model
        assert warm.estimators_[0] is base.estimators_[0]

    def test_warmstart_with_enough_trees_trains_nothing(self, xor_like):
        X, y = xor_like
        base = GradientBoostingClassifier(n_estimators=10, max_depth=2).fit(X, y)
        warm = GradientBoostingClassifier(n_estimators=5, max_depth=2)
        warm.fit(X, y, warm_start_from=base)
        assert warm.n_rounds_trained_ == 0

    def test_warmstart_feature_mismatch_falls_back_cold(self, xor_like):
        X, y = xor_like
        base = GradientBoostingClassifier(n_estimators=3, max_depth=2).fit(X[:, :1], y)
        warm = GradientBoostingClassifier(n_estimators=3, max_depth=2)
        warm.fit(X, y, warm_start_from=base)
        assert not warm.warm_started_

    def test_subsample(self, xor_like):
        X, y = xor_like
        gbt = GradientBoostingClassifier(n_estimators=10, subsample=0.5).fit(X, y)
        assert gbt.score(X, y) > 0.7

    def test_predict_proba_valid(self, xor_like):
        X, y = xor_like
        gbt = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        proba = gbt.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_rejects_multiclass(self):
        with pytest.raises(ValueError, match="binary"):
            GradientBoostingClassifier().fit(np.zeros((3, 1)), np.asarray([0, 1, 2]))
