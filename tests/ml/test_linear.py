"""Tests for linear models, including warmstart semantics."""

import numpy as np
import pytest

from repro.ml import GaussianNB, GradientBoostingClassifier, LogisticRegression
from repro.ml.base import clone


class TestLogisticRegression:
    def test_learns_separable_data(self, labeled_data):
        X, y = labeled_data
        model = LogisticRegression(max_iter=200, learning_rate=0.5).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_predict_proba_shape_and_range(self, labeled_data):
        X, y = labeled_data
        model = LogisticRegression(max_iter=50).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_rejects_multiclass(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="classes"):
            LogisticRegression().fit(X, np.asarray([0, 1, 2]))

    def test_rejects_nan_input(self):
        X = np.asarray([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="NaN"):
            LogisticRegression().fit(X, np.asarray([0, 1]))

    def test_preserves_class_labels(self):
        X = np.asarray([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.asarray([5, 5, 9, 9])
        model = LogisticRegression(max_iter=100, learning_rate=1.0).fit(X, y)
        assert set(model.predict(X)) <= {5, 9}

    def test_n_iter_recorded(self, labeled_data):
        X, y = labeled_data
        model = LogisticRegression(max_iter=17, tol=0.0).fit(X, y)
        assert model.n_iter_ == 17


class TestWarmstart:
    def test_warmstart_flag(self, labeled_data):
        X, y = labeled_data
        base = LogisticRegression(max_iter=100, learning_rate=0.5).fit(X, y)
        warm = LogisticRegression(max_iter=100, learning_rate=0.5)
        warm.fit(X, y, warm_start_from=base)
        assert warm.warm_started_
        cold = LogisticRegression(max_iter=100).fit(X, y)
        assert not cold.warm_started_

    def test_warmstart_converges_faster(self, labeled_data):
        X, y = labeled_data
        base = LogisticRegression(max_iter=3000, learning_rate=0.5, tol=1e-5).fit(X, y)
        assert base.n_iter_ < 3000, "base model must converge for this test"
        warm = LogisticRegression(max_iter=3000, learning_rate=0.5, tol=1e-5)
        warm.fit(X, y, warm_start_from=base)
        assert warm.n_iter_ < base.n_iter_

    def test_warmstart_dimension_mismatch(self, labeled_data):
        X, y = labeled_data
        base = LogisticRegression(max_iter=10).fit(X[:, :2], y)
        with pytest.raises(ValueError, match="features"):
            LogisticRegression(max_iter=10).fit(X, y, warm_start_from=base)

    def test_warmstart_from_unfitted_is_cold(self, labeled_data):
        X, y = labeled_data
        model = LogisticRegression(max_iter=10)
        model.fit(X, y, warm_start_from=LogisticRegression())
        assert not model.warm_started_

    def test_supports_warm_start_attribute(self):
        assert LogisticRegression.supports_warm_start
        assert GradientBoostingClassifier.supports_warm_start
        assert not GaussianNB.supports_warm_start


class TestParamsAndClone:
    def test_get_params(self):
        model = LogisticRegression(C=2.0, max_iter=7)
        params = model.get_params()
        assert params["C"] == 2.0
        assert params["max_iter"] == 7

    def test_set_params(self):
        model = LogisticRegression().set_params(C=5.0)
        assert model.C == 5.0

    def test_set_unknown_param(self):
        with pytest.raises(ValueError, match="no parameter"):
            LogisticRegression().set_params(bogus=1)

    def test_clone_resets_fit_state(self, labeled_data):
        X, y = labeled_data
        model = LogisticRegression(max_iter=10).fit(X, y)
        duplicate = clone(model)
        assert not duplicate.is_fitted
        assert duplicate.get_params() == model.get_params()
