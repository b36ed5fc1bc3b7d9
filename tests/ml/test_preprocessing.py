"""Tests for scalers."""

import numpy as np
import pytest

from repro.ml import MinMaxScaler, StandardScaler


class TestStandardScaler:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(100, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.ones((5, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z, 0.0)

    def test_inverse_transform_roundtrip(self):
        X = np.asarray([[1.0, 2.0], [3.0, 4.0]])
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_fit_on_train_applies_to_test(self):
        train = np.asarray([[0.0], [10.0]])
        scaler = StandardScaler().fit(train)
        assert scaler.transform(np.asarray([[5.0]]))[0, 0] == pytest.approx(0.0)


class TestMinMaxScaler:
    def test_range(self):
        X = np.asarray([[1.0], [3.0], [5.0]])
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() == 0.0 and Z.max() == 1.0

    def test_custom_range(self):
        X = np.asarray([[0.0], [1.0]])
        Z = MinMaxScaler(feature_range=(-1.0, 1.0)).fit_transform(X)
        assert list(Z.ravel()) == [-1.0, 1.0]

    def test_constant_column_safe(self):
        Z = MinMaxScaler().fit_transform(np.ones((3, 1)))
        assert np.all(np.isfinite(Z))
