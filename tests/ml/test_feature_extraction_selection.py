"""Tests for feature selection."""

import numpy as np
import pytest

from repro.ml import SelectKBest, f_classif


class TestScoreFunctions:
    @pytest.fixture
    def informative_data(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=300)
        informative = y * 2.0 + rng.normal(scale=0.3, size=300)
        noise = rng.normal(size=300)
        X = np.column_stack([noise, informative])
        return X, y

    def test_f_classif_ranks_informative_higher(self, informative_data):
        X, y = informative_data
        scores = f_classif(X, y)
        assert scores[1] > scores[0]



class TestSelectKBest:
    def test_selects_k(self, labeled_data):
        X, y = labeled_data
        selector = SelectKBest(k=2).fit(X, y)
        assert selector.transform(X).shape == (len(X), 2)

    def test_k_larger_than_features(self, labeled_data):
        X, y = labeled_data
        selector = SelectKBest(k=100).fit(X, y)
        assert selector.transform(X).shape == X.shape

    def test_support_mask(self, labeled_data):
        X, y = labeled_data
        selector = SelectKBest(k=2).fit(X, y)
        assert selector.get_support().sum() == 2

    def test_keeps_column_order(self, labeled_data):
        X, y = labeled_data
        selector = SelectKBest(k=3).fit(X, y)
        assert list(selector.selected_) == sorted(selector.selected_)
