"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.ml import accuracy_score, roc_auc_score


class TestAccuracy:
    def test_perfect(self):
        assert accuracy_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert accuracy_score([1, 0], [1, 1]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            accuracy_score([1], [1, 0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy_score([], [])


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_is_half(self):
        assert roc_auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_ties_use_midranks(self):
        # one tie between a positive and a negative contributes 0.5
        auc = roc_auc_score([0, 1, 1], [0.3, 0.3, 0.9])
        assert auc == pytest.approx(0.75)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc_score([1, 1], [0.5, 0.6])

    def test_invariant_to_monotone_transform(self):
        y = np.asarray([0, 1, 0, 1, 1, 0])
        s = np.asarray([0.1, 0.7, 0.3, 0.9, 0.6, 0.2])
        assert roc_auc_score(y, s) == pytest.approx(roc_auc_score(y, s * 10 + 3))
