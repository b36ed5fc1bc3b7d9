"""Tests for cross-validation and hyperparameter search."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    GaussianNB,
    GridSearchCV,
    KFold,
    KNeighborsClassifier,
    LogisticRegression,
    RandomizedSearchCV,
    accuracy_score,
    cross_val_score,
)


class TestKFold:
    def test_covers_all_indices_once(self):
        X = np.zeros((10, 1))
        seen = []
        for _train, test in KFold(n_splits=5).split(X):
            seen.extend(test)
        assert sorted(seen) == list(range(10))

    def test_train_test_disjoint(self):
        X = np.zeros((10, 1))
        for train, test in KFold(n_splits=3).split(X):
            assert not set(train) & set(test)

    def test_uneven_sizes(self):
        X = np.zeros((7, 1))
        sizes = [len(test) for _, test in KFold(n_splits=3).split(X)]
        assert sorted(sizes) == [2, 2, 3]

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(np.zeros((3, 1))))

    def test_min_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)


class TestCrossValScore:
    def test_returns_per_fold(self, labeled_data):
        X, y = labeled_data
        scores = cross_val_score(GaussianNB(), X, y, cv=4)
        assert scores.shape == (4,)
        assert scores.mean() > 0.7

    def test_custom_scoring(self, labeled_data):
        X, y = labeled_data
        scores = cross_val_score(GaussianNB(), X, y, cv=3, scoring=accuracy_score)
        assert np.all((scores >= 0) & (scores <= 1))


class TestGridSearch:
    def test_explores_full_grid(self, labeled_data):
        X, y = labeled_data
        search = GridSearchCV(
            DecisionTreeClassifier(),
            param_grid={"max_depth": [1, 2], "min_samples_leaf": [1, 5]},
            cv=2,
        ).fit(X, y)
        assert len(search.results_) == 4

    def test_best_params_in_grid(self, labeled_data):
        X, y = labeled_data
        grid = {"max_depth": [1, 3]}
        search = GridSearchCV(DecisionTreeClassifier(), grid, cv=2).fit(X, y)
        assert search.best_params_["max_depth"] in grid["max_depth"]

    def test_best_estimator_fitted(self, labeled_data):
        X, y = labeled_data
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [2]}, cv=2
        ).fit(X, y)
        assert search.best_estimator_.is_fitted
        assert search.predict(X).shape == (len(X),)

    def test_deeper_tree_wins_when_needed(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)  # needs depth 2
        search = GridSearchCV(
            DecisionTreeClassifier(), {"max_depth": [1, 3]}, cv=3
        ).fit(X, y)
        assert search.best_params_["max_depth"] == 3


class TestRandomizedSearch:
    def test_n_iter_candidates(self, labeled_data):
        X, y = labeled_data
        search = RandomizedSearchCV(
            KNeighborsClassifier(),
            param_distributions={"n_neighbors": [1, 3, 5, 7, 9]},
            n_iter=4,
            cv=2,
        ).fit(X, y)
        assert len(search.results_) == 4

    def test_deterministic_given_seed(self, labeled_data):
        X, y = labeled_data
        kwargs = dict(
            param_distributions={"n_neighbors": [1, 3, 5, 7, 9]},
            n_iter=3,
            cv=2,
            random_state=5,
        )
        a = RandomizedSearchCV(KNeighborsClassifier(), **kwargs).fit(X, y)
        b = RandomizedSearchCV(KNeighborsClassifier(), **kwargs).fit(X, y)
        assert [r["params"] for r in a.results_] == [r["params"] for r in b.results_]

    def test_search_usable_as_estimator(self, labeled_data):
        """A fitted search behaves like a model (used by workload 5)."""
        X, y = labeled_data
        search = RandomizedSearchCV(
            LogisticRegression(max_iter=20),
            param_distributions={"C": [0.1, 1.0]},
            n_iter=2,
            cv=2,
        ).fit(X, y)
        assert 0.0 <= search.score(X, y) <= 1.0


class TestOtherClassifiers:
    def test_gaussian_nb(self, labeled_data):
        X, y = labeled_data
        model = GaussianNB().fit(X, y)
        assert model.score(X, y) > 0.8
        assert np.allclose(model.predict_proba(X).sum(axis=1), 1.0)

    def test_knn_memorizes_with_k1(self, labeled_data):
        X, y = labeled_data
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert model.score(X, y) == 1.0

    def test_knn_k_larger_than_data(self):
        X = np.asarray([[0.0], [1.0]])
        y = np.asarray([0, 1])
        model = KNeighborsClassifier(n_neighbors=10).fit(X, y)
        assert model.predict(X).shape == (2,)

    def test_knn_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)
