"""Tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.workloads.home_credit import HOME_CREDIT_TABLES, generate_home_credit
from repro.workloads.openml import generate_credit_g, sample_pipeline_specs
from repro.workloads.synthetic_dag import (
    SyntheticDAGConfig,
    build_matching_eg,
    generate_synthetic_workload,
)


class TestHomeCredit:
    def test_all_nine_tables(self, tiny_home_credit):
        assert set(tiny_home_credit) == set(HOME_CREDIT_TABLES)

    def test_deterministic(self):
        a = generate_home_credit(n_applications=30, seed=5)
        b = generate_home_credit(n_applications=30, seed=5)
        assert a["application_train"] == b["application_train"]
        assert a["bureau"] == b["bureau"]

    def test_seed_changes_data(self):
        a = generate_home_credit(n_applications=30, seed=5)
        b = generate_home_credit(n_applications=30, seed=6)
        assert a["application_train"] != b["application_train"]

    def test_train_has_target_test_does_not(self, tiny_home_credit):
        assert "TARGET" in tiny_home_credit["application_train"]
        assert "TARGET" not in tiny_home_credit["application_test"]

    def test_target_is_binary_and_mixed(self, tiny_home_credit):
        target = tiny_home_credit["application_train"].values("TARGET")
        assert set(np.unique(target)) == {0, 1}

    def test_target_learnable(self):
        """Classifiers must beat random — the quality signal is real."""
        from repro.ml import GaussianNB, roc_auc_score

        sources = generate_home_credit(n_applications=800, seed=1)
        train = sources["application_train"]
        features = ["EXT_SOURCE_2", "AMT_CREDIT", "AMT_INCOME_TOTAL", "DAYS_BIRTH"]
        X = np.column_stack([np.nan_to_num(train.values(f), nan=0.5) for f in features])
        y = train.values("TARGET")
        model = GaussianNB().fit(X, y)
        auc = roc_auc_score(y, model.predict_proba(X)[:, 1])
        assert auc > 0.6

    def test_join_keys_consistent(self, tiny_home_credit):
        app_ids = set(tiny_home_credit["application_train"].values("SK_ID_CURR"))
        app_ids |= set(tiny_home_credit["application_test"].values("SK_ID_CURR"))
        bureau_ids = set(tiny_home_credit["bureau"].values("SK_ID_CURR"))
        assert bureau_ids <= app_ids

    def test_bureau_balance_references_bureau(self, tiny_home_credit):
        bureau = set(tiny_home_credit["bureau"].values("SK_ID_BUREAU"))
        balance = set(tiny_home_credit["bureau_balance"].values("SK_ID_BUREAU"))
        assert balance <= bureau

    def test_child_tables_reference_previous(self, tiny_home_credit):
        prev = set(tiny_home_credit["previous_application"].values("SK_ID_PREV"))
        for table in ("POS_CASH_balance", "installments_payments", "credit_card_balance"):
            child = set(tiny_home_credit[table].values("SK_ID_PREV"))
            assert child <= prev

    def test_missing_values_present(self, tiny_home_credit):
        ext = tiny_home_credit["application_train"].values("EXT_SOURCE_1")
        assert np.isnan(ext).any()

    def test_size_scales(self):
        small = generate_home_credit(n_applications=30, seed=1)
        large = generate_home_credit(n_applications=120, seed=1)
        assert large["bureau"].num_rows > small["bureau"].num_rows

    def test_min_size_enforced(self):
        with pytest.raises(ValueError):
            generate_home_credit(n_applications=5)


class TestCreditG:
    def test_split_sizes(self, tiny_credit_g):
        total = tiny_credit_g["openml_train"].num_rows + tiny_credit_g["openml_test"].num_rows
        assert total == 120

    def test_deterministic(self):
        a = generate_credit_g(n_rows=50, seed=2)
        b = generate_credit_g(n_rows=50, seed=2)
        assert a["openml_train"] == b["openml_train"]

    def test_majority_good_class(self):
        data = generate_credit_g(n_rows=1000, seed=0)
        y = data["openml_train"].values("target")
        assert 0.55 < np.mean(y) < 0.85  # credit-g is ~70% good

    def test_target_learnable(self):
        from repro.ml import GaussianNB

        data = generate_credit_g(n_rows=600, seed=0)
        train, test = data["openml_train"], data["openml_test"]
        X = train.drop("target").to_numpy()
        y = train.values("target")
        model = GaussianNB().fit(X, y)
        accuracy = model.score(test.drop("target").to_numpy(), test.values("target"))
        assert accuracy > 0.65

    def test_min_rows(self):
        with pytest.raises(ValueError):
            generate_credit_g(n_rows=5)


class TestPipelineSpecs:
    def test_count_and_determinism(self):
        a = sample_pipeline_specs(50, seed=1)
        b = sample_pipeline_specs(50, seed=1)
        assert len(a) == 50
        assert a == b

    def test_contains_repeats_at_scale(self):
        """The configuration space is finite; 500 draws must collide."""
        specs = sample_pipeline_specs(500, seed=1)
        keys = [(s.scaler, s.selector_k, s.model, s.model_params) for s in specs]
        assert len(set(keys)) < len(keys)

    def test_model_mix_includes_all_types(self):
        specs = sample_pipeline_specs(300, seed=2)
        assert {s.model for s in specs} == {"logreg", "gbt", "tree", "nb", "knn"}

    def test_build_estimator_types(self):
        specs = sample_pipeline_specs(50, seed=3)
        for spec in specs:
            estimator = spec.build_estimator()
            assert type(estimator).__name__ == spec.model_type


class TestSyntheticDAG:
    def test_node_count_in_range(self):
        config = SyntheticDAGConfig(min_nodes=50, max_nodes=80)
        workload = generate_synthetic_workload(seed=0, config=config)
        assert 50 <= workload.num_vertices <= 80 + 40  # supernodes extra

    def test_deterministic(self):
        config = SyntheticDAGConfig(min_nodes=30, max_nodes=50)
        a = generate_synthetic_workload(seed=4, config=config)
        b = generate_synthetic_workload(seed=4, config=config)
        assert [v.vertex_id for v in a.vertices()] == [
            v.vertex_id for v in b.vertices()
        ]

    def test_has_terminals_and_is_acyclic(self):
        config = SyntheticDAGConfig(min_nodes=40, max_nodes=60)
        workload = generate_synthetic_workload(seed=1, config=config)
        assert workload.terminals
        workload.validate()

    def test_matching_eg_flags(self):
        config = SyntheticDAGConfig(min_nodes=60, max_nodes=90, materialized_ratio=0.5)
        workload = generate_synthetic_workload(seed=2, config=config)
        eg = build_matching_eg(workload, seed=2, config=config)
        materialized = sum(1 for v in eg.artifact_vertices() if v.materialized)
        artifacts = sum(1 for v in eg.artifact_vertices() if not v.is_source)
        assert 0.2 < materialized / artifacts < 0.8
        assert all(v.compute_time > 0 for v in eg.artifact_vertices() if not v.is_source)
