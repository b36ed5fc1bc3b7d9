"""Tests for the EG-driven pipeline/hyperparameter advisor."""

import pytest

from repro.automl import PipelineAdvisor
from repro.materialization import MaterializeAll
from repro.server.service import CollaborativeOptimizer
from repro.workloads.openml import make_pipeline_script, sample_pipeline_specs


@pytest.fixture(scope="module")
def populated_optimizer(tiny_credit_g):
    co = CollaborativeOptimizer(MaterializeAll())
    for spec in sample_pipeline_specs(20, seed=4):
        co.run_script(make_pipeline_script(spec), tiny_credit_g)
    return co


class TestBestModels:
    def test_ranked_by_quality(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        models = advisor.best_models(k=5)
        qualities = [m.quality for m in models]
        assert qualities == sorted(qualities, reverse=True)
        assert len(models) == 5

    def test_model_type_filter(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        models = advisor.best_models(model_type="GradientBoostingClassifier", k=20)
        assert models
        assert all(m.meta.model_type == "GradientBoostingClassifier" for m in models)

    def test_source_filter(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        assert advisor.best_models(source_name="openml_train", k=3)
        assert advisor.best_models(source_name="no_such_dataset") == []


class TestDescribePipeline:
    def test_chain_reconstruction(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        best = advisor.best_models(k=1)[0]
        steps = advisor.describe_pipeline(best.vertex_id)
        assert steps
        assert steps[-1].op_name == "fit"  # the chain ends at the trainer
        assert "model_type" in steps[-1].op_params

    def test_steps_in_execution_order(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        best = advisor.best_models(k=1)[0]
        steps = advisor.describe_pipeline(best.vertex_id)
        fit_positions = [i for i, s in enumerate(steps) if s.op_name == "fit"]
        transform_positions = [
            i for i, s in enumerate(steps) if s.op_name == "transform"
        ]
        # any transform of the winning model's features precedes its fit
        if transform_positions:
            assert min(transform_positions) < max(fit_positions)

    def test_unknown_vertex_rejected(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        with pytest.raises(KeyError):
            advisor.describe_pipeline("nope")

    def test_describe_best_pipeline_convenience(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        steps = advisor.describe_best_pipeline(source_name="openml_train")
        assert steps
        assert advisor.describe_best_pipeline(source_name="missing") == []

    def test_step_rendering(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        steps = advisor.describe_best_pipeline()
        rendered = str(steps[-1])
        assert rendered.startswith("fit(")


class TestHyperparameterSuggestions:
    def test_observed_configurations_ranked(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        rows = advisor.observed_configurations("GradientBoostingClassifier")
        assert rows
        qualities = [q for _p, q in rows]
        assert qualities == sorted(qualities, reverse=True)

    def test_suggestions_include_neighbours(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        suggestions = advisor.suggest_hyperparameters("GradientBoostingClassifier")
        origins = {s.origin for s in suggestions}
        assert "observed" in origins
        assert "neighbour" in origins

    def test_neighbours_not_already_tried(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        tried = {
            advisor._freeze(p)
            for p, _q in advisor.observed_configurations("GradientBoostingClassifier")
        }
        for suggestion in advisor.suggest_hyperparameters("GradientBoostingClassifier"):
            if suggestion.origin == "neighbour":
                assert advisor._freeze(suggestion.params) not in tried

    def test_neighbours_perturb_one_numeric_param(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        observed = advisor.observed_configurations("GradientBoostingClassifier")
        best = observed[0][0]
        for suggestion in advisor.suggest_hyperparameters("GradientBoostingClassifier"):
            if suggestion.origin != "neighbour":
                continue
            differing = [
                k for k in best if repr(suggestion.params[k]) != repr(best[k])
            ]
            assert len(differing) == 1

    def test_unknown_model_type_empty(self, populated_optimizer):
        advisor = PipelineAdvisor(populated_optimizer.eg)
        assert advisor.suggest_hyperparameters("NoSuchModel") == []
