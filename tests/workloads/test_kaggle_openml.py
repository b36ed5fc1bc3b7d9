"""Integration tests: the Kaggle and OpenML workload scripts themselves."""

import pytest

from repro.client.executor import Executor
from repro.client.parser import parse_workload
from repro.graph.pruning import prune_workload
from repro.materialization import MaterializeAll
from repro.server.service import CollaborativeOptimizer
from repro.workloads.kaggle import (
    KAGGLE_WORKLOADS,
    w1_features,
    w2_features,
    workload_description,
)
from repro.workloads.openml import make_pipeline_script, sample_pipeline_specs


def _ids(dag) -> set[str]:
    return {vertex.vertex_id for vertex in dag.vertices()}


class TestKaggleScripts:
    @pytest.mark.parametrize("workload_id", list(KAGGLE_WORKLOADS))
    def test_parses_and_executes(self, workload_id, tiny_home_credit):
        workspace = parse_workload(KAGGLE_WORKLOADS[workload_id], tiny_home_credit)
        prune_workload(workspace.dag)
        report = Executor().execute(workspace.dag)
        assert report.executed_vertices > 0
        assert report.model_qualities  # every workload trains a scored model

    @pytest.mark.parametrize("workload_id", list(KAGGLE_WORKLOADS))
    def test_eager_mode_matches_structure(self, workload_id, tiny_home_credit):
        report = CollaborativeOptimizer.run_baseline(
            KAGGLE_WORKLOADS[workload_id], tiny_home_credit
        )
        assert report.executed_vertices > 0

    def test_w1_and_w4_share_feature_vertices(self, tiny_home_credit):
        """Modified workloads must regenerate identical vertex ids."""
        ws1 = parse_workload(KAGGLE_WORKLOADS[1], tiny_home_credit)
        ws4 = parse_workload(KAGGLE_WORKLOADS[4], tiny_home_credit)
        shared = _ids(ws1.dag) & _ids(ws4.dag)
        # all of W4's vertices except its own model/eval tail are in W1
        assert len(shared) > ws4.dag.num_vertices * 0.6

    def test_w2_and_w6_share_feature_vertices(self, tiny_home_credit):
        ws2 = parse_workload(KAGGLE_WORKLOADS[2], tiny_home_credit)
        ws6 = parse_workload(KAGGLE_WORKLOADS[6], tiny_home_credit)
        shared = _ids(ws2.dag) & _ids(ws6.dag)
        assert len(shared) >= ws6.dag.num_vertices * 0.5

    def test_w3_contains_w2(self, tiny_home_credit):
        ws2 = parse_workload(KAGGLE_WORKLOADS[2], tiny_home_credit)
        ws3 = parse_workload(KAGGLE_WORKLOADS[3], tiny_home_credit)
        w2_nodes = _ids(ws2.dag)
        w3_nodes = _ids(ws3.dag)
        assert len(w2_nodes & w3_nodes) > len(w2_nodes) * 0.7

    def test_descriptions_cover_all(self):
        for workload_id in KAGGLE_WORKLOADS:
            assert workload_description(workload_id)

    def test_second_run_cheaper(self, tiny_home_credit):
        co = CollaborativeOptimizer(MaterializeAll())
        first = co.run_script(KAGGLE_WORKLOADS[2], tiny_home_credit)
        second = co.run_script(KAGGLE_WORKLOADS[2], tiny_home_credit)
        assert second.total_time < first.total_time
        assert second.executed_vertices == 0

    def test_feature_helpers_are_prefix_stable(self, tiny_home_credit):
        """Calling a helper twice in one workspace adds no new vertices."""
        from repro.client.api import Workspace

        ws = Workspace()
        w1_features(ws, tiny_home_credit)
        count = ws.dag.num_vertices
        w1_features(ws, tiny_home_credit)
        assert ws.dag.num_vertices == count

    def test_w2_features_labels_align(self, tiny_home_credit):
        from repro.client.api import Workspace

        ws = Workspace(eager=True)
        features, y = w2_features(ws, tiny_home_credit)
        assert features.payload.num_rows == y.payload.num_rows


class TestOpenMLScripts:
    def test_pipeline_executes(self, tiny_credit_g):
        spec = sample_pipeline_specs(1, seed=0)[0]
        workspace = parse_workload(make_pipeline_script(spec), tiny_credit_g)
        prune_workload(workspace.dag)
        report = Executor().execute(workspace.dag)
        assert report.model_qualities

    @pytest.mark.parametrize("index", range(10))
    def test_first_ten_specs_execute(self, index, tiny_credit_g):
        spec = sample_pipeline_specs(10, seed=7)[index]
        co = CollaborativeOptimizer(MaterializeAll())
        report = co.run_script(make_pipeline_script(spec), tiny_credit_g)
        assert report.terminal_values

    def test_identical_specs_full_reuse(self, tiny_credit_g):
        spec = sample_pipeline_specs(1, seed=0)[0]
        co = CollaborativeOptimizer(MaterializeAll())
        co.run_script(make_pipeline_script(spec), tiny_credit_g)
        second = co.run_script(make_pipeline_script(spec), tiny_credit_g)
        assert second.executed_vertices == 0

    def test_quality_is_test_accuracy(self, tiny_credit_g):
        """The stored model quality equals the evaluate() terminal value."""
        spec = sample_pipeline_specs(5, seed=1)[3]
        co = CollaborativeOptimizer(MaterializeAll())
        report = co.run_script(make_pipeline_script(spec), tiny_credit_g)
        accuracy = next(
            v for v in report.terminal_values.values() if isinstance(v, float)
        )
        quality = next(iter(report.model_qualities.values()))
        assert quality == pytest.approx(accuracy)
