"""Tests for warmstart candidate matching (paper Section 6.2)."""

import numpy as np

from repro.client.api import Workspace
from repro.client.executor import Executor
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.graph.pruning import prune_workload
from repro.materialization.simple import MaterializeAll
from repro.ml import GradientBoostingClassifier, LogisticRegression
from repro.reuse.plan import ReusePlan
from repro.reuse.warmstart import find_warmstart_assignments


def training_frame() -> DataFrame:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    return DataFrame({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "y": y})


def run_workload(eg: ExperimentGraph, estimator, scorer="train_auc"):
    ws = Workspace()
    train = ws.source("train", training_frame())
    X, y = train[["a", "b", "c"]], train["y"]
    model = X.fit(estimator, y=y, scorer=scorer)
    model.terminal()
    prune_workload(ws.dag)
    Executor().execute(ws.dag)
    Updater(eg, MaterializeAll()).update(ws.dag)
    return ws.dag, model.vertex_id


def plan_workload(estimator):
    ws = Workspace()
    train = ws.source("train", training_frame())
    X, y = train[["a", "b", "c"]], train["y"]
    model = X.fit(estimator, y=y, scorer="train_auc")
    model.terminal()
    prune_workload(ws.dag)
    return ws.dag, model.vertex_id


class TestWarmstartMatching:
    def test_same_type_different_hyperparams_matches(self):
        eg = ExperimentGraph()
        run_workload(eg, GradientBoostingClassifier(n_estimators=3, max_depth=2))
        workload, model_vid = plan_workload(
            GradientBoostingClassifier(n_estimators=6, max_depth=2)
        )
        assignments = find_warmstart_assignments(workload, eg, ReusePlan())
        assert [a.vertex_id for a in assignments] == [model_vid]

    def test_different_type_no_match(self):
        eg = ExperimentGraph()
        run_workload(eg, LogisticRegression(max_iter=5))
        workload, _ = plan_workload(
            GradientBoostingClassifier(n_estimators=6, max_depth=2)
        )
        assert find_warmstart_assignments(workload, eg, ReusePlan()) == []

    def test_exact_same_model_excluded(self):
        """Retraining the identical configuration is reuse, not warmstart."""
        eg = ExperimentGraph()
        run_workload(eg, GradientBoostingClassifier(n_estimators=3, max_depth=2))
        workload, _ = plan_workload(
            GradientBoostingClassifier(n_estimators=3, max_depth=2)
        )
        assert find_warmstart_assignments(workload, eg, ReusePlan()) == []

    def test_loaded_model_not_warmstarted(self):
        eg = ExperimentGraph()
        executed, model_vid = run_workload(
            eg, GradientBoostingClassifier(n_estimators=3, max_depth=2)
        )
        workload, planned_vid = plan_workload(
            GradientBoostingClassifier(n_estimators=6, max_depth=2)
        )
        plan = ReusePlan(loads={planned_vid})
        assert find_warmstart_assignments(workload, eg, plan) == []

    def test_best_quality_candidate_wins(self):
        eg = ExperimentGraph()
        run_workload(eg, GradientBoostingClassifier(n_estimators=1, max_depth=1))
        run_workload(eg, GradientBoostingClassifier(n_estimators=8, max_depth=3))
        qualities = {
            v.vertex_id: v.quality for v in eg.artifact_vertices() if v.is_model
        }
        best_vid = max(qualities, key=qualities.get)
        workload, _ = plan_workload(
            GradientBoostingClassifier(n_estimators=4, max_depth=2)
        )
        assignments = find_warmstart_assignments(workload, eg, ReusePlan())
        assert len(assignments) == 1
        assert assignments[0].source_model_vertex == best_vid

    def test_non_warmstartable_op_skipped(self):
        """KNN does not support warm starts; no assignment is produced."""
        from repro.ml import KNeighborsClassifier

        eg = ExperimentGraph()
        run_workload(eg, KNeighborsClassifier(n_neighbors=3), scorer="train_accuracy")
        workload, _ = plan_workload(KNeighborsClassifier(n_neighbors=5))
        assert find_warmstart_assignments(workload, eg, ReusePlan()) == []

    def test_end_to_end_warmstart_executes(self):
        """The executor actually continues boosting from the stored model."""
        eg = ExperimentGraph()
        run_workload(eg, GradientBoostingClassifier(n_estimators=3, max_depth=2))
        workload, model_vid = plan_workload(
            GradientBoostingClassifier(n_estimators=6, max_depth=2)
        )
        assignments = find_warmstart_assignments(workload, eg, ReusePlan())
        report = Executor().execute(workload, eg=eg, warmstarts=assignments)
        assert report.warmstarted_vertices == 1
        trained = workload.vertex(model_vid).data
        assert trained.warm_started_
        assert trained.n_rounds_trained_ == 3  # only the missing rounds
