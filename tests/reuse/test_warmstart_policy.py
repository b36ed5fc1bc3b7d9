"""Tests for the warmstart candidate choice and the backward-pass knob."""

import numpy as np

from repro.client.api import Workspace
from repro.client.executor import Executor
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.graph.pruning import prune_workload
from repro.materialization.simple import MaterializeAll
from repro.ml import GradientBoostingClassifier
from repro.reuse.linear import LinearReuse
from repro.reuse.plan import ReusePlan
from repro.reuse.warmstart import find_warmstart_assignments


def training_frame():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 3))
    # noisy target: a 1-stump model cannot reach a perfect train AUC
    y = (X[:, 0] + 0.8 * X[:, 1] + rng.normal(scale=0.7, size=120) > 0).astype(
        np.int64
    )
    return DataFrame({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "y": y})


def run_gbt(eg: ExperimentGraph, n_estimators: int, max_depth: int):
    ws = Workspace()
    train = ws.source("train", training_frame())
    X, y = train[["a", "b", "c"]], train["y"]
    model = X.fit(
        GradientBoostingClassifier(n_estimators=n_estimators, max_depth=max_depth),
        y=y,
        scorer="train_auc",
    )
    model.terminal()
    prune_workload(ws.dag)
    Executor().execute(ws.dag)
    Updater(eg, MaterializeAll()).update(ws.dag)
    return model.vertex_id


def plan_gbt(n_estimators: int):
    ws = Workspace()
    train = ws.source("train", training_frame())
    X, y = train[["a", "b", "c"]], train["y"]
    model = X.fit(
        GradientBoostingClassifier(n_estimators=n_estimators, max_depth=2),
        y=y,
        scorer="train_auc",
    )
    model.terminal()
    prune_workload(ws.dag)
    return ws.dag


class TestWarmstartPolicy:
    def test_the_best_model_wins_over_a_newer_one(self):
        eg = ExperimentGraph()
        strong = run_gbt(eg, n_estimators=10, max_depth=3)  # better, older
        weak = run_gbt(eg, n_estimators=1, max_depth=1)  # worse, newer
        assert eg.vertex(strong).quality > eg.vertex(weak).quality
        assert eg.vertex(weak).last_seen > eg.vertex(strong).last_seen

        workload = plan_gbt(n_estimators=5)
        [assignment] = find_warmstart_assignments(workload, eg, ReusePlan())
        assert assignment.source_model_vertex == strong

    def test_last_seen_tracks_workload_counter(self):
        eg = ExperimentGraph()
        first = run_gbt(eg, n_estimators=2, max_depth=1)
        assert eg.vertex(first).last_seen == 1
        run_gbt(eg, n_estimators=2, max_depth=1)  # same workload again
        assert eg.vertex(first).last_seen == 2


class TestBackwardPassKnob:
    def test_disabled_backward_pass_keeps_all_candidates(self, tiny_home_credit):
        from repro.workloads.kaggle import KAGGLE_WORKLOADS
        from repro.client.parser import parse_workload

        eg = ExperimentGraph()
        workspace = parse_workload(KAGGLE_WORKLOADS[2], tiny_home_credit)
        prune_workload(workspace.dag)
        Executor().execute(workspace.dag)
        Updater(eg, MaterializeAll()).update(workspace.dag)

        repeat = parse_workload(KAGGLE_WORKLOADS[2], tiny_home_credit)
        prune_workload(repeat.dag)
        with_bp = LinearReuse(backward_pass=True).plan(repeat.dag, eg)
        without_bp = LinearReuse(backward_pass=False).plan(repeat.dag, eg)
        assert with_bp.loads <= without_bp.loads
        assert with_bp.plan_cost(repeat.dag, eg, LinearReuse().load_cost_model) <= (
            without_bp.plan_cost(repeat.dag, eg, LinearReuse().load_cost_model)
        )
