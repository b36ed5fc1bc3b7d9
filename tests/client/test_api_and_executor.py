"""Tests for the Workspace API (lazy + eager) and the executor."""

import numpy as np
import pytest

from repro.client.api import AggregateNode, DatasetNode, ModelNode, Workspace
from repro.client.executor import Executor, VirtualCostModel
from repro.client.parser import parse_workload
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.storage import LoadCostModel
from repro.graph.pruning import prune_workload
from repro.ml import LogisticRegression, StandardScaler
from repro.reuse.plan import ReusePlan


@pytest.fixture
def frame():
    rng = np.random.default_rng(0)
    return DataFrame(
        {
            "a": rng.normal(size=50),
            "b": rng.normal(size=50),
            "y": (rng.random(50) > 0.5).astype(np.int64),
        }
    )


def build_script(frame):
    def script(ws, sources):
        train = ws.source("train", sources["train"])
        X = train[["a", "b"]]
        y = train["y"]
        model = X.fit(LogisticRegression(max_iter=10), y=y, scorer="train_auc")
        model.terminal()
        model.evaluate(X, y).terminal()

    return script, {"train": frame}


class TestLazyWorkspace:
    def test_nodes_have_vertex_ids(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        X = train[["a"]]
        assert isinstance(X, DatasetNode)
        assert X.vertex_id in ws.dag

    def test_node_types(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        model = train[["a", "b"]].fit(LogisticRegression(), y=train["y"])
        agg = train.describe()
        assert isinstance(model, ModelNode)
        assert isinstance(agg, AggregateNode)

    def test_nothing_executes_lazily(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        X = train[["a"]]
        assert ws.dag.vertex(X.vertex_id).computed is False

    def test_identical_calls_share_vertices(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        a1 = train[["a"]]
        a2 = train[["a"]]
        assert a1.vertex_id == a2.vertex_id

    def test_align_returns_two_nodes(self, frame):
        ws = Workspace()
        left = ws.source("l", frame)
        right = ws.source("r", frame[["a"]])
        al, ar = left.align(right)
        assert al.vertex_id != ar.vertex_id

    def test_fit_eval_inputs_require_labels(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        with pytest.raises(ValueError, match="labels"):
            train[["a"]].fit(StandardScaler(), eval_X=train, eval_y=train)

    @pytest.mark.parametrize("half", ["eval_X", "eval_y"])
    def test_fit_rejects_half_an_eval_pair(self, frame, half):
        """A lone eval input would score the model on its training data."""
        ws = Workspace()
        train = ws.source("train", frame)
        X, y = train[["a", "b"]], train["y"]
        lone = {"eval_X": X, "eval_y": y}[half]
        with pytest.raises(ValueError, match="together"):
            X.fit(LogisticRegression(), y=y, scorer="train_auc", **{half: lone})

    def test_parse_workload_requires_terminal(self, frame):
        def script(ws, sources):
            ws.source("train", sources["train"])

        with pytest.raises(ValueError, match="terminal"):
            parse_workload(script, {"train": frame})


class TestEagerWorkspace:
    def test_values_computed_immediately(self, frame):
        ws = Workspace(eager=True)
        train = ws.source("train", frame)
        X = train[["a"]]
        assert isinstance(X.payload, DataFrame)
        assert X.payload.columns == ["a"]

    def test_time_and_ops_accumulate(self, frame):
        ws = Workspace(eager=True)
        train = ws.source("train", frame)
        train[["a"]]
        train[["b"]]
        assert ws.eager_ops == 2
        assert ws.eager_time >= 0.0

    def test_redundant_calls_reexecute(self, frame):
        """Eager mode has no dedup — the KG baseline's defining property."""
        ws = Workspace(eager=True)
        train = ws.source("train", frame)
        train[["a"]]
        train[["a"]]
        assert ws.eager_ops == 2

    def test_value_accessor(self, frame):
        ws = Workspace(eager=True)
        node = ws.source("train", frame)[["a"]]
        assert node.value.columns == ["a"]


class TestExecutor:
    def test_executes_and_scores(self, frame):
        script, sources = build_script(frame)
        workspace = parse_workload(script, sources)
        prune_workload(workspace.dag)
        report = Executor().execute(workspace.dag)
        assert report.executed_vertices > 0
        assert len(report.model_qualities) == 1
        assert report.total_time > 0.0

    def test_terminal_values_filled(self, frame):
        script, sources = build_script(frame)
        workspace = parse_workload(script, sources)
        prune_workload(workspace.dag)
        report = Executor().execute(workspace.dag)
        values = list(report.terminal_values.values())
        assert any(isinstance(v, float) for v in values)  # the evaluation

    def test_requires_terminals(self, frame):
        ws = Workspace()
        ws.source("train", frame)
        with pytest.raises(ValueError, match="terminal"):
            Executor().execute(ws.dag)

    def test_virtual_cost_model(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        X = train[["a"]]
        operation = ws.dag.incoming_operation(X.vertex_id)
        operation.virtual_cost = 42.0
        X.terminal()
        report = Executor(cost_model=VirtualCostModel()).execute(ws.dag)
        assert report.compute_time == 42.0
        assert ws.dag.vertex(X.vertex_id).compute_time == 42.0

    def test_loads_from_plan(self, frame):
        script, sources = build_script(frame)
        first = parse_workload(script, sources)
        prune_workload(first.dag)
        Executor().execute(first.dag)
        eg = ExperimentGraph()
        eg.union_workload(first.dag)
        for vertex in first.dag.artifact_vertices():
            if vertex.computed and not vertex.is_source:
                eg.materialize(vertex.vertex_id, vertex.data)

        second = parse_workload(script, sources)
        prune_workload(second.dag)
        loads = {second.dag.terminals[0]}
        report = Executor().execute(second.dag, plan=ReusePlan(loads=loads), eg=eg)
        assert report.loaded_vertices == 1
        assert report.load_time > 0.0
        assert second.dag.vertex(second.dag.terminals[0]).computed

    def test_load_without_eg_rejected(self, frame):
        script, sources = build_script(frame)
        workspace = parse_workload(script, sources)
        with pytest.raises(ValueError, match="Experiment Graph"):
            Executor().execute(workspace.dag, plan=ReusePlan(loads={"x"}))

    def test_only_needed_vertices_execute(self, frame):
        ws = Workspace()
        train = ws.source("train", frame)
        needed = train[["a"]]
        train[["b"]]  # dead branch
        needed.terminal()
        prune_workload(ws.dag)
        report = Executor().execute(ws.dag)
        assert report.executed_vertices == 1

    def test_load_time_uses_cost_model(self, frame):
        script, sources = build_script(frame)
        first = parse_workload(script, sources)
        prune_workload(first.dag)
        Executor().execute(first.dag)
        eg = ExperimentGraph()
        eg.union_workload(first.dag)
        terminal = first.dag.terminals[0]
        eg.materialize(terminal, first.dag.vertex(terminal).data)

        slow = LoadCostModel(bandwidth_bytes_per_s=1.0, latency_s=5.0)
        second = parse_workload(script, sources)
        prune_workload(second.dag)
        report = Executor(load_cost_model=slow).execute(
            second.dag, plan=ReusePlan(loads={terminal}), eg=eg
        )
        assert report.load_time >= 5.0
