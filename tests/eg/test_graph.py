"""Tests for the Experiment Graph: union, costs, potentials, warmstarting."""

import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.graph.artifacts import ArtifactType, artifact_meta
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation, TrainOperation


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self):
        super().__init__("join")

    def run(self, underlying_data):
        return underlying_data


class Train(TrainOperation):
    def __init__(self, tag):
        super().__init__("train", params={"tag": tag, "model_type": "Fake"})

    def run(self, underlying_data):
        return object()


def executed_chain(times: list[float]) -> WorkloadDAG:
    """source -> v1 -> v2 ... with given compute times."""
    dag = WorkloadDAG()
    current = dag.add_source("s", payload=DataFrame({"x": [1.0]}))
    for index, t in enumerate(times):
        current = dag.add_operation([current], Step(index))
        dag.vertex(current).record_result(DataFrame({"x": [1.0]}), compute_time=t)
    dag.mark_terminal(current)
    return dag


class TestUnion:
    def test_vertices_added(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0, 2.0]))
        assert eg.num_vertices == 3
        assert len(eg.source_ids) == 1

    def test_frequency_increments(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0]))
        eg.union_workload(executed_chain([1.0]))
        for vertex in eg.artifact_vertices():
            assert vertex.frequency == 2

    def test_compute_times_recorded(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.5, 2.5]))
        times = sorted(v.compute_time for v in eg.artifact_vertices())
        assert times == [0.0, 1.5, 2.5]

    def test_union_is_incremental(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0]))
        eg.union_workload(executed_chain([1.0, 2.0]))  # extends the chain
        assert eg.num_vertices == 3  # source, step0 (shared), step1 (new)
        assert eg.workloads_observed == 2

    def test_quality_not_clobbered_by_unscored_run(self):
        dag = executed_chain([1.0])
        terminal = dag.terminals[0]
        model_meta = artifact_meta(object())
        dag.vertex(terminal).meta = None  # keep dataset meta for others
        eg = ExperimentGraph()
        eg.union_workload(dag)
        # manually set quality, then union a run without quality
        record = eg.vertex(terminal)
        record.meta = model_meta
        record.meta = record.meta.__class__(
            artifact_type=ArtifactType.MODEL, quality=0.8, model_type="Fake"
        )
        eg.union_workload(executed_chain([1.0]))
        assert eg.vertex(terminal).quality == 0.8


class TestEdgeMetadata:
    def test_edges_record_operation_identity(self):
        eg = ExperimentGraph()
        dag = executed_chain([1.0])
        eg.union_workload(dag)
        terminal = dag.terminals[0]
        (edge,) = list(eg.graph.in_edges(terminal, data=True))
        assert edge[2]["op_name"] == "step"
        assert edge[2]["op_hash"]
        assert edge[2]["op_params"] == {"tag": 0}

    def test_repeat_union_does_not_duplicate_edges(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0]))
        edges_before = eg.graph.number_of_edges()
        eg.union_workload(executed_chain([1.0]))
        assert eg.graph.number_of_edges() == edges_before


class TestRecreationCosts:
    def test_chain_costs_accumulate(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0, 2.0, 4.0]))
        costs = eg.recreation_costs()
        assert sorted(costs.values()) == [0.0, 1.0, 3.0, 7.0]

    def test_shared_ancestor_counted_once(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=DataFrame({"x": [1.0]}))
        a = dag.add_operation([src], Step("a"))
        dag.vertex(a).record_result(DataFrame({"x": [1.0]}), 10.0)
        b = dag.add_operation([a], Step("b"))
        dag.vertex(b).record_result(DataFrame({"x": [1.0]}), 1.0)
        c = dag.add_operation([a], Step("c"))
        dag.vertex(c).record_result(DataFrame({"x": [1.0]}), 1.0)
        d = dag.add_operation([b, c], Join())
        dag.vertex(d).record_result(DataFrame({"x": [1.0]}), 1.0)
        dag.mark_terminal(d)
        eg = ExperimentGraph()
        eg.union_workload(dag)
        # a's 10s must be charged once, not twice through the diamond
        assert eg.recreation_costs()[d] == pytest.approx(13.0)


class TestPotentials:
    def test_ancestors_inherit_best_model_quality(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=DataFrame({"x": [1.0]}))
        feats = dag.add_operation([src], Step("f"))
        dag.vertex(feats).record_result(DataFrame({"x": [1.0]}), 1.0)
        m1 = dag.add_operation([feats], Train("m1"))
        m2 = dag.add_operation([feats], Train("m2"))
        for vid, q in ((m1, 0.6), (m2, 0.9)):
            dag.vertex(vid).record_result(object(), 1.0)
            dag.vertex(vid).meta = artifact_meta(object())
            dag.vertex(vid).meta.artifact_type = ArtifactType.MODEL
            dag.vertex(vid).meta = dag.vertex(vid).meta.with_quality(q)
        dag.mark_terminal(m1)
        dag.mark_terminal(m2)
        eg = ExperimentGraph()
        eg.union_workload(dag)
        potentials = eg.potentials()
        assert potentials[feats] == 0.9
        assert potentials[src] == 0.9
        assert potentials[m1] == 0.6

    def test_vertex_without_reachable_model_has_zero(self):
        eg = ExperimentGraph()
        eg.union_workload(executed_chain([1.0]))
        assert all(p == 0.0 for p in eg.potentials().values())


class TestMaterialization:
    def test_materialize_and_load(self):
        eg = ExperimentGraph()
        dag = executed_chain([1.0])
        eg.union_workload(dag)
        terminal = dag.terminals[0]
        eg.materialize(terminal, dag.vertex(terminal).data)
        assert eg.is_materialized(terminal)
        assert eg.load(terminal) == dag.vertex(terminal).data

    def test_unmaterialize(self):
        eg = ExperimentGraph()
        dag = executed_chain([1.0])
        eg.union_workload(dag)
        terminal = dag.terminals[0]
        eg.materialize(terminal, dag.vertex(terminal).data)
        released = eg.unmaterialize(terminal)
        assert released > 0
        assert not eg.is_materialized(terminal)

    def test_materialized_artifact_bytes_excludes_sources(self):
        eg = ExperimentGraph()
        dag = executed_chain([1.0])
        eg.union_workload(dag)
        source = dag.sources()[0]
        eg.materialize(source, dag.vertex(source).data)
        assert eg.materialized_artifact_bytes() == 0
        assert eg.materialized_artifact_bytes(include_sources=True) > 0


class TestWarmstartCandidates:
    def build(self):
        dag = WorkloadDAG()
        src = dag.add_source("s", payload=DataFrame({"x": [1.0]}))
        feats = dag.add_operation([src], Step("f"))
        dag.vertex(feats).record_result(DataFrame({"x": [1.0]}), 1.0)
        model = dag.add_operation([feats], Train("m"))
        dag.vertex(model).record_result(object(), 1.0)
        meta = artifact_meta(object())
        meta.artifact_type = ArtifactType.MODEL
        meta.model_type = "Fake"
        dag.vertex(model).meta = meta.with_quality(0.7)
        dag.mark_terminal(model)
        eg = ExperimentGraph()
        eg.union_workload(dag)
        return eg, feats, model, dag

    def test_finds_materialized_same_type(self):
        eg, feats, model, dag = self.build()
        eg.materialize(model, dag.vertex(model).data)
        candidates = eg.warmstart_candidates(feats, "Fake")
        assert [c.vertex_id for c in candidates] == [model]

    def test_unmaterialized_excluded(self):
        eg, feats, _model, _dag = self.build()
        assert eg.warmstart_candidates(feats, "Fake") == []

    def test_type_mismatch_excluded(self):
        eg, feats, model, dag = self.build()
        eg.materialize(model, dag.vertex(model).data)
        assert eg.warmstart_candidates(feats, "Other") == []

    def test_unknown_input_returns_empty(self):
        eg, *_ = self.build()
        assert eg.warmstart_candidates("missing", "Fake") == []
