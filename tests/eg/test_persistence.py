"""Tests for Experiment Graph save/load."""

import json
import pickle

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.persistence import EGPersistenceError, load_eg, save_eg
from repro.eg.storage import DedupArtifactStore, StorageTier
from repro.eg.updater import Updater
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.storage import TieredArtifactStore


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def populated_eg(store=None) -> ExperimentGraph:
    dag = WorkloadDAG()
    current = dag.add_source("src", payload=DataFrame({"x": np.arange(6.0)}))
    for index in range(3):
        current = dag.add_operation([current], Step(index))
        dag.vertex(current).record_result(
            DataFrame({"x": np.arange(6.0) + index}), compute_time=float(index + 1)
        )
    dag.mark_terminal(current)
    eg = ExperimentGraph(store)
    Updater(eg, MaterializeAll()).update(dag)
    return eg


class TestPersistence:
    def test_roundtrip_structure(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        assert restored.num_vertices == eg.num_vertices
        assert restored.source_ids == eg.source_ids
        assert restored.workloads_observed == eg.workloads_observed
        assert set(restored.graph.edges) == set(eg.graph.edges)

    def test_roundtrip_vertex_attributes(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        for vertex in eg.vertices():
            twin = restored.vertex(vertex.vertex_id)
            assert twin.frequency == vertex.frequency
            assert twin.compute_time == vertex.compute_time
            assert twin.size == vertex.size
            assert twin.materialized == vertex.materialized
            assert twin.last_seen == vertex.last_seen

    def test_last_seen_tracks_latest_workload(self, tmp_path):
        # two unions stamp different last_seen indices; both must survive
        eg = populated_eg()
        dag = WorkloadDAG()
        current = dag.add_source("src", payload=DataFrame({"x": np.arange(6.0)}))
        current = dag.add_operation([current], Step(0))
        dag.vertex(current).record_result(
            DataFrame({"x": np.arange(6.0)}), compute_time=1.0
        )
        dag.mark_terminal(current)
        Updater(eg, MaterializeAll()).update(dag)
        assert len({v.last_seen for v in eg.vertices()}) > 1
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        for vertex in eg.vertices():
            assert restored.vertex(vertex.vertex_id).last_seen == vertex.last_seen

    def test_document_without_last_seen_loads_as_zero(self, tmp_path):
        # v2 documents written before last_seen was persisted stay readable
        eg = populated_eg()
        save_eg(eg, tmp_path)
        graph_path = tmp_path / "graph.json"
        document = json.loads(graph_path.read_text())
        for record in document["vertices"]:
            del record["last_seen"]
        graph_path.write_text(json.dumps(document))
        restored = load_eg(tmp_path)
        assert all(v.last_seen == 0 for v in restored.vertices())

    def test_roundtrip_store_contents(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        for vertex_id in eg.materialized_ids():
            assert restored.load(vertex_id) == eg.load(vertex_id)

    def test_roundtrip_dedup_store(self, tmp_path):
        eg = populated_eg(store=DedupArtifactStore())
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        assert isinstance(restored.store, DedupArtifactStore)
        assert restored.store.total_bytes == eg.store.total_bytes

    def test_restored_eg_supports_planning(self, tmp_path):
        from repro.reuse import LinearReuse

        eg = populated_eg()
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        dag = WorkloadDAG()
        current = dag.add_source("src", payload=DataFrame({"x": np.arange(6.0)}))
        for index in range(3):
            current = dag.add_operation([current], Step(index))
        dag.mark_terminal(current)
        plan = LinearReuse().plan(dag, restored)
        assert plan.loads  # the materialized chain is found

    def test_version_check(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        graph_file = tmp_path / "graph.json"
        document = json.loads(graph_file.read_text())
        document["version"] = 99
        graph_file.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version"):
            load_eg(tmp_path)

    def test_dedup_preserved_after_reload(self, tmp_path):
        # two workloads sharing the source column: the dedup store holds the
        # shared column once, and reloading must not inflate it back
        eg = populated_eg(store=DedupArtifactStore())
        dag = WorkloadDAG()
        source = dag.add_source("src", payload=DataFrame({"x": np.arange(6.0)}))
        # two steps whose outputs share the same columns (same lineage
        # ids), so the dedup store holds them once
        shared = DataFrame({"x": np.arange(6.0) * 2})
        for tag in ("left", "right"):
            step = dag.add_operation([source], Step(tag))
            dag.vertex(step).record_result(shared, compute_time=1.0)
            dag.mark_terminal(step)
        Updater(eg, MaterializeAll()).update(dag)
        logical = eg.materialized_artifact_bytes(include_sources=True)
        assert eg.store.total_bytes < logical

        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        assert restored.store.total_bytes == eg.store.total_bytes
        # shared columns serialized once on disk: one .npy per distinct
        # lineage id, not one per (vertex, column)
        column_files = list((tmp_path / "store" / "columns").glob("*.npy"))
        distinct_ids = {
            cid
            for layout in eg.store._frame_layout.values()
            for _name, cid in layout
        }
        assert len(column_files) == len(distinct_ids)

    def test_tiered_store_reopens_in_place(self, tmp_path):
        store_dir = tmp_path / "egdir"
        eg = populated_eg(store=TieredArtifactStore())
        save_eg(eg, store_dir)
        restored = load_eg(store_dir)
        assert isinstance(restored.store, TieredArtifactStore)
        # reopened lazily: everything cold, nothing in RAM yet
        assert restored.store.hot_bytes == 0
        for vertex_id in restored.store.vertex_ids:
            assert restored.store.tier_of(vertex_id) is StorageTier.COLD
        # contents still byte-identical, and reading promotes
        for vertex_id in eg.materialized_ids():
            assert restored.load(vertex_id) == eg.load(vertex_id)
        assert restored.store.stats.promotions > 0

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EGPersistenceError) as excinfo:
            load_eg(tmp_path / "nowhere")
        assert excinfo.value.path == tmp_path / "nowhere" / "graph.json"

    def test_corrupt_graph_json(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        (tmp_path / "graph.json").write_text("{not json")
        with pytest.raises(EGPersistenceError, match="corrupt"):
            load_eg(tmp_path)

    def test_missing_manifest(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        (tmp_path / "store" / "manifest.json").unlink()
        with pytest.raises(EGPersistenceError, match="manifest"):
            load_eg(tmp_path)

    def test_truncated_graph_document(self, tmp_path):
        eg = populated_eg()
        save_eg(eg, tmp_path)
        graph_file = tmp_path / "graph.json"
        document = json.loads(graph_file.read_text())
        del document["vertices"][0]["frequency"]
        graph_file.write_text(json.dumps(document))
        with pytest.raises(EGPersistenceError, match="corrupt"):
            load_eg(tmp_path)

    def test_legacy_v1_is_refused(self, tmp_path):
        # a v1 directory (whole store pickled as store.pkl) no longer loads
        eg = populated_eg()
        save_eg(eg, tmp_path)
        graph_file = tmp_path / "graph.json"
        document = json.loads(graph_file.read_text())
        document["version"] = 1
        graph_file.write_text(json.dumps(document))
        with (tmp_path / "store.pkl").open("wb") as handle:
            pickle.dump(eg.materialized_ids(), handle)
        with pytest.raises(EGPersistenceError, match="version 1") as excinfo:
            load_eg(tmp_path)
        assert excinfo.value.path == graph_file

    def test_quality_survives(self, tmp_path):
        eg = populated_eg()
        vertex = next(v for v in eg.artifact_vertices() if not v.is_source)
        from repro.graph.artifacts import ArtifactMeta, ArtifactType

        vertex.meta = ArtifactMeta(
            artifact_type=ArtifactType.MODEL, quality=0.77, model_type="Fake"
        )
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        assert restored.vertex(vertex.vertex_id).quality == 0.77


class TestHotBudgetRoundTrip:
    """The hot-tier RAM budget must survive a save/load cycle.

    Regression guard: the generic ``_save_store`` branch used to hardcode
    ``"hot_budget_bytes": None`` in the manifest, silently discarding the
    budget of any budget-carrying store routed through it.
    """

    def test_tiered_budget_survives_roundtrip(self, tmp_path):
        eg = populated_eg(store=TieredArtifactStore(hot_budget_bytes=5000))
        save_eg(eg, tmp_path)
        restored = load_eg(tmp_path)
        assert restored.store.hot_budget_bytes == 5000

    def test_generic_branch_records_store_budget(self, tmp_path):
        store = DedupArtifactStore()
        # any store that happens to carry a budget attribute must have it
        # recorded, not clobbered with null
        store.hot_budget_bytes = 4096
        eg = populated_eg(store=store)
        save_eg(eg, tmp_path)
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["hot_budget_bytes"] == 4096

    def test_generic_branch_defaults_to_null_budget(self, tmp_path):
        eg = populated_eg(store=DedupArtifactStore())
        save_eg(eg, tmp_path)
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["hot_budget_bytes"] is None
