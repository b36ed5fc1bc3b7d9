"""Partitioned EG persistence: stub round-trips through EG persistence v2."""

import json

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.persistence import EGPersistenceError, load_eg, save_eg
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.shard import (
    PartitionedExperimentGraph,
    balanced_source_names,
    load_partitioned_eg,
    save_partitioned_eg,
)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, tag=0):
        super().__init__("join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


NAMES = balanced_source_names(4, 4)


def frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


def build_workloads() -> list[WorkloadDAG]:
    workloads = []
    for group in range(4):
        dag = WorkloadDAG()
        current = dag.add_source(NAMES[group], payload=frame(group))
        for step in range(2 + group % 2):
            current = dag.add_operation([current], Step((group, step)))
            dag.vertex(current).record_result(frame(group + step), compute_time=0.25)
        dag.mark_terminal(current)
        workloads.append(dag)
    for left, right in [(0, 1), (2, 3), (1, 2)]:
        dag = WorkloadDAG()
        a = dag.add_source(NAMES[left], payload=frame(left))
        a = dag.add_operation([a], Step((left, 0)))
        dag.vertex(a).record_result(frame(left), compute_time=0.25)
        b = dag.add_source(NAMES[right], payload=frame(right))
        joined = dag.add_operation([a, b], Join((left, right)))
        dag.vertex(joined).record_result(frame(7.0), compute_time=1.0)
        dag.mark_terminal(joined)
        workloads.append(dag)
    return workloads


def populated_peg() -> PartitionedExperimentGraph:
    peg = PartitionedExperimentGraph(4)
    for workload in build_workloads():
        peg.union_workload(workload)
    return peg


class TestRoundTrip:
    def test_structure_and_stub_registry_survive(self, tmp_path):
        peg = populated_peg()
        save_partitioned_eg(peg, tmp_path)
        restored = load_partitioned_eg(tmp_path)
        assert restored.n_partitions == peg.n_partitions
        assert restored.workloads_observed == peg.workloads_observed
        assert [p.num_vertices for p in restored.partitions] == [
            p.num_vertices for p in peg.partitions
        ]
        original = {(s.src, s.dst): s for s in peg.stubs()}
        reloaded = {(s.src, s.dst): s for s in restored.stubs()}
        assert set(original) == set(reloaded)
        for key, stub in original.items():
            twin = reloaded[key]
            assert (twin.src_partition, twin.dst_partition) == (
                stub.src_partition,
                stub.dst_partition,
            )
            assert (twin.op_hash, twin.op_name, twin.order) == (
                stub.op_hash,
                stub.op_name,
                stub.order,
            )

    def test_stub_resolution_bit_identical_to_unpartitioned_graph(self, tmp_path):
        """The satellite check: reopen the partitioned EG and compare its
        flattened view — stub edges resolved back into real edges — against
        the unpartitioned graph round-tripped through EG persistence v2."""
        peg = populated_peg()
        flat = ExperimentGraph()
        for workload in build_workloads():
            flat.union_workload(workload)
        save_partitioned_eg(peg, tmp_path / "sharded")
        save_eg(flat, tmp_path / "flat")
        restored_flat = load_eg(tmp_path / "flat")
        restored_peg = load_partitioned_eg(tmp_path / "sharded")
        resolved = restored_peg.flatten()
        assert eg_fingerprint(resolved) == eg_fingerprint(restored_flat)
        assert resolved.recreation_costs() == restored_flat.recreation_costs()
        assert resolved.potentials() == restored_flat.potentials()
        # ... and against the graphs that never left memory, so the check
        # cannot be satisfied by both sides dropping a field on reload
        assert eg_fingerprint(restored_peg.flatten()) == eg_fingerprint(
            peg.flatten()
        )
        assert eg_fingerprint(restored_flat) == eg_fingerprint(flat)

    def test_partitions_use_eg_persistence_v2_layout(self, tmp_path):
        peg = populated_peg()
        save_partitioned_eg(peg, tmp_path)
        for index in range(peg.n_partitions):
            document = json.loads(
                (tmp_path / f"partition{index}" / "graph.json").read_text()
            )
            assert document["version"] == 2

    def test_reloaded_graph_keeps_growing(self, tmp_path):
        peg = populated_peg()
        save_partitioned_eg(peg, tmp_path)
        restored = load_partitioned_eg(tmp_path)
        before = restored.workloads_observed
        dag = WorkloadDAG()
        current = dag.add_source(NAMES[0], payload=frame(0))
        current = dag.add_operation([current], Step("after-reload"))
        dag.vertex(current).record_result(frame(3.0), compute_time=0.25)
        dag.mark_terminal(current)
        restored.union_workload(dag)
        assert restored.workloads_observed == before + 1
        assert current in restored.partitions[restored.partition_of(current)]


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(EGPersistenceError, match="manifest"):
            load_partitioned_eg(tmp_path / "nowhere")

    def test_corrupt_manifest(self, tmp_path):
        save_partitioned_eg(populated_peg(), tmp_path)
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(EGPersistenceError, match="corrupt"):
            load_partitioned_eg(tmp_path)

    def test_unsupported_version(self, tmp_path):
        save_partitioned_eg(populated_peg(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(EGPersistenceError, match="version"):
            load_partitioned_eg(tmp_path)
