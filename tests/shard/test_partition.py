"""PartitionedExperimentGraph: splitting, stubs, and composition laws."""

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.shard import PartitionedExperimentGraph, balanced_source_names


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


def _ids(dag: WorkloadDAG) -> set[str]:
    return {vertex.vertex_id for vertex in dag.vertices()}


def frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


NAMES = balanced_source_names(4, 4)


def chain_workload(group: int, depth: int) -> WorkloadDAG:
    dag = WorkloadDAG()
    current = dag.add_source(NAMES[group], payload=frame(group))
    for step in range(depth):
        current = dag.add_operation([current], Step((group, step)))
        dag.vertex(current).record_result(frame(group + step), compute_time=0.5)
    dag.mark_terminal(current)
    return dag


def join_workload(left_group: int, right_group: int, depth: int = 2) -> WorkloadDAG:
    dag = WorkloadDAG()
    left = dag.add_source(NAMES[left_group], payload=frame(left_group))
    for step in range(depth):
        left = dag.add_operation([left], Step((left_group, step)))
        dag.vertex(left).record_result(frame(left_group + step), compute_time=0.5)
    right = dag.add_source(NAMES[right_group], payload=frame(right_group))
    joined = dag.add_operation([left, right], Join((left_group, right_group)))
    dag.vertex(joined).record_result(frame(9.0), compute_time=1.5)
    dag.mark_terminal(joined)
    return dag


def workload_set() -> list[WorkloadDAG]:
    workloads = [chain_workload(group, depth=2 + group % 2) for group in range(4)]
    workloads.append(join_workload(0, 1))
    workloads.append(join_workload(2, 3, depth=3))
    workloads.append(join_workload(1, 2))
    return workloads


def flat_replay(workloads) -> ExperimentGraph:
    eg = ExperimentGraph()
    for workload in workloads:
        eg.union_workload(workload)
    return eg


class TestSplit:
    def test_pieces_partition_the_vertex_set(self):
        peg = PartitionedExperimentGraph(4)
        split = peg.split(join_workload(0, 1))
        piece_vertices = [_ids(p) for p in split.pieces.values()]
        merged = set().union(*piece_vertices)
        assert merged == _ids(join_workload(0, 1))
        for index, a in enumerate(piece_vertices):
            for b in piece_vertices[index + 1 :]:
                assert not (a & b)

    def test_cross_edges_become_stubs_not_piece_edges(self):
        peg = PartitionedExperimentGraph(4)
        workload = join_workload(0, 1)
        split = peg.split(workload)
        piece_edges = sum(len(list(p.edges())) for p in split.pieces.values())
        assert piece_edges + len(split.stubs) == len(list(workload.edges()))
        for stub in split.stubs:
            assert stub.src_partition != stub.dst_partition
        assert peg.stub_count == len(split.stubs) > 0

    def test_repeated_split_does_not_duplicate_stubs(self):
        peg = PartitionedExperimentGraph(4)
        peg.split(join_workload(0, 1))
        count = peg.stub_count
        peg.split(join_workload(0, 1))
        assert peg.stub_count == count

    def test_single_partition_has_no_stubs(self):
        peg = PartitionedExperimentGraph(1)
        peg.union_workload(join_workload(0, 1))
        assert peg.stub_count == 0
        assert peg.partitions[0].num_vertices == peg.flatten().num_vertices


class TestComposition:
    def test_flatten_is_bit_identical_to_flat_union(self):
        workloads = workload_set()
        peg = PartitionedExperimentGraph(4)
        for workload in workloads:
            peg.union_workload(workload)
        flat = flat_replay(workload_set())
        assert eg_fingerprint(peg.flatten()) == eg_fingerprint(flat)

    def test_workload_counter_matches_flat_graph(self):
        workloads = workload_set()
        peg = PartitionedExperimentGraph(4)
        for workload in workloads:
            peg.union_workload(workload)
        assert peg.workloads_observed == len(workloads)
        assert peg.flatten().workloads_observed == len(workloads)

    def test_vertex_resolution_through_owner_map(self):
        peg = PartitionedExperimentGraph(4)
        peg.union_workload(join_workload(0, 1))
        flat = peg.flatten()
        for record in flat.vertices():
            owner = peg.partition_of(record.vertex_id)
            assert owner is not None
            assert record.vertex_id in peg.partitions[owner]

    def test_unknown_vertex_has_no_owner(self):
        peg = PartitionedExperimentGraph(2)
        assert peg.partition_of("no-such-vertex") is None


class TestConstruction:
    def test_rejects_bad_partition_counts(self):
        with pytest.raises(ValueError, match="n_partitions"):
            PartitionedExperimentGraph(0)
        with pytest.raises(ValueError, match="partitions list"):
            PartitionedExperimentGraph(2, partitions=[ExperimentGraph()])
