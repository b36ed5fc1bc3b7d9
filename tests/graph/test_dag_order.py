"""The workload DAG's orders against networkx, the representation it replaced.

Every DAG here is built with its insertions recorded; the same insertions
replayed into an ``nx.DiGraph`` must give the same vertex order,
topological order, edge order, parents (sorted by edge ``order``) and
children.  Those orders reach the wire bytes, the Experiment Graph's
insertion order and every shard piece, so they are pinned bit for bit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.parser import parse_workload
from repro.graph.artifacts import ArtifactType
from repro.graph.dag import Vertex, WorkloadDAG
from repro.graph.operations import DataOperation
from repro.shard import PartitionedExperimentGraph
from repro.transport.wire import decode_workload, encode_workload
from repro.workloads.kaggle import KAGGLE_WORKLOADS
from repro.workloads.openml import make_pipeline_script, sample_pipeline_specs
from repro.workloads.synthetic_dag import (
    SyntheticDAGConfig,
    generate_synthetic_workload,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
PINS = Path(__file__).parent / "data" / "kaggle_dag_pins.json"


class Step(DataOperation):
    def __init__(self, index: int):
        super().__init__("step", params={"i": index})

    def run(self, underlying_data):
        return underlying_data


@contextmanager
def recorded():
    """Log every vertex and edge insertion on the DAG that receives it."""
    add_vertex, add_edge = WorkloadDAG.add_vertex, WorkloadDAG.add_edge

    def logged_vertex(self, vertex):
        add_vertex(self, vertex)
        self.__dict__.setdefault("insertions", []).append((vertex.vertex_id,))

    def logged_edge(self, src, dst, operation, order=0, active=True):
        add_edge(self, src, dst, operation, order, active)
        self.__dict__.setdefault("insertions", []).append((src, dst, order))

    WorkloadDAG.add_vertex, WorkloadDAG.add_edge = logged_vertex, logged_edge
    try:
        yield
    finally:
        WorkloadDAG.add_vertex, WorkloadDAG.add_edge = add_vertex, add_edge


def replay(dag: WorkloadDAG) -> nx.DiGraph:
    graph = nx.DiGraph()
    for insertion in dag.__dict__.get("insertions", []):
        if len(insertion) == 1:
            graph.add_node(insertion[0])
        else:
            src, dst, order = insertion
            graph.add_edge(src, dst, order=order)
    return graph


def assert_orders_match_networkx(dag: WorkloadDAG) -> None:
    graph = replay(dag)
    assert [vertex.vertex_id for vertex in dag.vertices()] == list(graph.nodes)
    assert dag.topological_order() == list(nx.topological_sort(graph))
    assert [(src, dst) for src, dst, _edge in dag.edges()] == list(graph.edges())
    for vertex_id in graph.nodes:
        incoming = sorted(
            graph.in_edges(vertex_id, data=True), key=lambda e: e[2]["order"]
        )
        assert dag.parents(vertex_id) == [src for src, _dst, _attrs in incoming]
        assert dag.children(vertex_id) == list(graph.successors(vertex_id))


@st.composite
def workloads(draw) -> WorkloadDAG:
    """Several sources, unary steps, joins through supernodes (diamonds when
    a join's inputs share an ancestor) and several terminals."""
    dag = WorkloadDAG()
    ids = [dag.add_source(f"s{index}") for index in range(draw(st.integers(1, 3)))]
    for index in range(draw(st.integers(1, 25))):
        inputs = draw(
            st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)
        )
        ids.append(dag.add_operation(inputs, Step(index)))
    for terminal in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4)):
        dag.mark_terminal(terminal)
    return dag


class TestAgainstNetworkx:
    @SETTINGS
    @given(st.data())
    def test_built_decoded_and_split(self, data):
        with recorded():
            dag = data.draw(workloads())
            decoded = decode_workload(encode_workload(dag, include_payloads=False))
            pieces = PartitionedExperimentGraph(3).split(dag).pieces.values()
        assert_orders_match_networkx(dag)
        assert_orders_match_networkx(decoded)
        for piece in pieces:
            assert_orders_match_networkx(piece)

    @SETTINGS
    @given(st.data())
    def test_insertion_order_need_not_be_topological(self, data):
        """Vertices in any order, then edges in any order with repeated
        ``order`` values: parents sort stably by ``order``."""
        n = data.draw(st.integers(2, 12))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                unique=True,
            )
        )
        vertices = data.draw(st.permutations(range(n)))
        edges = data.draw(st.permutations(edges))
        with recorded():
            dag = WorkloadDAG()
            for index in vertices:
                dag.add_vertex(Vertex(f"v{index}", ArtifactType.DATASET))
            for src, dst in edges:
                dag.add_edge(f"v{src}", f"v{dst}", None, data.draw(st.integers(0, 2)))
        assert_orders_match_networkx(dag)

    @pytest.mark.parametrize("workload_id", sorted(KAGGLE_WORKLOADS))
    def test_kaggle_scripts(self, workload_id, tiny_home_credit):
        with recorded():
            dag = parse_workload(KAGGLE_WORKLOADS[workload_id], tiny_home_credit).dag
        assert_orders_match_networkx(dag)

    @pytest.mark.parametrize("spec", sample_pipeline_specs(8, seed=7))
    def test_openml_pipelines(self, spec, tiny_credit_g):
        with recorded():
            dag = parse_workload(make_pipeline_script(spec), tiny_credit_g).dag
        assert_orders_match_networkx(dag)

    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_workloads(self, seed):
        with recorded():
            dag = generate_synthetic_workload(
                seed, SyntheticDAGConfig(min_nodes=40, max_nodes=120)
            )
        assert_orders_match_networkx(dag)


@pytest.mark.parametrize("workload_id", sorted(KAGGLE_WORKLOADS))
def test_kaggle_vertex_ids_and_orders_are_pinned(workload_id, tiny_home_credit):
    """Vertex ids are content addresses: the eight scripts' ids, their
    topological order and their edge order as the networkx-backed DAG
    produced them."""
    pinned = json.loads(PINS.read_text())[str(workload_id)]
    dag = parse_workload(KAGGLE_WORKLOADS[workload_id], tiny_home_credit).dag
    order = dag.topological_order()
    position = {vertex_id: index for index, vertex_id in enumerate(order)}
    assert order == pinned["topological_order"]
    edges = [[position[src], position[dst]] for src, dst, _edge in dag.edges()]
    assert edges == pinned["edges"]


class TestOrderCache:
    def test_insertion_drops_the_cached_order(self):
        dag = WorkloadDAG()
        source = dag.add_source("s")
        assert dag.topological_order() == [source]
        out = dag.add_operation([source], Step(0))
        assert dag.topological_order() == [source, out]

    def test_callers_cannot_mutate_the_cache(self):
        dag = WorkloadDAG()
        source = dag.add_source("s")
        dag.topological_order().append("x")
        assert dag.topological_order() == [source]

    def test_cycle_raises(self):
        dag = WorkloadDAG()
        for name in ("a", "b"):
            dag.add_vertex(Vertex(name, ArtifactType.DATASET))
        dag.add_edge("a", "b", None)
        dag.add_edge("b", "a", None)
        with pytest.raises(ValueError, match="cycle"):
            dag.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            dag.validate()

    def test_graph_is_gone(self):
        assert not hasattr(WorkloadDAG(), "graph")
