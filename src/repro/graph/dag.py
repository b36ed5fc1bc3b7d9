"""Workload DAG — vertices are artifacts, edges are operations.

Vertex ids are *content addresses*: a source vertex is identified by its
dataset name, and a derived vertex by the hash of its parent ids and the
operation hash.  Two workloads that apply the same operations to the same
sources therefore produce identical vertex ids, which is what lets the
Experiment Graph recognize previously computed artifacts (paper Section 3.2).

Multi-input operations are modelled with *supernodes* (paper Section 4.1):
a data-less vertex with incoming edges from each input, whose single
outgoing edge carries the operation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import networkx as nx

from .artifacts import ArtifactMeta, ArtifactType, artifact_meta, payload_size_bytes
from .operations import Operation

__all__ = ["Vertex", "WorkloadDAG", "source_vertex_id", "derived_vertex_id"]


def source_vertex_id(name: str) -> str:
    """Vertex id of a raw source dataset, derived from its name."""
    return hashlib.sha256(b"source\x00" + name.encode("utf-8")).hexdigest()


def derived_vertex_id(parent_ids: Sequence[str], op_hash: str) -> str:
    """Vertex id of an operation output, derived from parents and operation."""
    digest = hashlib.sha256()
    for parent in parent_ids:
        digest.update(parent.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(op_hash.encode("utf-8"))
    return digest.hexdigest()


def supernode_id(parent_ids: Sequence[str]) -> str:
    digest = hashlib.sha256(b"supernode")
    for parent in parent_ids:
        digest.update(b"\x00")
        digest.update(parent.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class Vertex:
    """State of one artifact vertex inside a workload DAG."""

    vertex_id: str
    artifact_type: ArtifactType
    #: payload once computed or loaded (DataFrame / estimator / scalar)
    data: Any = None
    #: whether ``data`` is valid
    computed: bool = False
    #: seconds the producing operation took in this workload (measured)
    compute_time: float = 0.0
    #: payload size in bytes (measured after computation)
    size: int = 0
    meta: ArtifactMeta | None = None
    is_source: bool = False
    source_name: str | None = None
    #: filled by the optimizer: load this vertex from the EG instead of computing
    reuse_from_store: bool = False
    #: filled by the optimizer: warmstart this training op from a stored model
    warmstart_model: Any = None

    @property
    def is_supernode(self) -> bool:
        return self.artifact_type is ArtifactType.SUPERNODE

    def record_result(self, payload: Any, compute_time: float, warmstartable: bool = False) -> None:
        """Store an execution result and refresh meta-data/size."""
        self.data = payload
        self.computed = True
        self.compute_time = compute_time
        self.size = payload_size_bytes(payload)
        self.meta = artifact_meta(payload, warmstartable=warmstartable)

    def record_load(self, payload: Any, size: int, meta: ArtifactMeta | None) -> None:
        """Take a stored artifact's payload with its recorded size and
        meta-data (derived from the payload when none was recorded); the
        compute time stays what the workload measured, if anything."""
        self.data = payload
        self.computed = True
        self.size = size
        self.meta = meta if meta is not None else artifact_meta(payload)


class WorkloadDAG:
    """A single workload's directed acyclic graph of artifacts."""

    def __init__(self):
        self.graph = nx.DiGraph()
        self.terminals: list[str] = []
        #: global workload sequence number assigned by a coordinator that
        #: fans one workload out to several Experiment Graph partitions.
        #: ``ExperimentGraph.union_workload`` stamps ``last_seen`` with it
        #: instead of the per-graph counter, so per-partition unions stay
        #: bit-identical to a single-graph replay.  ``None`` (the default)
        #: keeps the historical per-graph numbering.
        self.global_index: int | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_source(self, name: str, payload: Any = None) -> str:
        """Add (or return) a raw source dataset vertex."""
        vertex_id = source_vertex_id(name)
        if vertex_id not in self.graph:
            vertex = Vertex(
                vertex_id=vertex_id,
                artifact_type=ArtifactType.DATASET,
                is_source=True,
                source_name=name,
            )
            if payload is not None:
                vertex.record_result(payload, compute_time=0.0)
            self.graph.add_node(vertex_id, vertex=vertex)
        elif payload is not None and not self.vertex(vertex_id).computed:
            self.vertex(vertex_id).record_result(payload, compute_time=0.0)
        return vertex_id

    def add_operation(self, inputs: Sequence[str], operation: Operation) -> str:
        """Append an operation; returns the output vertex id.

        Single-input operations add ``input -> output``.  Multi-input
        operations insert a supernode: ``input_i -> supernode -> output``.
        Re-adding an identical operation is a no-op returning the same id.
        """
        if not inputs:
            raise ValueError("operation needs at least one input vertex")
        for vertex_id in inputs:
            if vertex_id not in self.graph:
                raise KeyError(f"unknown input vertex {vertex_id[:12]}")

        if len(inputs) == 1:
            tail = inputs[0]
        else:
            tail = supernode_id(inputs)
            if tail not in self.graph:
                self.graph.add_node(
                    tail,
                    vertex=Vertex(vertex_id=tail, artifact_type=ArtifactType.SUPERNODE),
                )
                for order, parent in enumerate(inputs):
                    self.graph.add_edge(parent, tail, operation=None, order=order, active=True)

        output_id = derived_vertex_id([tail], operation.op_hash)
        if output_id not in self.graph:
            self.graph.add_node(
                output_id,
                vertex=Vertex(vertex_id=output_id, artifact_type=operation.return_type),
            )
            self.graph.add_edge(tail, output_id, operation=operation, order=0, active=True)
        return output_id

    def mark_terminal(self, vertex_id: str) -> None:
        """Declare a vertex as a workload output (paper: terminal vertex)."""
        if vertex_id not in self.graph:
            raise KeyError(f"unknown vertex {vertex_id[:12]}")
        if vertex_id not in self.terminals:
            self.terminals.append(vertex_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: str) -> Vertex:
        return self.graph.nodes[vertex_id]["vertex"]

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self.graph

    def vertices(self) -> Iterator[Vertex]:
        for _vid, attrs in self.graph.nodes(data=True):
            yield attrs["vertex"]

    def artifact_vertices(self) -> Iterator[Vertex]:
        """All vertices except supernodes."""
        return (v for v in self.vertices() if not v.is_supernode)

    @property
    def num_vertices(self) -> int:
        return self.graph.number_of_nodes()

    def sources(self) -> list[str]:
        return [v.vertex_id for v in self.vertices() if v.is_source]

    def parents(self, vertex_id: str) -> list[str]:
        """Parent vertex ids in input order (meaningful through supernodes)."""
        incoming = sorted(
            self.graph.in_edges(vertex_id, data=True), key=lambda e: e[2]["order"]
        )
        return [edge[0] for edge in incoming]

    def children(self, vertex_id: str) -> list[str]:
        return list(self.graph.successors(vertex_id))

    def incoming_operation(self, vertex_id: str) -> Operation | None:
        """The operation that produces this vertex (None for sources/supernodes)."""
        for _src, _dst, attrs in self.graph.in_edges(vertex_id, data=True):
            if attrs["operation"] is not None:
                return attrs["operation"]
        return None

    def operation_inputs(self, vertex_id: str) -> list[str]:
        """The *data* inputs of the operation producing ``vertex_id``.

        Resolves through a supernode to the actual input artifacts.
        """
        parents = self.parents(vertex_id)
        if len(parents) == 1 and self.vertex(parents[0]).is_supernode:
            return self.parents(parents[0])
        return parents

    def topological_order(self) -> list[str]:
        return list(nx.topological_sort(self.graph))

    # ------------------------------------------------------------------
    # Edge activity (used by the local pruner)
    # ------------------------------------------------------------------
    def set_edge_active(self, src: str, dst: str, active: bool) -> None:
        self.graph.edges[src, dst]["active"] = active

    def edge_active(self, src: str, dst: str) -> bool:
        return self.graph.edges[src, dst]["active"]

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def total_artifact_size(self) -> int:
        """Total bytes of all computed artifact payloads (Table 1's S)."""
        return sum(v.size for v in self.artifact_vertices() if v.computed)

    def num_artifacts(self) -> int:
        """Number of artifact vertices (Table 1's N)."""
        return sum(1 for _ in self.artifact_vertices())

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError("workload graph contains a cycle")
        for vertex in self.vertices():
            if vertex.is_supernode:
                if self.graph.out_degree(vertex.vertex_id) != 1:
                    raise ValueError("supernode must have exactly one outgoing edge")
                if self.graph.in_degree(vertex.vertex_id) < 2:
                    raise ValueError("supernode must have at least two inputs")
            if vertex.is_source and self.graph.in_degree(vertex.vertex_id) != 0:
                raise ValueError("source vertex cannot have incoming edges")
        for terminal in self.terminals:
            if terminal not in self.graph:
                raise ValueError("terminal vertex missing from graph")
