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

from .artifacts import ArtifactMeta, ArtifactType, artifact_meta, payload_size_bytes
from .operations import Operation

__all__ = ["Edge", "Vertex", "WorkloadDAG", "source_vertex_id", "derived_vertex_id"]


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


@dataclass(slots=True)
class Edge:
    """One edge of a workload DAG: the operation it applies (``None`` into a
    supernode), its position among the target's inputs, and whether the
    local pruner left it active."""

    operation: Operation | None
    order: int = 0
    active: bool = True


class WorkloadDAG:
    """A single workload's directed acyclic graph of artifacts.

    Append-only adjacency: vertices in insertion order, each one's parents
    sorted (stably) by edge ``order`` and children in edge insertion order,
    one :class:`Edge` per ``(src, dst)``.  The orders handed out are
    networkx's on the same insertions, which need not be topological.
    """

    def __init__(self):
        self._vertices: dict[str, Vertex] = {}
        self._parents: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, list[str]] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        #: cached :meth:`topological_order`, dropped on every insertion
        self._topological: list[str] | None = None
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
    def add_vertex(self, vertex: Vertex) -> None:
        """Insert a vertex under a new id."""
        vertex_id = vertex.vertex_id
        if vertex_id in self._vertices:
            raise ValueError(f"duplicate vertex {vertex_id[:12]}")
        self._vertices[vertex_id] = vertex
        self._parents[vertex_id] = ()
        self._children[vertex_id] = []
        self._topological = None

    def add_edge(
        self, src: str, dst: str, operation: Operation | None, order=0, active=True
    ) -> None:
        """Insert a new edge between two present vertices."""
        if src not in self._vertices or dst not in self._vertices:
            raise KeyError(f"edge endpoint missing: {src[:12]} -> {dst[:12]}")
        if (src, dst) in self._edges:
            raise ValueError(f"duplicate edge {src[:12]} -> {dst[:12]}")
        edges = self._edges
        edges[src, dst] = Edge(operation, order, active)
        parents = self._parents[dst] + (src,)
        if len(parents) > 1:  # stable: equal orders keep arrival order
            parents = tuple(sorted(parents, key=lambda p: edges[p, dst].order))
        self._parents[dst] = parents
        self._children[src].append(dst)
        self._topological = None

    def add_source(self, name: str, payload: Any = None) -> str:
        """Add (or return) a raw source dataset vertex."""
        vertex_id = source_vertex_id(name)
        vertex = self._vertices.get(vertex_id)
        if vertex is None:
            vertex = Vertex(
                vertex_id=vertex_id,
                artifact_type=ArtifactType.DATASET,
                is_source=True,
                source_name=name,
            )
            self.add_vertex(vertex)
        if payload is not None and not vertex.computed:
            vertex.record_result(payload, compute_time=0.0)
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
            if vertex_id not in self._vertices:
                raise KeyError(f"unknown input vertex {vertex_id[:12]}")

        if len(inputs) == 1:
            tail = inputs[0]
        else:
            tail = supernode_id(inputs)
            if tail not in self._vertices:
                self.add_vertex(Vertex(tail, ArtifactType.SUPERNODE))
                for order, parent in enumerate(inputs):
                    self.add_edge(parent, tail, None, order)

        output_id = derived_vertex_id([tail], operation.op_hash)
        if output_id not in self._vertices:
            self.add_vertex(Vertex(output_id, operation.return_type))
            self.add_edge(tail, output_id, operation)
        return output_id

    def mark_terminal(self, vertex_id: str) -> None:
        """Declare a vertex as a workload output (paper: terminal vertex)."""
        if vertex_id not in self._vertices:
            raise KeyError(f"unknown vertex {vertex_id[:12]}")
        if vertex_id not in self.terminals:
            self.terminals.append(vertex_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: str) -> Vertex:
        return self._vertices[vertex_id]

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def artifact_vertices(self) -> Iterator[Vertex]:
        """All vertices except supernodes."""
        return (v for v in self.vertices() if not v.is_supernode)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def sources(self) -> list[str]:
        return [v.vertex_id for v in self.vertices() if v.is_source]

    def parents(self, vertex_id: str) -> list[str]:
        """Parent vertex ids in input order (meaningful through supernodes)."""
        return list(self._parents[vertex_id])

    def children(self, vertex_id: str) -> list[str]:
        return list(self._children[vertex_id])

    def edges(self) -> Iterator[tuple[str, str, Edge]]:
        """Every ``(src, dst, edge)``: by source insertion, then child insertion."""
        edges = self._edges
        for src, children in self._children.items():
            for dst in children:
                yield src, dst, edges[src, dst]

    def incoming_operation(self, vertex_id: str) -> Operation | None:
        """The operation that produces this vertex (None for sources/supernodes)."""
        for parent in self._parents[vertex_id]:
            operation = self._edges[parent, vertex_id].operation
            if operation is not None:
                return operation
        return None

    def operation_inputs(self, vertex_id: str) -> list[str]:
        """The *data* inputs of the operation producing ``vertex_id``.

        Resolves through a supernode to the actual input artifacts.
        """
        parents = self._parents[vertex_id]
        if len(parents) == 1 and self._vertices[parents[0]].is_supernode:
            return list(self._parents[parents[0]])
        return list(parents)

    def topological_order(self) -> list[str]:
        """Vertex ids as ``networkx.topological_sort`` orders them (by
        generations); raises ``ValueError`` on a cycle."""
        if self._topological is None:
            indegree = {v: len(parents) for v, parents in self._parents.items()}
            order = [v for v, degree in indegree.items() if not degree]
            for vertex_id in order:  # grows while walked, a generation at a time
                for child in self._children[vertex_id]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        order.append(child)
            if len(order) != len(indegree):
                raise ValueError("workload graph contains a cycle")
            self._topological = order
        return list(self._topological)

    # ------------------------------------------------------------------
    # Edge activity (the local pruner sets it on the records of edges())
    # ------------------------------------------------------------------
    def set_edge_active(self, src: str, dst: str, active: bool) -> None:
        self._edges[src, dst].active = active

    def edge_active(self, src: str, dst: str) -> bool:
        return self._edges[src, dst].active

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
        self.topological_order()  # raises on a cycle
        for vertex_id, vertex in self._vertices.items():
            in_degree = len(self._parents[vertex_id])
            if vertex.is_supernode:
                if len(self._children[vertex_id]) != 1:
                    raise ValueError("supernode must have exactly one outgoing edge")
                if in_degree < 2:
                    raise ValueError("supernode must have at least two inputs")
            if vertex.is_source and in_degree != 0:
                raise ValueError("source vertex cannot have incoming edges")
        for terminal in self.terminals:
            if terminal not in self._vertices:
                raise ValueError("terminal vertex missing from graph")
