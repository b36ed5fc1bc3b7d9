"""Partition-aware Experiment Graph with explicit cross-partition stubs.

:class:`PartitionedExperimentGraph` holds N ordinary
:class:`~repro.eg.graph.ExperimentGraph` partitions and splits every
incoming workload by root-lineage fingerprint (:mod:`repro.shard.routing`):
each partition receives the induced sub-DAG of the vertices it owns, and
every edge whose endpoints route to different partitions is recorded as an
:class:`EdgeStub` instead of entering either partition's graph.

The composition contract — the reason partitioning is safe:

* **union** composes because a vertex is owned by exactly one partition,
  so per-partition ``union_workload`` calls touch disjoint vertex sets;
  a shared global workload index (``WorkloadDAG.global_index``) keeps
  ``frequency``/``last_seen`` bookkeeping bit-identical to a single-graph
  replay.
* **materialization** composes with *boundary semantics*: each
  partition's materializer sees only its own sub-graph, treating
  stub inputs as available — a defined distributed approximation that is
  exact for set-insensitive strategies (``MaterializeAll``) and
  per-partition-greedy otherwise.

:meth:`flatten` reconstitutes the single-graph view (partition vertices
plus stub edges) for equivalence checks, fingerprinting, and handing the
graph to single-graph tooling.  The sharded coordinator's instance keeps
its partitions empty — the worker processes own the contents — and uses
it for routing, stubs and the global commit counter only; a graph read
back by :func:`~repro.shard.persistence.load_partitioned_eg` serves
:meth:`flatten`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..eg.graph import ExperimentGraph
from ..eg.storage import ArtifactStore
from ..graph.dag import WorkloadDAG
from .routing import RoutedWorkload, route_workload

__all__ = ["EdgeStub", "SplitWorkload", "PartitionedExperimentGraph"]


@dataclass(frozen=True)
class EdgeStub:
    """One cross-partition edge, kept outside both partition graphs.

    Carries everything the flattened graph's edge would: the operation
    identity (hash/name/params) and the input order through a supernode.
    ``op_params`` is in-memory only — persistence keeps hash/name/order,
    matching what EG persistence v2 stores for ordinary edges.
    """

    src: str
    dst: str
    src_partition: int
    dst_partition: int
    op_hash: str | None = None
    op_name: str | None = None
    op_params: dict | None = None
    order: int = 0


@dataclass
class SplitWorkload:
    """One workload split into per-partition pieces plus its routing."""

    routed: RoutedWorkload
    #: partition -> induced sub-DAG (only partitions owning vertices appear)
    pieces: dict[int, WorkloadDAG] = field(default_factory=dict)
    #: stubs for this workload's cross edges (already registered globally)
    stubs: list[EdgeStub] = field(default_factory=list)


class PartitionedExperimentGraph:
    """N Experiment Graph partitions + the stub registry that joins them."""

    def __init__(
        self,
        n_partitions: int,
        partitions: list[ExperimentGraph] | None = None,
    ):
        if n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        if partitions is not None and len(partitions) != n_partitions:
            raise ValueError("partitions list must match n_partitions")
        self.n_partitions = n_partitions
        if partitions is not None:
            self.partitions = partitions
        else:
            self.partitions = [ExperimentGraph() for _ in range(n_partitions)]
        #: vertex id -> owning partition (every vertex ever split in)
        self._owner: dict[str, int] = {}
        #: (src, dst) -> stub for every cross-partition edge observed
        self._stubs: dict[tuple[str, str], EdgeStub] = {}
        #: global workload counter (the coordinator's commit numbering)
        self.workloads_observed = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Routing / splitting
    # ------------------------------------------------------------------
    def route(self, workload: WorkloadDAG) -> RoutedWorkload:
        """Pure routing decision — mutates no registry state."""
        return route_workload(workload, self.n_partitions)

    def split(
        self, workload: WorkloadDAG, routed: RoutedWorkload | None = None
    ) -> SplitWorkload:
        """Split a workload into per-partition pieces and register its stubs.

        Each piece contains the vertices one partition owns (sharing the
        workload's ``Vertex`` objects — a vertex belongs to exactly one
        piece) and the intra-partition edges with their original
        attributes, so a partition's ``union_workload`` sees a perfectly
        ordinary workload DAG.  Cross edges are excluded from every piece
        and recorded in the stub registry.
        """
        routed = routed if routed is not None else self.route(workload)
        pieces: dict[int, WorkloadDAG] = {}

        def piece_for(partition: int) -> WorkloadDAG:
            piece = pieces.get(partition)
            if piece is None:
                piece = pieces[partition] = WorkloadDAG()
            return piece

        for vertex in workload.vertices():
            piece_for(routed.owner[vertex.vertex_id]).add_vertex(vertex)
        new_stubs: list[EdgeStub] = []
        for src, dst, edge in workload.edges():
            src_partition = routed.owner[src]
            dst_partition = routed.owner[dst]
            if src_partition == dst_partition:
                pieces[src_partition].add_edge(
                    src, dst, edge.operation, edge.order, edge.active
                )
                continue
            operation = edge.operation
            stub = EdgeStub(
                src=src,
                dst=dst,
                src_partition=src_partition,
                dst_partition=dst_partition,
                op_hash=operation.op_hash if operation is not None else None,
                op_name=operation.name if operation is not None else None,
                op_params=dict(operation.params) if operation is not None else None,
                order=edge.order,
            )
            new_stubs.append(stub)
        for terminal in workload.terminals:
            pieces[routed.owner[terminal]].terminals.append(terminal)

        with self._lock:
            for vertex_id, partition in routed.owner.items():
                self._owner[vertex_id] = partition
            for stub in new_stubs:
                self._stubs.setdefault((stub.src, stub.dst), stub)
        return SplitWorkload(routed=routed, pieces=pieces, stubs=new_stubs)

    def next_global_index(self) -> int:
        """Allocate the next global workload number (gap-free, 1-based)."""
        with self._lock:
            self.workloads_observed += 1
            return self.workloads_observed

    def union_workload(self, workload: WorkloadDAG) -> SplitWorkload:
        """Split and union one workload into its partitions (single-threaded
        convenience for tests, persistence round-trips, and replays; the
        sharded service drives the same steps through per-shard queues)."""
        index = self.next_global_index()
        split = self.split(workload)
        for partition in sorted(split.pieces):
            piece = split.pieces[partition]
            piece.global_index = index
            self.partitions[partition].union_workload(piece)
        return split

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def partition_of(self, vertex_id: str) -> int | None:
        with self._lock:
            return self._owner.get(vertex_id)

    def stubs(self) -> list[EdgeStub]:
        with self._lock:
            return list(self._stubs.values())

    @property
    def stub_count(self) -> int:
        with self._lock:
            return len(self._stubs)

    # ------------------------------------------------------------------
    # Flattening (single-graph view)
    # ------------------------------------------------------------------
    def flatten(self, store: ArtifactStore | None = None) -> ExperimentGraph:
        """Reconstitute the unpartitioned graph: vertices + edges + stubs.

        Structure and bookkeeping only — the flattened graph gets a fresh
        (empty) store unless one is passed; artifact payloads stay in the
        partitions' stores.  Stubs whose endpoints are not (yet) present
        in any partition are skipped, which can only happen when a
        workload's pieces were partially rejected mid-merge.
        """
        from dataclasses import replace

        flat = ExperimentGraph(store)
        for partition in self.partitions:
            for vertex_id, attrs in partition.graph.nodes(data=True):
                flat.graph.add_node(vertex_id, vertex=replace(attrs["vertex"]))
            for src, dst, attrs in partition.graph.edges(data=True):
                flat.graph.add_edge(src, dst, **dict(attrs))
            flat.source_ids |= partition.source_ids
        with self._lock:
            stubs = list(self._stubs.values())
        for stub in stubs:
            if stub.src in flat.graph and stub.dst in flat.graph:
                flat.graph.add_edge(
                    stub.src,
                    stub.dst,
                    op_hash=stub.op_hash,
                    op_name=stub.op_name,
                    op_params=dict(stub.op_params)
                    if stub.op_params is not None
                    else None,
                    order=stub.order,
                )
        flat.workloads_observed = self.workloads_observed
        return flat
