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
* **utility** composes through a stitched topological pass:
  :meth:`recreation_costs` / :meth:`potentials` walk partition graphs and
  stubs together and are bit-identical to the flattened graph's own
  passes (same ancestor sets, same exactly-rounded ``math.fsum``).
* **materialization** composes with *boundary semantics*: each
  partition's materializer sees only its own sub-graph, treating
  stub inputs as available — a defined distributed approximation that is
  exact for set-insensitive strategies (``MaterializeAll``) and
  per-partition-greedy otherwise.

:meth:`flatten` reconstitutes the single-graph view (partition vertices
plus stub edges) for equivalence checks, fingerprinting, and handing the
graph to single-graph tooling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import fsum
from typing import Any

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

        for vertex_id, attrs in workload.graph.nodes(data=True):
            piece_for(routed.owner[vertex_id]).graph.add_node(
                vertex_id, vertex=attrs["vertex"]
            )
        new_stubs: list[EdgeStub] = []
        for src, dst, attrs in workload.graph.edges(data=True):
            src_partition = routed.owner[src]
            dst_partition = routed.owner[dst]
            if src_partition == dst_partition:
                pieces[src_partition].graph.add_edge(src, dst, **dict(attrs))
                continue
            operation = attrs.get("operation")
            stub = EdgeStub(
                src=src,
                dst=dst,
                src_partition=src_partition,
                dst_partition=dst_partition,
                op_hash=operation.op_hash if operation is not None else None,
                op_name=operation.name if operation is not None else None,
                op_params=dict(operation.params) if operation is not None else None,
                order=attrs.get("order", 0),
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
            owner = self._owner.get(vertex_id)
        if owner is not None:
            return owner
        for index, partition in enumerate(self.partitions):
            if vertex_id in partition:
                return index
        return None

    def __contains__(self, vertex_id: str) -> bool:
        return any(vertex_id in partition for partition in self.partitions)

    def vertex(self, vertex_id: str):
        partition = self.partition_of(vertex_id)
        if partition is None:
            raise KeyError(f"unknown vertex {vertex_id[:12]}")
        return self.partitions[partition].vertex(vertex_id)

    def stubs(self) -> list[EdgeStub]:
        with self._lock:
            return list(self._stubs.values())

    @property
    def stub_count(self) -> int:
        with self._lock:
            return len(self._stubs)

    @property
    def num_vertices(self) -> int:
        return sum(partition.num_vertices for partition in self.partitions)

    def partition_vertex_counts(self) -> list[int]:
        return [partition.num_vertices for partition in self.partitions]

    def materialized_ids(self) -> set[str]:
        """Union of every partition's materialized set (disjoint by owner)."""
        materialized: set[str] = set()
        for partition in self.partitions:
            materialized |= partition.materialized_ids()
        return materialized

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

    # ------------------------------------------------------------------
    # Composed derived quantities (stitched topological passes)
    # ------------------------------------------------------------------
    def _stitched_adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """Parents/children maps over partition edges *and* stubs."""
        parents: dict[str, list[str]] = {}
        children: dict[str, list[str]] = {}
        for partition in self.partitions:
            for vertex_id in partition.graph.nodes:
                parents[vertex_id] = list(partition.graph.predecessors(vertex_id))
                children[vertex_id] = list(partition.graph.successors(vertex_id))
        with self._lock:
            stubs = list(self._stubs.values())
        for stub in stubs:
            if stub.src in parents and stub.dst in parents:
                parents[stub.dst].append(stub.src)
                children[stub.src].append(stub.dst)
        return parents, children

    def recreation_costs(self) -> dict[str, float]:
        """C_r(v) composed across partitions — bit-identical to
        ``flatten().recreation_costs()``.

        Same ancestor-set topological pass as
        :meth:`~repro.eg.graph.ExperimentGraph.recreation_costs`, walking
        partition edges and stubs together; :func:`math.fsum` is exactly
        rounded, hence independent of summation order, so equality with
        the flat pass is exact, not approximate.
        """
        parents, children = self._stitched_adjacency()
        compute_time = {
            vertex_id: partition.vertex(vertex_id).compute_time
            for partition in self.partitions
            for vertex_id in partition.graph.nodes
        }
        in_degree = {vertex_id: len(parents[vertex_id]) for vertex_id in parents}
        ready = [vertex_id for vertex_id, degree in in_degree.items() if degree == 0]
        ancestors: dict[str, frozenset[str]] = {}
        costs: dict[str, float] = {}
        processed = 0
        while ready:
            vertex_id = ready.pop()
            processed += 1
            merged: set[str] = set()
            for parent in parents[vertex_id]:
                merged |= ancestors[parent]
                merged.add(parent)
            ancestors[vertex_id] = frozenset(merged)
            costs[vertex_id] = fsum(
                [compute_time[vertex_id]]
                + [compute_time[ancestor] for ancestor in merged]
            )
            for child in children[vertex_id]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if processed != len(parents):
            raise ValueError("stitched partition graph contains a cycle")
        return costs

    def potentials(self) -> dict[str, float]:
        """p(v) composed across partitions — matches ``flatten().potentials()``."""
        parents, children = self._stitched_adjacency()
        out_degree = {vertex_id: len(children[vertex_id]) for vertex_id in children}
        ready = [vertex_id for vertex_id, degree in out_degree.items() if degree == 0]
        potential: dict[str, float] = {}
        while ready:
            vertex_id = ready.pop()
            vertex = self.vertex(vertex_id)
            best = vertex.quality if vertex.is_model else 0.0
            for child in children[vertex_id]:
                best = max(best, potential[child])
            potential[vertex_id] = best
            for parent in parents[vertex_id]:
                out_degree[parent] -= 1
                if out_degree[parent] == 0:
                    ready.append(parent)
        return potential

    # ------------------------------------------------------------------
    def store_statistics(self) -> dict[str, Any]:
        return {
            f"partition{index}": partition.store_statistics()
            for index, partition in enumerate(self.partitions)
        }
