"""The Experiment Graph (paper Sections 3.2 and 5).

The Experiment Graph (EG) is the union of all executed workload DAGs.  It
keeps, for every artifact vertex, the attributes the materializer and reuse
algorithms need — frequency ``f``, compute time ``t``, size ``s``,
materialization flag, and (for models) the quality score ``q`` — plus the
full meta-data record.  Artifact *content* lives in an associated
:class:`~repro.eg.storage.ArtifactStore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import networkx as nx

from ..graph.artifacts import ArtifactMeta, ArtifactType, Footprint, payload_footprint
from ..graph.dag import WorkloadDAG
from .storage import ArtifactStore, SimpleArtifactStore, StorageTier

if TYPE_CHECKING:
    from .utility_index import UtilityIndex

__all__ = ["EGVertex", "ExperimentGraph", "GraphDelta"]


@dataclass
class EGVertex:
    """Per-vertex bookkeeping inside the Experiment Graph.

    Field names follow the paper's notation: ``frequency`` (f) is the number
    of workloads the artifact appeared in, ``compute_time`` (t) the measured
    time of the operation that produces it, ``size`` (s) its content size in
    bytes, and ``materialized`` (mat) whether its content is in the store.
    ``footprint`` is the meta-data of the *stored* content — its column
    lineage ids and byte sizes, see :meth:`ExperimentGraph.footprint` —
    which the storage-aware materializer charges by without reading it.
    """

    vertex_id: str
    artifact_type: ArtifactType
    frequency: int = 0
    compute_time: float = 0.0
    size: int = 0
    materialized: bool = False
    meta: ArtifactMeta | None = None
    is_source: bool = False
    source_name: str | None = None
    #: index of the last workload (1-based) this artifact appeared in;
    #: used by the recency-based warmstart candidate policy
    last_seen: int = 0
    #: column footprint of the content in the store; ``None`` while nothing
    #: is stored or when the content got there without ``materialize``
    footprint: Footprint | None = None

    def clone(self) -> "EGVertex":
        """A separate record with equal fields: a plain attribute copy
        (``dataclasses.replace`` would re-run ``fields()`` and ``__init__``)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    @property
    def quality(self) -> float:
        """Model quality q in [0, 1]; 0 for non-models or unscored models."""
        if self.meta is not None and self.meta.quality is not None:
            return self.meta.quality
        return 0.0

    @property
    def is_model(self) -> bool:
        return self.artifact_type is ArtifactType.MODEL

    @property
    def is_supernode(self) -> bool:
        return self.artifact_type is ArtifactType.SUPERNODE


@dataclass
class GraphDelta:
    """What one ``union_workload`` changed, for incremental maintenance.

    The copy-on-write publisher consumes :meth:`dirty_vertices` (every
    vertex whose record or adjacency mutated), while the
    :class:`~repro.eg.utility_index.UtilityIndex` uses the finer fields:
    ``compute_time_changes`` and ``quality_changes`` map a *pre-existing*
    vertex id to its value **before** the union, so the index can decide
    which forward/backward cones actually moved.
    """

    new_vertices: list[str] = field(default_factory=list)
    new_edges: list[tuple[str, str]] = field(default_factory=list)
    #: pre-existing vertex ids whose bookkeeping was refreshed (frequency,
    #: last_seen, size, compute time, meta)
    touched: set[str] = field(default_factory=set)
    #: vertex id -> compute time recorded before this union
    compute_time_changes: dict[str, float] = field(default_factory=dict)
    #: vertex id -> model quality recorded before this union
    quality_changes: dict[str, float] = field(default_factory=dict)

    def dirty_vertices(self) -> set[str]:
        """Every vertex whose record or adjacency changed in this union."""
        dirty = set(self.new_vertices) | self.touched
        for src, dst in self.new_edges:
            dirty.add(src)
            dirty.add(dst)
        return dirty


class ExperimentGraph:
    """Union of executed workload DAGs with materialization bookkeeping."""

    def __init__(self, store: ArtifactStore | None = None):
        self.graph = nx.DiGraph()
        self.store: ArtifactStore = store if store is not None else SimpleArtifactStore()
        self.source_ids: set[str] = set()
        self.workloads_observed: int = 0
        #: incremental utility state maintained across unions; installed by
        #: :meth:`repro.eg.utility_index.UtilityIndex.install` (the EG
        #: service does this on its working graph), ``None`` otherwise
        self.utility_index: UtilityIndex | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self.graph

    def vertex(self, vertex_id: str) -> EGVertex:
        return self.graph.nodes[vertex_id]["vertex"]

    def vertices(self) -> Iterator[EGVertex]:
        for _vid, attrs in self.graph.nodes(data=True):
            yield attrs["vertex"]

    def artifact_vertices(self) -> Iterator[EGVertex]:
        return (v for v in self.vertices() if not v.is_supernode)

    @property
    def num_vertices(self) -> int:
        return self.graph.number_of_nodes()

    def materialized_ids(self) -> set[str]:
        return {v.vertex_id for v in self.vertices() if v.materialized}

    def stored_ids(self) -> set[str]:
        """Non-source vertices whose content is stored: an installed index's
        maintained set (live, O(1), do not mutate), else a scan of the flags."""
        if self.utility_index is not None:
            return self.utility_index.stored
        return self.materialized_ids() - self.source_ids

    def materialized_artifact_bytes(self, include_sources: bool = False) -> int:
        """Logical ("real") bytes of materialized artifacts (Figure 6).

        This counts artifact sizes *before* deduplication, which is how the
        paper reports the stored volume; raw sources are excluded by
        default since the updater stores them outside the budget.
        """
        return sum(
            v.size
            for v in self.artifact_vertices()
            if v.materialized and (include_sources or not v.is_source)
        )

    def is_materialized(self, vertex_id: str) -> bool:
        return vertex_id in self.graph and self.vertex(vertex_id).materialized

    def parents(self, vertex_id: str) -> list[str]:
        incoming = sorted(
            self.graph.in_edges(vertex_id, data=True), key=lambda e: e[2].get("order", 0)
        )
        return [edge[0] for edge in incoming]

    def children(self, vertex_id: str) -> list[str]:
        return list(self.graph.successors(vertex_id))

    # ------------------------------------------------------------------
    # Union with an executed workload (paper: Updater task 2)
    # ------------------------------------------------------------------
    def union_workload(self, workload: WorkloadDAG) -> GraphDelta:
        """Merge an executed workload DAG into the EG.

        Adds unseen vertices and edges, bumps the frequency of every artifact
        vertex that appears in the workload, and refreshes measured compute
        times and sizes.  Returns a :class:`GraphDelta` describing exactly
        what changed, for copy-on-write publishing and incremental utility
        maintenance; an installed :attr:`utility_index` is notified before
        returning.
        """
        delta = GraphDelta()
        # a sharding coordinator numbers workloads globally and stamps the
        # pieces (``WorkloadDAG.global_index``); standalone graphs number
        # their own unions — either way ``index`` is what last_seen records
        index = getattr(workload, "global_index", None)
        if index is None:
            self.workloads_observed += 1
            index = self.workloads_observed
        else:
            self.workloads_observed = max(self.workloads_observed, index)
        for vertex in workload.vertices():
            if vertex.vertex_id not in self.graph:
                self.graph.add_node(
                    vertex.vertex_id,
                    vertex=EGVertex(
                        vertex_id=vertex.vertex_id,
                        artifact_type=vertex.artifact_type,
                        is_source=vertex.is_source,
                        source_name=vertex.source_name,
                    ),
                )
                if vertex.is_source:
                    self.source_ids.add(vertex.vertex_id)
                delta.new_vertices.append(vertex.vertex_id)
            else:
                delta.touched.add(vertex.vertex_id)
            record = self.vertex(vertex.vertex_id)
            if not vertex.is_supernode:
                record.frequency += 1
                record.last_seen = index
            if vertex.computed:
                # keep the latest measurement; sizes are deterministic,
                # compute times vary slightly between runs
                if vertex.compute_time > 0.0 or record.compute_time == 0.0:
                    if (
                        vertex.vertex_id in delta.touched
                        and record.compute_time != vertex.compute_time
                        and vertex.vertex_id not in delta.compute_time_changes
                    ):
                        delta.compute_time_changes[vertex.vertex_id] = record.compute_time
                    record.compute_time = vertex.compute_time
                record.size = vertex.size
                if vertex.meta is not None:
                    # do not clobber a quality score with a None one
                    if (
                        record.meta is None
                        or vertex.meta.quality is not None
                        or record.meta.quality is None
                    ):
                        merged = vertex.meta
                        if (
                            record.meta is not None
                            and record.meta.quality is not None
                            and vertex.meta.quality is None
                        ):
                            merged = vertex.meta.with_quality(record.meta.quality)
                        old_quality = record.quality
                        record.meta = merged
                        if (
                            vertex.vertex_id in delta.touched
                            and record.quality != old_quality
                            and vertex.vertex_id not in delta.quality_changes
                        ):
                            delta.quality_changes[vertex.vertex_id] = old_quality

        for src, dst, edge in workload.edges():
            if not self.graph.has_edge(src, dst):
                operation = edge.operation
                self.graph.add_edge(
                    src,
                    dst,
                    op_hash=operation.op_hash if operation is not None else None,
                    op_name=operation.name if operation is not None else None,
                    op_params=dict(operation.params) if operation is not None else None,
                    order=edge.order,
                )
                delta.new_edges.append((src, dst))

        if self.utility_index is not None:
            self.utility_index.apply(delta)
        return delta

    # ------------------------------------------------------------------
    # Derived quantities for the materializer (paper Section 5)
    # ------------------------------------------------------------------
    def recreation_costs(self) -> dict[str, float]:
        """C_r(v) for every vertex: total compute time of its compute graph.

        The compute graph of ``v`` is the set of vertices that must execute
        to recreate ``v`` from the sources; shared ancestors are counted
        once.  Computed in one topological pass with ancestor sets —
        measured at ~0.15 s for a 5k-vertex EG and ~0.5 s at 12k (set
        unions run at C speed; a packed-bitset variant was tried and lost).

        Sums use :func:`math.fsum` (exactly rounded, hence independent of
        summation order) so the incremental
        :class:`~repro.eg.utility_index.UtilityIndex` — which sums the same
        ancestor sets in a different order — is bit-identical to this full
        recompute.
        """
        ancestors: dict[str, frozenset[str]] = {}
        costs: dict[str, float] = {}
        for vertex_id in nx.topological_sort(self.graph):
            parent_ids = list(self.graph.predecessors(vertex_id))
            merged: set[str] = set()
            for parent in parent_ids:
                merged |= ancestors[parent]
                merged.add(parent)
            ancestors[vertex_id] = frozenset(merged)
            costs[vertex_id] = math.fsum(
                [self.vertex(vertex_id).compute_time]
                + [self.vertex(ancestor).compute_time for ancestor in merged]
            )
        return costs

    def potentials(self) -> dict[str, float]:
        """p(v): quality of the best ML model reachable from v (Section 5.1)."""
        potential: dict[str, float] = {}
        for vertex_id in reversed(list(nx.topological_sort(self.graph))):
            vertex = self.vertex(vertex_id)
            best = vertex.quality if vertex.is_model else 0.0
            for child in self.graph.successors(vertex_id):
                best = max(best, potential[child])
            potential[vertex_id] = best
        return potential

    # ------------------------------------------------------------------
    # Materialization state transitions (driven by the Updater)
    # ------------------------------------------------------------------
    def materialize(self, vertex_id: str, payload: object) -> int:
        """Store a vertex's content; returns incremental bytes used.

        This is the one place a :attr:`EGVertex.footprint` is recorded: the
        payload is in hand here and nowhere later.  A re-put keeps the
        content the store already holds (whose column ids may differ from
        this payload's), so it records nothing and :meth:`footprint`
        derives it on first use.
        """
        record = self.vertex(vertex_id)
        kept = vertex_id in self.store
        added = self.store.put(vertex_id, payload)
        record.materialized = True
        if not kept:
            record.footprint = payload_footprint(payload)
        if self.utility_index is not None:
            self.utility_index.note_stored(vertex_id, True)
        return added

    def deselect(self, vertex_id: str) -> None:
        """Clear a vertex's materialized flag and recorded footprint.

        The content itself leaves through :meth:`unmaterialize` or, under
        the versioned service, through a deferred ``store.remove`` once no
        snapshot reader can still load it.
        """
        record = self.vertex(vertex_id)
        record.materialized = False
        record.footprint = None
        if self.utility_index is not None:
            self.utility_index.note_stored(vertex_id, False)

    def unmaterialize(self, vertex_id: str) -> int:
        """Evict a vertex's content; returns bytes released."""
        released = self.store.remove(vertex_id)
        if vertex_id in self.graph:
            self.deselect(vertex_id)
        return released

    def footprint(self, vertex_id: str) -> Footprint:
        """Column footprint of a materialized vertex's stored content.

        Meta-data: answered from the record :meth:`materialize` wrote, with
        no store access.  Only a vertex whose content entered the store
        some other way (an EG reopened from an older checkpoint, a flag set
        by hand) costs one load, after which it is recorded too.
        """
        record = self.vertex(vertex_id)
        if record.footprint is None:
            record.footprint = payload_footprint(self.load(vertex_id))
        return record.footprint

    def load(self, vertex_id: str) -> object:
        """Retrieve a materialized vertex's content."""
        return self.store.get(vertex_id)

    def tier_of(self, vertex_id: str) -> StorageTier:
        """The storage tier a vertex's content resides in.

        Tier-aware cost models charge cold (on-disk) artifacts at disk
        bandwidth.  Vertices the store does not hold are reported HOT so
        tier-oblivious callers and meta-only vertices keep the historical
        pricing.
        """
        try:
            return self.store.tier_of(vertex_id)
        except KeyError:
            return StorageTier.HOT

    def tier_map(self) -> dict[str, StorageTier]:
        """Storage tier for every vertex the store holds, in one call.

        Bulk equivalent of :meth:`tier_of` for hot loops: one lock
        acquisition on tiered stores instead of one per vertex.  Vertices
        absent from the map are not in the store (callers should treat
        them as HOT, matching :meth:`tier_of`).
        """
        return self.store.tiers()

    def store_statistics(self) -> dict:
        """Instrumentation snapshot of the artifact store (bytes per tier,
        hit/promotion/demotion counters for tiered stores)."""
        return self.store.statistics()

    # ------------------------------------------------------------------
    # Warmstarting support (paper Section 6.2)
    # ------------------------------------------------------------------
    def warmstart_candidates(
        self, training_input_id: str, model_type: str
    ) -> list[EGVertex]:
        """Materialized models of ``model_type`` trained on the given artifact.

        Candidates are models whose producing operation consumed
        ``training_input_id`` (directly or through a supernode), sorted by
        quality descending.
        """
        if training_input_id not in self.graph:
            return []
        candidates: list[EGVertex] = []
        frontier = [training_input_id]
        seen: set[str] = set()
        while frontier:
            current = frontier.pop()
            for child in self.graph.successors(current):
                if child in seen:
                    continue
                seen.add(child)
                vertex = self.vertex(child)
                if vertex.is_supernode:
                    frontier.append(child)
                    continue
                if (
                    vertex.is_model
                    and vertex.materialized
                    and vertex.meta is not None
                    and vertex.meta.model_type == model_type
                ):
                    candidates.append(vertex)
        candidates.sort(key=lambda v: v.quality, reverse=True)
        return candidates
