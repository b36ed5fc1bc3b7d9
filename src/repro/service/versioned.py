"""Versioned, snapshot-isolated view over one Experiment Graph.

The multi-tenant service serves two very different access patterns from
one EG: many concurrent *readers* (optimize/plan requests, plus the client
executions loading planned artifacts) and one serialized *writer* (the
merge worker applying batched workload unions).  This module gives each
side its own object:

* the **working graph** — the single mutable :class:`ExperimentGraph`,
  touched only by the merge path;
* **published snapshots** — immutable structural copies of the working
  graph, tagged with a monotonically increasing version.  Readers acquire
  the latest snapshot through a :class:`SnapshotLease`; the read path is
  one attribute load plus a pin-count bump, never a graph lock.

Snapshots copy the *structure* (vertices, edges, per-vertex bookkeeping)
but share the artifact *store* — payloads are content-addressed and
immutable once stored, so sharing is safe as long as eviction respects
readers.  That is the lease's second job: when a merge deselects an
artifact, the content removal is **deferred** until no lease from an
older version (whose snapshot may still claim the artifact materialized
and plan a load of it) remains outstanding.  Deferred removals are
processed on the merge path (never concurrently with readers' loads) and
are cancelled if a later batch re-materializes the artifact first.
"""

from __future__ import annotations

import threading

import networkx as nx

from ..eg.graph import ExperimentGraph
from ..obs.trace import get_tracer

__all__ = [
    "SnapshotLease",
    "VersionedExperimentGraph",
    "copy_experiment_graph",
    "cow_copy_experiment_graph",
]


def copy_experiment_graph(eg: ExperimentGraph) -> ExperimentGraph:
    """Structural copy of an EG: fresh vertex records, shared store.

    ``EGVertex`` records are replicated (so later working-graph mutations
    never leak into the copy) while ``ArtifactMeta`` instances are shared
    — the codebase treats them as immutable, rebinding instead of
    mutating (e.g. ``with_quality`` returns a new record).
    """
    copied = ExperimentGraph(eg.store)
    graph = nx.DiGraph()
    for vertex_id, attrs in eg.graph.nodes(data=True):
        graph.add_node(vertex_id, vertex=attrs["vertex"].clone())
    for src, dst, attrs in eg.graph.edges(data=True):
        graph.add_edge(src, dst, **dict(attrs))
    copied.graph = graph
    copied.source_ids = set(eg.source_ids)
    copied.workloads_observed = eg.workloads_observed
    return copied


def cow_copy_experiment_graph(
    working: ExperimentGraph,
    previous: ExperimentGraph,
    dirty_vertices: set[str],
) -> ExperimentGraph:
    """Copy-on-write snapshot: clone only dirty vertices, share the rest.

    ``previous`` must be the snapshot published immediately before this
    call and ``dirty_vertices`` must cover every vertex whose record *or
    adjacency* changed in the working graph since then (the updater's
    dirty set does).  Clean vertices share their node-attribute dict and
    adjacency dicts with ``previous`` — both immutable once published —
    so the copy is O(|V|) dict assignments plus O(dirty) record clones
    instead of O(|V| + |E|) structural rebuilding.

    Dirty vertices get a fresh :class:`EGVertex` clone and fresh *outer*
    adjacency dicts; the inner per-edge attribute dicts are shared with
    the working graph, which never mutates them (``union_workload`` only
    adds an edge when it is absent).  The networkx invariant that
    ``_succ[u][v]`` and ``_pred[v][u]`` alias one dict is relaxed across
    the dirty/clean boundary — the two dicts are equal in content, which
    is all the read-only algorithms the snapshot serves ever need.
    """
    copied = ExperimentGraph(working.store)
    graph = nx.DiGraph()
    # populate the DiGraph's internal tables directly: snapshots are
    # read-only, so structure sharing with the frozen predecessor is safe
    node, succ, pred = graph._node, graph._succ, graph._pred
    prev_node = previous.graph._node
    prev_succ, prev_pred = previous.graph._succ, previous.graph._pred
    w_succ, w_pred = working.graph._succ, working.graph._pred
    for vertex_id, attrs in working.graph._node.items():
        if vertex_id in dirty_vertices or vertex_id not in prev_node:
            node[vertex_id] = {"vertex": attrs["vertex"].clone()}
            succ[vertex_id] = dict(w_succ[vertex_id])
            pred[vertex_id] = dict(w_pred[vertex_id])
        else:
            node[vertex_id] = prev_node[vertex_id]
            succ[vertex_id] = prev_succ[vertex_id]
            pred[vertex_id] = prev_pred[vertex_id]
    copied.graph = graph
    copied.source_ids = set(working.source_ids)
    copied.workloads_observed = working.workloads_observed
    return copied


class SnapshotLease:
    """A pinned, immutable EG snapshot; release when done reading.

    Usable as a context manager.  ``eg`` must be treated as read-only;
    loads through ``eg.load`` are safe for the lease's lifetime — evicted
    content outlives every lease that could still reference it.
    """

    __slots__ = ("eg", "version", "_owner", "_released")

    def __init__(
        self, eg: ExperimentGraph, version: int, owner: "VersionedExperimentGraph"
    ):
        self.eg = eg
        self.version = version
        self._owner = owner
        self._released = False

    def release(self) -> None:
        """Drop the pin (idempotent)."""
        if not self._released:
            self._released = True
            self._owner._release(self)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()


class VersionedExperimentGraph:
    """Single-writer/many-reader version chain over one Experiment Graph."""

    def __init__(self, eg: ExperimentGraph | None = None):
        self._working = eg if eg is not None else ExperimentGraph()
        self._lock = threading.Lock()
        self._version = 0
        self._published = copy_experiment_graph(self._working)
        #: version -> number of outstanding leases
        self._pins: dict[int, int] = {}
        #: vertex id -> first version whose readers no longer need it: the
        #: content may be removed once every pin is >= that version
        self._deferred: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Writer side (merge path only)
    # ------------------------------------------------------------------
    @property
    def working(self) -> ExperimentGraph:
        """The mutable EG; only the (serialized) merge path may touch it."""
        return self._working

    @property
    def version(self) -> int:
        return self._version

    def publish(self, dirty_vertices: set[str] | None = None) -> int:
        """Copy the working graph and atomically make it the latest snapshot.

        With ``dirty_vertices`` (the updater's accumulated dirty set), the
        snapshot is built copy-on-write against the previously published
        one: only dirty vertices are cloned, everything else is structure-
        shared, making publish cost proportional to the batch.  Without
        it, the historical full structural copy runs — callers that
        mutate the working graph outside the updater (or cannot prove a
        complete dirty set) must use that path.

        Reading ``self._published`` outside the lock is safe here: publish
        runs only on the single serialized merge path, which is the sole
        writer of that attribute.
        """
        with get_tracer().span(
            "service.publish", vertices=self._working.graph.number_of_nodes()
        ) as span:
            if dirty_vertices is None:
                snapshot = copy_experiment_graph(self._working)
                span.set_attribute("mode", "full")
            else:
                snapshot = cow_copy_experiment_graph(
                    self._working, self._published, dirty_vertices
                )
                span.set_attribute("mode", "cow")
                span.set_attribute("dirty_vertices", len(dirty_vertices))
            with self._lock:
                self._version += 1
                self._published = snapshot
                span.set_attribute("version", self._version)
                return self._version

    def defer_unmaterialize(self, vertex_id: str) -> int:
        """Eviction hook for the batch updater.

        Always records the removal for :meth:`flush_deferred` — even with
        no lease pinned right now, the *currently published* snapshot
        still marks the artifact materialized, so a reader acquiring any
        time before the next :meth:`publish` would plan a load of it.
        The flush re-checks the pin floor under the lock after the
        publish, so it cannot remove content a live lease can reach.
        Returns 0: no bytes are ever released at defer time.
        """
        with self._lock:
            self._deferred[vertex_id] = self._version + 1
        return 0

    def flush_deferred(self) -> int:
        """Process deferred removals that no outstanding lease can read.

        Called on the merge path (after publish) and at service shutdown,
        so it never races a reader's in-flight load.  Returns bytes
        released.  An artifact re-materialized since its deferral is
        dropped from the queue untouched.
        """
        with self._lock:
            min_pin = min(self._pins) if self._pins else None
            ready: list[str] = []
            for vertex_id in sorted(self._deferred):
                if (
                    vertex_id in self._working
                    and self._working.vertex(vertex_id).materialized
                ):
                    del self._deferred[vertex_id]
                    continue
                if min_pin is None or min_pin >= self._deferred[vertex_id]:
                    ready.append(vertex_id)
            for vertex_id in ready:
                del self._deferred[vertex_id]
        released = 0
        if ready:
            with get_tracer().span(
                "service.flush_deferred", removals=len(ready)
            ) as span:
                for vertex_id in ready:
                    released += self._working.store.remove(vertex_id)
                span.set_attribute("released_bytes", released)
        return released

    @property
    def deferred_evictions(self) -> int:
        with self._lock:
            return len(self._deferred)

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def acquire(self) -> SnapshotLease:
        """Pin and return the latest published snapshot."""
        with self._lock:
            lease = SnapshotLease(self._published, self._version, self)
            self._pins[self._version] = self._pins.get(self._version, 0) + 1
            return lease

    def _release(self, lease: SnapshotLease) -> None:
        with self._lock:
            remaining = self._pins.get(lease.version, 0) - 1
            if remaining > 0:
                self._pins[lease.version] = remaining
            else:
                self._pins.pop(lease.version, None)

    @property
    def pinned_leases(self) -> int:
        with self._lock:
            return sum(self._pins.values())
