"""Budget-bounded hot tier over a disk cold tier, with LRU movement.

:class:`TieredArtifactStore` implements the full
:class:`~repro.eg.storage.ArtifactStore` contract while bounding how much
artifact content may live in RAM.  Payloads enter the hot tier; when hot
bytes exceed ``hot_budget_bytes`` the least-recently-used vertices are
*demoted* — their columns/objects are written to the
:class:`~repro.storage.disk.DiskColdTier` and dropped from RAM.  A ``get``
of a cold vertex reads it back from disk and *promotes* it (the read is a
"cold hit", counted and timed in :class:`~repro.storage.tiers.TierStats`);
a ``put`` of a held cold vertex promotes it from the payload in hand
instead (a *re-warm*, no disk read).

Deduplication is column-granular across both tiers, exactly as in
:class:`~repro.eg.storage.DedupArtifactStore`: a column shared by several
materialized artifacts occupies one slot in RAM while hot and one record
in the cold tier's log once demoted, and ``put``/``total_bytes`` report
the same byte accounting as the in-memory dedup store — tier placement
never changes *what* is materialized, only *where* it lives and what a
retrieval costs.

Invariants:

* a COLD vertex always has every column/object it needs on disk (demotion
  writes all of a vertex's columns, shared ones included);
* ``_hot_column_refs[cid]`` counts the HOT vertices referencing a column;
  a column is resident in RAM iff that count is positive;
* ``hot_bytes <= hot_budget_bytes`` after every mutating call (a payload
  larger than the whole budget is demoted immediately and every access to
  it is a cold hit — the honest outcome for an artifact that cannot fit).

Thread-safety (docs/EXECUTION.md): all tier bookkeeping — LRU order,
hot-byte accounting, promotion/demotion, and :class:`TierStats` counters —
is guarded by one reentrant lock, so concurrent tenants and the transport's
work pool can hammer the store from many threads.  Cold-tier *disk reads* happen outside the lock:
``get`` of a cold vertex registers an in-flight marker, stages the read
without blocking other threads, and commits the promotion under the lock.
Concurrent ``get`` calls for the same cold vertex deduplicate — the second
caller waits for the in-flight promotion and is then served from RAM, so
one reused artifact triggers exactly one disk read however many consumers
it has.  Removing a vertex concurrently with a ``get`` of that same vertex
remains a caller error, exactly as for a plain dict-backed store.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any

from ..dataframe import Column, DataFrame
from ..eg.storage import (
    ArtifactStore,
    StorageTier,
    check_not_divergent,
)
from ..graph.artifacts import payload_size_bytes
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .disk import DiskColdTier
from .tiers import TierStats

__all__ = ["TieredArtifactStore"]

_UNSET = object()


class TieredArtifactStore(ArtifactStore):
    """Column-deduplicating store split across a RAM and a disk tier."""

    def __init__(
        self,
        hot_budget_bytes: float | None = None,
        directory: str | Path | None = None,
    ):
        if hot_budget_bytes is not None and hot_budget_bytes < 0:
            raise ValueError("hot budget must be non-negative")
        self.hot_budget_bytes = hot_budget_bytes
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-cold-")
            # the temp cold tier dies with the store; explicit directories
            # are the owner's responsibility (they may outlive the process)
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, directory, ignore_errors=True
            )
        self._cold = DiskColdTier(directory)
        self.stats = TierStats()

        #: vertex id -> [(output column name, lineage id)] for frame payloads
        self._layouts: dict[str, list[tuple[str, str]]] = {}
        #: vertex id -> logical bytes for non-frame payloads
        self._object_sizes: dict[str, int] = {}
        #: lineage id -> logical bytes / number of referencing vertices
        self._column_sizes: dict[str, int] = {}
        self._column_refs: dict[str, int] = {}
        #: running sums over the three records above, kept at put / remove
        #: / ``open``: distinct content, and content counted per referent
        self._total_bytes = 0
        self._logical_bytes = 0
        #: RAM residents
        self._hot_columns: dict[str, Column] = {}
        self._hot_column_refs: dict[str, int] = {}
        self._hot_objects: dict[str, Any] = {}
        self._hot_bytes = 0
        #: vertex id -> current tier, and how many of them are COLD (kept
        #: at demote / promote / remove / ``open`` for ``statistics()``)
        self._tier: dict[str, StorageTier] = {}
        self._cold_vertices = 0
        #: hot vertices, oldest access first
        self._lru: OrderedDict[str, None] = OrderedDict()
        #: guards every tier-bookkeeping structure above
        self._lock = threading.RLock()
        #: vertex id -> event set when its in-flight promotion commits
        self._inflight: dict[str, threading.Event] = {}

        # process-wide tier-movement counters (shared across store
        # instances; TierStats keeps the per-store numbers)
        registry = get_registry()
        self._demotion_counter = registry.counter(
            "repro_store_demotions_total", "vertex demotions to the cold tier"
        )
        self._promotion_counter = registry.counter(
            "repro_store_promotions_total", "cold-read promotions to the hot tier"
        )
        self._cold_hit_counter = registry.counter(
            "repro_store_cold_hits_total", "gets served by a disk read"
        )

    # ------------------------------------------------------------------
    # ArtifactStore contract
    # ------------------------------------------------------------------
    def put(self, vertex_id: str, payload: Any) -> int:
        with self._lock:
            if vertex_id in self._tier:
                if vertex_id in self._layouts:
                    signature: Any = [
                        (name, self._column_sizes[column_id])
                        for name, column_id in self._layouts[vertex_id]
                    ]
                else:
                    signature = self._object_sizes[vertex_id]
                check_not_divergent(vertex_id, signature, payload)
                if (
                    self._tier[vertex_id] is StorageTier.COLD
                    and vertex_id not in self._inflight
                ):
                    self._rewarm(vertex_id, payload)
                return 0

            if not isinstance(payload, DataFrame):
                size = payload_size_bytes(payload)
                self._object_sizes[vertex_id] = size
                self._hot_objects[vertex_id] = payload
                self._hot_bytes += size
                self._logical_bytes += size
                added = size
            else:
                added = 0
                layout: list[tuple[str, str]] = []
                for name in payload.columns:
                    column = payload.column(name)
                    cid = column.column_id
                    refs = self._column_refs.get(cid, 0)
                    self._column_refs[cid] = refs + 1
                    if refs == 0:
                        size = self._column_sizes[cid] = column.nbytes
                        added += size
                    self._logical_bytes += self._column_sizes[cid]
                    hot_refs = self._hot_column_refs.get(cid, 0)
                    self._hot_column_refs[cid] = hot_refs + 1
                    if hot_refs == 0:
                        self._hot_columns[cid] = column
                        self._hot_bytes += self._column_sizes[cid]
                    layout.append((name, cid))
                self._layouts[vertex_id] = layout

            self._total_bytes += added
            self._tier[vertex_id] = StorageTier.HOT
            self._lru[vertex_id] = None
            self._enforce_hot_budget()
            return added

    def get(self, vertex_id: str) -> Any:
        while True:
            with self._lock:
                tier = self._tier.get(vertex_id)
                if tier is None:
                    raise KeyError(f"vertex {vertex_id[:12]} is not materialized")
                if tier is StorageTier.HOT:
                    self.stats.hot_hits += 1
                    self._lru.move_to_end(vertex_id)
                    return self._reconstruct_hot(vertex_id)
                waiter = self._inflight.get(vertex_id)
                if waiter is None:
                    # this thread promotes; others arriving meanwhile wait
                    event = threading.Event()
                    self._inflight[vertex_id] = event
                    break
            # another thread is reading the same vertex from disk — wait
            # for its commit, then retry (the vertex is hot afterwards),
            # so one reused artifact costs exactly one disk read
            waiter.wait()
        try:
            with get_tracer().span(
                "store.cold_load", vertex=vertex_id[:12]
            ) as span:
                started = time.perf_counter()
                staged = self._stage_cold_read(vertex_id)
                with self._lock:
                    self.stats.cold_hits += 1
                    self._cold_hit_counter.inc()
                    self._promote(vertex_id, staged)
                    payload = self._reconstruct_hot(vertex_id)
                    read_seconds = time.perf_counter() - started
                    self.stats.load_seconds += read_seconds
                    span.set_attribute("read_seconds", read_seconds)
                    self._enforce_hot_budget()
                    return payload
        finally:
            with self._lock:
                self._inflight.pop(vertex_id, None)
            event.set()

    def remove(self, vertex_id: str) -> int:
        with self._lock:
            tier = self._tier.pop(vertex_id, None)
            if tier is None:
                return 0
            if tier is StorageTier.COLD:
                self._cold_vertices -= 1
            self._lru.pop(vertex_id, None)

            if vertex_id in self._object_sizes:
                size = self._object_sizes.pop(vertex_id)
                if self._hot_objects.pop(vertex_id, None) is not None:
                    self._hot_bytes -= size
                self._cold.delete_object(vertex_id)
                self._total_bytes -= size
                self._logical_bytes -= size
                return size

            released = 0
            for _name, cid in self._layouts.pop(vertex_id):
                if tier is StorageTier.HOT:
                    self._hot_column_refs[cid] -= 1
                    if self._hot_column_refs[cid] == 0:
                        if self._column_refs[cid] > 1 and not self._cold.has_column(cid):
                            # remaining referents are cold; keep the bytes durable
                            self._cold.write_column(self._hot_columns[cid])
                        del self._hot_column_refs[cid]
                        del self._hot_columns[cid]
                        self._hot_bytes -= self._column_sizes[cid]
                self._logical_bytes -= self._column_sizes[cid]
                self._column_refs[cid] -= 1
                if self._column_refs[cid] == 0:
                    released += self._column_sizes.pop(cid)
                    del self._column_refs[cid]
                    self._cold.delete_column(cid)
            self._total_bytes -= released
            return released

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self._tier

    @property
    def total_bytes(self) -> int:
        """Physical bytes of distinct content — identical accounting to
        :class:`DedupArtifactStore`, independent of tier placement."""
        return self._total_bytes

    @property
    def logical_bytes(self) -> int:
        """Bytes the stored artifacts would occupy without deduplication."""
        return self._logical_bytes

    @property
    def vertex_ids(self) -> set[str]:
        return set(self._tier)

    # ------------------------------------------------------------------
    # Tier reporting and instrumentation
    # ------------------------------------------------------------------
    def tier_of(self, vertex_id: str) -> StorageTier:
        tier = self._tier.get(vertex_id)
        if tier is None:
            raise KeyError(f"vertex {vertex_id[:12]} is not materialized")
        return tier

    def tiers(self) -> dict[str, StorageTier]:
        with self._lock:
            return dict(self._tier)

    @property
    def hot_bytes(self) -> int:
        """Logical bytes currently resident in RAM."""
        return self._hot_bytes

    @property
    def cold_bytes(self) -> int:
        """Logical bytes currently resident on disk (write-through copies
        of hot columns included, so hot + cold may exceed ``total_bytes``)."""
        return self._cold.bytes_stored

    @property
    def directory(self) -> Path:
        """Root of the cold tier's on-disk layout."""
        return self._cold.directory

    def statistics(self) -> dict[str, Any]:
        """Bytes, vertices per tier and tier counters — running values,
        O(1) in the number of stored vertices and columns."""
        with self._lock:
            vertices = len(self._tier)
            return {
                "store_type": type(self).__name__,
                "total_bytes": self.total_bytes,
                "logical_bytes": self.logical_bytes,
                "hot_bytes": self.hot_bytes,
                "cold_bytes": self.cold_bytes,
                "hot_budget_bytes": self.hot_budget_bytes,
                "vertices": vertices,
                "hot_vertices": vertices - self._cold_vertices,
                "cold_vertices": self._cold_vertices,
                "hot_hits": self.stats.hot_hits,
                "cold_hits": self.stats.cold_hits,
                "promotions": self.stats.promotions,
                "rewarms": self.stats.rewarms,
                "demotions": self.stats.demotions,
                "bytes_demoted": self.stats.bytes_demoted,
                "load_seconds": self.stats.load_seconds,
                "hit_ratio": self.stats.hit_ratio,
            }

    # ------------------------------------------------------------------
    # Tier movement
    # ------------------------------------------------------------------
    def demote(self, vertex_id: str) -> None:
        """Move a hot vertex's content to disk, freeing RAM."""
        with self._lock, get_tracer().span(
            "store.demote", vertex=vertex_id[:12]
        ) as span:
            if self._tier.get(vertex_id) is not StorageTier.HOT:
                raise KeyError(f"vertex {vertex_id[:12]} is not in the hot tier")
            self.stats.demotions += 1
            self._demotion_counter.inc()
            self._tier[vertex_id] = StorageTier.COLD
            self._cold_vertices += 1
            self._lru.pop(vertex_id)

            if vertex_id in self._hot_objects:
                payload = self._hot_objects.pop(vertex_id)
                size = self._object_sizes[vertex_id]
                written = self._cold.write_object(vertex_id, payload, size)
                self.stats.bytes_demoted += written
                span.set_attribute("bytes_demoted", written)
                self._hot_bytes -= size
                return

            written = 0
            for _name, cid in self._layouts[vertex_id]:
                # every column of a demoted vertex must be durable, shared ones
                # included — a hot co-referent may be removed later without
                # another chance to write
                written += self._cold.write_column(self._hot_columns[cid])
                self._hot_column_refs[cid] -= 1
                if self._hot_column_refs[cid] == 0:
                    del self._hot_column_refs[cid]
                    del self._hot_columns[cid]
                    self._hot_bytes -= self._column_sizes[cid]
            self.stats.bytes_demoted += written
            span.set_attribute("bytes_demoted", written)

    def _stage_cold_read(self, vertex_id: str) -> Any:
        """Read a cold vertex's content from disk *without* holding the lock.

        Returns the raw object for object payloads, or a ``cid -> Column``
        mapping for frame payloads.  Columns that already look hot are
        skipped; ``_promote`` re-checks under the lock and re-reads the
        rare column that was demoted in between (cold columns are always
        durable, so the read cannot miss).
        """
        if vertex_id in self._object_sizes:
            return self._cold.read_object(vertex_id)
        staged: dict[str, Column] = {}
        for name, cid in self._layouts[vertex_id]:
            if cid not in staged and self._hot_column_refs.get(cid, 0) == 0:
                staged[cid] = self._cold.read_column(cid, name)
        return staged

    def _promote(self, vertex_id: str, staged: Any) -> None:
        """Make a cold vertex hot from content at hand (lock held).

        ``staged`` is the object for an object payload, or a ``cid ->
        Column`` mapping for a frame; a column missing from it that is not
        hot either was hot while staging and demoted before the commit, and
        is read again (cold columns are always durable).
        """
        self.stats.promotions += 1
        self._promotion_counter.inc()
        self._tier[vertex_id] = StorageTier.HOT
        self._cold_vertices -= 1
        self._lru[vertex_id] = None

        if vertex_id in self._object_sizes:
            self._hot_objects[vertex_id] = staged
            self._hot_bytes += self._object_sizes[vertex_id]
            return

        for name, cid in self._layouts[vertex_id]:
            hot_refs = self._hot_column_refs.get(cid, 0)
            if hot_refs == 0:
                column = staged.get(cid)
                if column is None:
                    column = self._cold.read_column(cid, name)
                self._hot_columns[cid] = column
                self._hot_bytes += self._column_sizes[cid]
            self._hot_column_refs[cid] = hot_refs + 1

    def _rewarm(self, vertex_id: str, payload: Any) -> None:
        """Promote a cold vertex from a re-put payload (lock held).

        The payload passed :func:`check_not_divergent`, so it is the
        stored content: no disk read.  A frame's columns are matched by
        name onto the stored layout's lineage ids, which may differ from
        the payload's own (a rerun rebuilds its sources under fresh ids).
        """
        staged = payload
        if vertex_id in self._layouts:
            staged = {
                cid: payload.column(name).with_id(cid)
                for name, cid in self._layouts[vertex_id]
                if self._hot_column_refs.get(cid, 0) == 0
            }
        self.stats.rewarms += 1
        self._promote(vertex_id, staged)
        self._enforce_hot_budget()

    def _enforce_hot_budget(self) -> None:
        if self.hot_budget_bytes is None:
            return
        while self._hot_bytes > self.hot_budget_bytes and self._lru:
            self.demote(next(iter(self._lru)))

    def _reconstruct_hot(self, vertex_id: str) -> Any:
        if vertex_id in self._hot_objects:
            return self._hot_objects[vertex_id]
        columns = []
        for name, cid in self._layouts[vertex_id]:
            stored = self._hot_columns[cid]
            columns.append(stored.rename(name) if stored.name != name else stored)
        return DataFrame(columns)

    # ------------------------------------------------------------------
    # Persistence: flush and reopen in place
    # ------------------------------------------------------------------
    def flush(self, directory: str | Path | None = None) -> Path:
        """Make every artifact durable and write the manifest.

        Hot content stays hot (flushing is write-through, not demotion).
        With no ``directory`` — or the cold tier's own directory — the
        store flushes in place; otherwise a full copy is written to the
        given directory, leaving this store untouched.
        """
        with self._lock:
            # one tier per directory: a second tier's manifest would drop
            # this tier's log, so any spelling of its own directory is in place
            if directory is None or (
                Path(directory).resolve() == self._cold.directory.resolve()
            ):
                target = self._cold
            else:
                target = DiskColdTier(directory)
            for cid in self._column_sizes:
                if target.has_column(cid):
                    continue
                column = self._hot_columns.get(cid)
                if column is None:
                    column = self._cold.read_column(cid, cid)
                target.write_column(column)
            for vertex_id, size in self._object_sizes.items():
                if target.has_object(vertex_id):
                    continue
                if vertex_id in self._hot_objects:
                    payload = self._hot_objects[vertex_id]
                else:
                    payload = self._cold.read_object(vertex_id)
                target.write_object(vertex_id, payload, size)
            target.write_manifest(self._manifest_document())
            return target.directory

    def _manifest_document(self) -> dict[str, Any]:
        vertices: dict[str, Any] = {}
        for vertex_id, layout in self._layouts.items():
            vertices[vertex_id] = {
                "kind": "frame",
                "layout": [[name, cid] for name, cid in layout],
            }
        for vertex_id, size in self._object_sizes.items():
            vertices[vertex_id] = {"kind": "object", "nbytes": size}
        return {
            "vertices": vertices,
            "hot_budget_bytes": self.hot_budget_bytes,
        }

    @classmethod
    def open(
        cls,
        directory: str | Path,
        hot_budget_bytes: float | None = _UNSET,  # type: ignore[assignment]
    ) -> "TieredArtifactStore":
        """Reattach to a flushed store's directory without reading payloads.

        Every vertex starts COLD; content is pulled into the hot tier
        lazily, on first access.  The hot budget defaults to the value
        recorded at flush time.
        """
        store = cls(hot_budget_bytes=None, directory=directory)
        document = store._cold.read_manifest()
        if hot_budget_bytes is _UNSET:
            hot_budget_bytes = document.get("hot_budget_bytes")
        store.hot_budget_bytes = hot_budget_bytes

        store._column_sizes = dict(store._cold.column_sizes)
        store._total_bytes = sum(store._column_sizes.values())
        for vertex_id, entry in document["vertices"].items():
            if entry["kind"] == "frame":
                layout = [(name, cid) for name, cid in entry["layout"]]
                store._layouts[vertex_id] = layout
                for _name, cid in layout:
                    store._column_refs[cid] = store._column_refs.get(cid, 0) + 1
                    store._logical_bytes += store._column_sizes[cid]
            else:
                size = store._object_sizes[vertex_id] = int(entry["nbytes"])
                store._total_bytes += size
                store._logical_bytes += size
            store._tier[vertex_id] = StorageTier.COLD
        store._cold_vertices = len(store._tier)
        return store
