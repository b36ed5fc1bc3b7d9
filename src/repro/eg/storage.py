"""Artifact content stores and the load-cost model.

The Experiment Graph always keeps artifact *meta-data*; the stores in this
module hold the (potentially large) *content* of the materialized subset.

:class:`SimpleArtifactStore` keeps whole payloads keyed by vertex id.
:class:`DedupArtifactStore` implements the paper's storage-aware scheme
(Section 5.3): dataset columns are stored once, keyed by their lineage id,
with reference counting — materializing both the input and output of an
operation that touches a single column costs only that column's bytes extra.

:class:`LoadCostModel` converts a stored size into the retrieval cost
``C_l(v)`` used by the materializer and reuse algorithms; presets model an
in-memory, on-disk, or remote Experiment Graph.  Stores additionally report
the :class:`StorageTier` an artifact resides in (the tiered store in
:mod:`repro.storage` keeps a hot RAM tier and a cold disk tier), and
``cost_for_tier`` lets tier-aware cost models price a cold hit at disk
bandwidth instead of RAM bandwidth.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any

from ..dataframe import Column, DataFrame
from ..graph.artifacts import payload_size_bytes

__all__ = [
    "StorageTier",
    "LoadCostModel",
    "ArtifactStore",
    "ArtifactDivergenceError",
    "SimpleArtifactStore",
    "DedupArtifactStore",
]


class StorageTier(enum.Enum):
    """Where an artifact's content physically lives."""

    HOT = "hot"  # process memory
    COLD = "cold"  # local disk


class ArtifactDivergenceError(ValueError):
    """A vertex id was re-put with a payload different from the stored one.

    Vertex ids are content-addressed (source + operation chain), so two
    different payloads under one id mean lineage hashing broke somewhere
    upstream; silently keeping the first copy would corrupt size accounting
    and serve stale artifacts, so stores raise instead.
    """


@dataclass(frozen=True)
class LoadCostModel:
    """Retrieval cost in seconds for an artifact of a given size.

    ``cost = latency + size / bandwidth``.  The presets approximate the
    paper's deployment options for where the Experiment Graph lives.
    """

    bandwidth_bytes_per_s: float
    latency_s: float

    def cost(self, size_bytes: int) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s

    def cost_for_tier(self, size_bytes: int, tier: StorageTier) -> float:
        """Retrieval cost for an artifact residing in the given tier.

        The base model is tier-oblivious (one bandwidth/latency pair for
        the whole store); :class:`repro.storage.TieredLoadCostModel`
        overrides this to charge cold-tier hits at disk speed.
        """
        del tier
        return self.cost(size_bytes)

    @classmethod
    def in_memory(cls) -> "LoadCostModel":
        """EG resides in the machine's memory (paper's experimental setup)."""
        return cls(bandwidth_bytes_per_s=4e9, latency_s=1e-5)

    @classmethod
    def on_disk(cls) -> "LoadCostModel":
        return cls(bandwidth_bytes_per_s=2e8, latency_s=5e-3)

    @classmethod
    def remote(cls) -> "LoadCostModel":
        return cls(bandwidth_bytes_per_s=1.25e7, latency_s=5e-2)


class ArtifactStore:
    """Interface for artifact content storage."""

    def put(self, vertex_id: str, payload: Any) -> int:
        """Store a payload; returns the *incremental* bytes consumed."""
        raise NotImplementedError

    def get(self, vertex_id: str) -> Any:
        raise NotImplementedError

    def remove(self, vertex_id: str) -> int:
        """Delete a payload; returns the bytes released."""
        raise NotImplementedError

    def __contains__(self, vertex_id: str) -> bool:
        raise NotImplementedError

    @property
    def total_bytes(self) -> int:
        raise NotImplementedError

    @property
    def vertex_ids(self) -> set[str]:
        raise NotImplementedError

    def tier_of(self, vertex_id: str) -> StorageTier:
        """The tier a stored artifact resides in; purely-RAM stores are HOT."""
        if vertex_id not in self:
            raise KeyError(f"vertex {vertex_id[:12]} is not materialized")
        return StorageTier.HOT

    def tiers(self) -> dict[str, StorageTier]:
        """Tier of every stored artifact in one call (bulk ``tier_of``).

        Hot loops (utility scoring) call this once per pass instead of
        ``tier_of`` per vertex; tiered stores override it to snapshot
        their tier table under a single lock acquisition.
        """
        return {vertex_id: StorageTier.HOT for vertex_id in self.vertex_ids}

    def statistics(self) -> dict[str, Any]:
        """Instrumentation snapshot (bytes per tier, hit counters, ...).

        The experiment runner records this after every workload; tiered
        stores extend it with hit/miss/promotion/demotion counters.
        """
        total = self.total_bytes
        return {
            "store_type": type(self).__name__,
            "total_bytes": total,
            "hot_bytes": total,
            "cold_bytes": 0,
            "vertices": len(self.vertex_ids),
        }


def frame_signature_of(payload: DataFrame) -> list[tuple[str, int]]:
    """The (column name, byte size) signature used for divergence checks.

    Lineage ids are deliberately *not* part of the signature: a second run
    of the same workload rebuilds its source frames with fresh lineage ids,
    so identical content legitimately arrives under new ids.
    """
    return [(name, payload.column(name).nbytes) for name in payload.columns]


def check_not_divergent(
    vertex_id: str,
    existing_signature: Any,
    payload: Any,
) -> None:
    """Raise :class:`ArtifactDivergenceError` if a re-put payload differs.

    ``existing_signature`` is either a frame signature (list of (name,
    nbytes) pairs) or an integer byte size for non-frame payloads.  Both
    are cheap conservative proxies for content: a divergent schema or size
    is definitely a divergent artifact, while byte-identical divergence
    (same names, same sizes, different values) is not caught — vertex ids
    hash the operation chain, so that case indicates a non-deterministic
    operation rather than a store misuse.
    """
    if isinstance(existing_signature, list):
        if not isinstance(payload, DataFrame):
            raise ArtifactDivergenceError(
                f"vertex {vertex_id[:12]} was stored as a dataframe but re-put "
                f"with a {type(payload).__name__} payload"
            )
        signature = frame_signature_of(payload)
        if signature != existing_signature:
            raise ArtifactDivergenceError(
                f"vertex {vertex_id[:12]} re-put with different columns: "
                f"stored {existing_signature}, got {signature}"
            )
        return
    if isinstance(payload, DataFrame):
        raise ArtifactDivergenceError(
            f"vertex {vertex_id[:12]} was stored as a "
            f"non-frame payload but re-put with a dataframe"
        )
    size = payload_size_bytes(payload)
    if size != existing_signature:
        raise ArtifactDivergenceError(
            f"vertex {vertex_id[:12]} re-put with a different payload: "
            f"stored {existing_signature} bytes, got {size}"
        )


class SimpleArtifactStore(ArtifactStore):
    """Whole-artifact storage without deduplication (used by HM and Helix).

    Thread-safe: concurrent tenants may issue concurrent loads, so the
    check-then-mutate sections are guarded by a reentrant lock.
    """

    def __init__(self):
        self._payloads: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self._lock = threading.RLock()

    def put(self, vertex_id: str, payload: Any) -> int:
        with self._lock:
            if vertex_id in self._payloads:
                existing = self._payloads[vertex_id]
                signature = (
                    frame_signature_of(existing)
                    if isinstance(existing, DataFrame)
                    else self._sizes[vertex_id]
                )
                check_not_divergent(vertex_id, signature, payload)
                return 0
            size = payload_size_bytes(payload)
            self._payloads[vertex_id] = payload
            self._sizes[vertex_id] = size
            return size

    def get(self, vertex_id: str) -> Any:
        try:
            return self._payloads[vertex_id]
        except KeyError:
            raise KeyError(f"vertex {vertex_id[:12]} is not materialized") from None

    def remove(self, vertex_id: str) -> int:
        with self._lock:
            if vertex_id not in self._payloads:
                return 0
            del self._payloads[vertex_id]
            return self._sizes.pop(vertex_id)

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self._payloads

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    @property
    def vertex_ids(self) -> set[str]:
        return set(self._payloads)



class DedupArtifactStore(ArtifactStore):
    """Column-deduplicating store (paper Section 5.3).

    DataFrame payloads are decomposed into columns keyed by lineage id and
    reference-counted; a column shared by several materialized artifacts is
    stored once.  Non-frame payloads (models, aggregates) fall back to
    whole-object storage.

    Thread-safe: every mutating or multi-structure read path holds one
    reentrant lock, so one tenant's executor can load artifacts while the
    updater of another session stores new ones without corrupting the
    layout or the column refcounts.
    """

    def __init__(self):
        #: column id -> (Column, refcount)
        self._columns: dict[str, tuple[Column, int]] = {}
        #: column id -> bytes, recorded at ``put``; the re-put signature
        #: and ``remove`` read it by id
        self._column_sizes: dict[str, int] = {}
        #: physical bytes held: distinct columns plus non-frame payloads
        self._total_bytes = 0
        #: vertex id -> list of (output name, column id) for frame payloads
        self._frame_layout: dict[str, list[tuple[str, str]]] = {}
        #: vertex id -> payload for non-frame payloads
        self._objects: dict[str, Any] = {}
        self._object_sizes: dict[str, int] = {}
        self._lock = threading.RLock()

    def put(self, vertex_id: str, payload: Any) -> int:
        with self._lock:
            if vertex_id in self:
                if vertex_id in self._frame_layout:
                    signature: Any = [
                        (name, self._column_sizes[column_id])
                        for name, column_id in self._frame_layout[vertex_id]
                    ]
                else:
                    signature = self._object_sizes[vertex_id]
                check_not_divergent(vertex_id, signature, payload)
                return 0
            if not isinstance(payload, DataFrame):
                size = payload_size_bytes(payload)
                self._objects[vertex_id] = payload
                self._object_sizes[vertex_id] = size
                self._total_bytes += size
                return size

            added = 0
            layout: list[tuple[str, str]] = []
            for name in payload.columns:
                column = payload.column(name)
                entry = self._columns.get(column.column_id)
                if entry is None:
                    self._columns[column.column_id] = (column, 1)
                    size = self._column_sizes[column.column_id] = column.nbytes
                    added += size
                else:
                    self._columns[column.column_id] = (entry[0], entry[1] + 1)
                layout.append((name, column.column_id))
            self._frame_layout[vertex_id] = layout
            self._total_bytes += added
            return added

    def get(self, vertex_id: str) -> Any:
        with self._lock:
            if vertex_id in self._objects:
                return self._objects[vertex_id]
            layout = self._frame_layout.get(vertex_id)
            if layout is None:
                raise KeyError(f"vertex {vertex_id[:12]} is not materialized")
            columns = []
            for name, column_id in layout:
                stored, _refs = self._columns[column_id]
                columns.append(stored.rename(name) if stored.name != name else stored)
            return DataFrame(columns)

    def remove(self, vertex_id: str) -> int:
        with self._lock:
            if vertex_id in self._objects:
                del self._objects[vertex_id]
                released = self._object_sizes.pop(vertex_id)
                self._total_bytes -= released
                return released
            layout = self._frame_layout.pop(vertex_id, None)
            if layout is None:
                return 0
            released = 0
            for _name, column_id in layout:
                column, refs = self._columns[column_id]
                if refs == 1:
                    del self._columns[column_id]
                    released += self._column_sizes.pop(column_id)
                else:
                    self._columns[column_id] = (column, refs - 1)
            self._total_bytes -= released
            return released

    def __contains__(self, vertex_id: str) -> bool:
        return vertex_id in self._frame_layout or vertex_id in self._objects

    @property
    def total_bytes(self) -> int:
        """Physical bytes used — duplicated columns counted once."""
        return self._total_bytes

    @property
    def vertex_ids(self) -> set[str]:
        with self._lock:
            return set(self._frame_layout) | set(self._objects)
