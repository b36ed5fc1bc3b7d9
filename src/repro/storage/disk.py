"""Disk-backed cold tier: one file per column/object, manifest-driven.

The cold tier mirrors the column-granular deduplication of
:class:`~repro.eg.storage.DedupArtifactStore` on disk: each distinct column
(keyed by its lineage id) is serialized exactly once as
``columns/<lineage_id>.npy``, and non-frame payloads (models, aggregates)
are pickled as ``objects/<hash(vertex_id)>.pkl``.  A ``manifest.json``
records every vertex's layout so a restarted server can reopen the tier in
place — no payload is deserialized until it is actually requested.

Sizes are tracked as *logical* column/payload bytes (the same accounting
the in-memory stores use), not file sizes, so budget math is identical
across tiers.

Reading a column is thread-safe: ``np.load`` parses the ``.npy`` header
with ``ast.literal_eval``, whose recursion bookkeeping CPython 3.11 keeps
per interpreter rather than per thread, so two concurrent parses can raise
``SystemError``.  The loads of this module take one lock (a column file is
a few KB; the parse, not the disk, is what they share).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from pathlib import Path
from typing import Any

import numpy as np

from ..dataframe import Column
from ..graph.artifacts import payload_size_bytes

__all__ = ["DiskColdTier"]

_MANIFEST_VERSION = 1

#: serializes ``np.load``'s header parse across threads (see the module doc)
_LOAD_LOCK = threading.Lock()


class DiskColdTier:
    """File-per-column/object storage area for demoted artifacts."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._columns_dir = self.directory / "columns"
        self._objects_dir = self.directory / "objects"
        self._columns_dir.mkdir(parents=True, exist_ok=True)
        self._objects_dir.mkdir(parents=True, exist_ok=True)
        #: lineage id -> logical bytes of the column stored on disk
        self._column_bytes: dict[str, int] = {}
        #: vertex id -> logical bytes of the pickled object
        self._object_bytes: dict[str, int] = {}
        #: running sum of both size records above
        self._bytes_stored = 0

    # ------------------------------------------------------------------
    # Columns (dataset payloads, deduplicated by lineage id)
    # ------------------------------------------------------------------
    def _column_path(self, column_id: str) -> Path:
        return self._columns_dir / f"{column_id}.npy"

    def has_column(self, column_id: str) -> bool:
        return column_id in self._column_bytes

    def write_column(self, column: Column) -> int:
        """Persist a column once; returns the bytes newly written (0 if present)."""
        if column.column_id in self._column_bytes:
            return 0
        path = self._column_path(column.column_id)
        # object-dtype columns (strings) need pickle inside the .npy container
        np.save(path, column.values, allow_pickle=True)
        size = self._column_bytes[column.column_id] = column.nbytes
        self._bytes_stored += size
        return size

    def read_column(self, column_id: str, name: str) -> Column:
        if column_id not in self._column_bytes:
            raise KeyError(f"column {column_id[:12]} is not in the cold tier")
        with _LOAD_LOCK:
            values = np.load(self._column_path(column_id), allow_pickle=True)
        return Column(name, values, column_id)

    def delete_column(self, column_id: str) -> int:
        released = self._column_bytes.pop(column_id, 0)
        if released:
            self._bytes_stored -= released
            self._column_path(column_id).unlink(missing_ok=True)
        return released

    # ------------------------------------------------------------------
    # Objects (models, aggregates — whole-payload pickles)
    # ------------------------------------------------------------------
    def _object_path(self, vertex_id: str) -> Path:
        # vertex ids are content hashes already, but hash again so any id is
        # a safe, bounded filename
        digest = hashlib.sha256(vertex_id.encode("utf-8")).hexdigest()[:40]
        return self._objects_dir / f"{digest}.pkl"

    def has_object(self, vertex_id: str) -> bool:
        return vertex_id in self._object_bytes

    def write_object(self, vertex_id: str, payload: Any, size: int | None = None) -> int:
        if vertex_id in self._object_bytes:
            return 0
        with self._object_path(vertex_id).open("wb") as handle:
            pickle.dump(payload, handle)
        size = size if size is not None else payload_size_bytes(payload)
        self._object_bytes[vertex_id] = size
        self._bytes_stored += size
        return size

    def read_object(self, vertex_id: str) -> Any:
        if vertex_id not in self._object_bytes:
            raise KeyError(f"vertex {vertex_id[:12]} is not in the cold tier")
        with self._object_path(vertex_id).open("rb") as handle:
            return pickle.load(handle)

    def delete_object(self, vertex_id: str) -> int:
        released = self._object_bytes.pop(vertex_id, 0)
        if released:
            self._bytes_stored -= released
            self._object_path(vertex_id).unlink(missing_ok=True)
        return released

    # ------------------------------------------------------------------
    # Aggregates and the manifest
    # ------------------------------------------------------------------
    @property
    def bytes_stored(self) -> int:
        """Logical bytes resident on disk (columns counted once)."""
        return self._bytes_stored

    @property
    def column_sizes(self) -> dict[str, int]:
        """Logical bytes of every column on disk, by lineage id (a copy)."""
        return dict(self._column_bytes)

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def write_manifest(self, document: dict[str, Any]) -> None:
        payload = dict(document)
        payload["manifest_version"] = _MANIFEST_VERSION
        payload["columns"] = {
            cid: {"nbytes": size} for cid, size in self._column_bytes.items()
        }
        payload["objects"] = {
            vid: {"nbytes": size} for vid, size in self._object_bytes.items()
        }
        self.manifest_path.write_text(json.dumps(payload))

    def read_manifest(self) -> dict[str, Any]:
        """Load the manifest and re-attach to the files it describes."""
        document = json.loads(self.manifest_path.read_text())
        if document.get("manifest_version") != _MANIFEST_VERSION:
            raise ValueError(
                f"unsupported cold-tier manifest version "
                f"{document.get('manifest_version')!r}"
            )
        self._column_bytes = {
            cid: int(entry["nbytes"]) for cid, entry in document["columns"].items()
        }
        self._object_bytes = {
            vid: int(entry["nbytes"]) for vid, entry in document["objects"].items()
        }
        self._bytes_stored = sum(self._column_bytes.values()) + sum(
            self._object_bytes.values()
        )
        return document
