"""Disk-backed cold tier: one append-only log per tier, manifest-driven.

The cold tier mirrors the column-granular deduplication of
:class:`~repro.eg.storage.DedupArtifactStore` on disk: each distinct column
(keyed by its lineage id) is appended exactly once to the tier's log, and
non-frame payloads (models, aggregates) are appended as pickles::

    <directory>/
        cold-<unique>.log   records back to back: a column's raw contiguous
                            bytes, or a pickle (object-dtype columns, objects)
        manifest.json       version 2: the log's name, every record's
                            location, and the caller's document

An index in memory maps each lineage id / vertex id to its record's
``(offset, length, dtype, shape)``.  A write is one append to the open log;
a read is one positional read (``os.preadv``) into a fresh array the
caller owns, with no file opened and no header parsed.  ``manifest.json``
records every location, so a restarted server can reopen the tier in place
— no payload is deserialized until it is actually requested.

Sizes are tracked as *logical* column/payload bytes (the same accounting
the in-memory stores use), not record lengths, so budget math is identical
across tiers.

Deleting a record drops its index entry; its bytes are dead.  When the dead
bytes exceed both the live bytes and ``_COMPACT_FLOOR_BYTES``, the live
records are copied into a new log, which replaces the old one — so a log
is never larger than twice its live bytes plus the floor.

Concurrency: writes, deletes and compactions come one at a time (the tiered
store calls them under its lock); reads may run alongside them.  A record
holds the log it lives in, and a log's descriptor is closed only when the
last record or reader holding it lets go, so a read that looked up its
record before a compaction still reads its bytes from the old, unlinked log.

A manifest stays readable until the next one replaces it: a log is only
ever appended to, and a compaction keeps the log that the manifest on disk
names.  ``write_manifest`` replaces the manifest atomically (a temporary
file, then ``os.replace``) and then removes every other log in the
directory, so one tier writes a directory at a time.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import weakref
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from ..dataframe import Column
from ..graph.artifacts import payload_size_bytes

__all__ = ["DiskColdTier"]

_MANIFEST_VERSION = 2

#: dead log bytes below which a log is never compacted
_COMPACT_FLOOR_BYTES = 1 << 20

_LOG_PREFIX = "cold-"
_LOG_SUFFIX = ".log"


class _Log:
    """One append-only log file; its descriptor closes with the last reference."""

    def __init__(self, path: Path, fd: int):
        self.path = path
        self.fd = fd
        #: offset of the next append (the file's size when attached)
        self.end = os.fstat(fd).st_size
        weakref.finalize(self, os.close, fd)

    @classmethod
    def create(cls, directory: Path) -> "_Log":
        fd, name = tempfile.mkstemp(
            prefix=_LOG_PREFIX, suffix=_LOG_SUFFIX, dir=directory
        )
        return cls(Path(name), fd)

    @classmethod
    def attach(cls, path: Path) -> "_Log":
        return cls(path, os.open(path, os.O_RDWR))

    def append(self, data: Any) -> int:
        """Write ``data`` (bytes-like) at the end; returns its offset."""
        view = memoryview(data)
        offset = self.end
        done = 0
        while done < len(view):
            done += os.pwrite(self.fd, view[done:], offset + done)
        self.end += len(view)
        return offset

    def read_into(self, buffer: Any, offset: int) -> None:
        """Fill ``buffer`` (writable, bytes-like) with one positional read."""
        if os.preadv(self.fd, [buffer], offset) != len(buffer):
            raise OSError(f"cold-tier log {self.path.name} is truncated at {offset}")

    def read(self, offset: int, length: int) -> bytearray:
        data = bytearray(length)
        self.read_into(data, offset)
        return data


class _Record(NamedTuple):
    log: _Log
    offset: int
    #: bytes the record occupies in the log
    length: int
    #: logical bytes, as the stores account them
    nbytes: int
    #: raw column bytes of this dtype and shape; ``None`` for a pickle
    dtype: np.dtype | None = None
    shape: tuple[int, ...] = ()


def _is_raw(dtype: np.dtype) -> bool:
    """Whether a column of this dtype round-trips as its raw bytes."""
    return not dtype.hasobject and dtype.fields is None and dtype.itemsize > 0


class DiskColdTier:
    """Append-only log storage area for demoted artifacts."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: the log appends go to, created on the first write
        self._log: _Log | None = None
        #: lineage id -> record of the column
        self._columns: dict[str, _Record] = {}
        #: vertex id -> record of the pickled object
        self._objects: dict[str, _Record] = {}
        #: running sums over both indexes: logical bytes, and log bytes
        self._bytes_stored = 0
        self._live_length = 0
        #: name of the log the manifest on disk refers to
        self._manifest_log: str | None = None

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _append(
        self,
        data: Any,
        nbytes: int,
        dtype: np.dtype | None = None,
        shape: tuple[int, ...] = (),
    ) -> _Record:
        if self._log is None:
            self._log = _Log.create(self.directory)
        view = memoryview(data)
        offset = self._log.append(view)
        self._bytes_stored += nbytes
        self._live_length += len(view)
        return _Record(self._log, offset, len(view), nbytes, dtype, shape)

    def _drop(self, index: dict[str, _Record], key: str) -> int:
        record = index.pop(key, None)
        if record is None:
            return 0
        self._bytes_stored -= record.nbytes
        self._live_length -= record.length
        dead = self._log.end - self._live_length
        if dead > self._live_length and dead > _COMPACT_FLOOR_BYTES:
            self._compact()
        return record.nbytes

    def _compact(self) -> None:
        """Copy the live records into a new log, which replaces the old one.

        The old log is unlinked unless the manifest on disk names it; its
        descriptor stays open while a reader still holds one of its records.
        """
        old = self._log
        if old is None:
            return
        new = _Log.create(self.directory)

        def moved(index: dict[str, _Record]) -> dict[str, _Record]:
            return {
                key: record._replace(
                    log=new,
                    offset=new.append(old.read(record.offset, record.length)),
                )
                for key, record in index.items()
            }

        self._columns = moved(self._columns)
        self._objects = moved(self._objects)
        self._log = new
        if old.path.name != self._manifest_log:
            old.path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Columns (dataset payloads, deduplicated by lineage id)
    # ------------------------------------------------------------------
    def has_column(self, column_id: str) -> bool:
        return column_id in self._columns

    def write_column(self, column: Column) -> int:
        """Persist a column once; returns the bytes newly written (0 if present)."""
        if column.column_id in self._columns:
            return 0
        values = column.values
        if _is_raw(values.dtype):
            contiguous = np.ascontiguousarray(values).reshape(-1)
            record = self._append(
                contiguous.view(np.uint8), column.nbytes, values.dtype, values.shape
            )
        else:
            record = self._append(
                pickle.dumps(values, pickle.HIGHEST_PROTOCOL), column.nbytes
            )
        self._columns[column.column_id] = record
        return record.nbytes

    def read_column(self, column_id: str, name: str) -> Column:
        record = self._columns.get(column_id)
        if record is None:
            raise KeyError(f"column {column_id[:12]} is not in the cold tier")
        if record.dtype is None:
            values = pickle.loads(record.log.read(record.offset, record.length))
        else:
            # the caller owns the fresh array, as it owned ``np.load``'s
            values = np.empty(record.shape, record.dtype)
            record.log.read_into(values.reshape(-1).view(np.uint8), record.offset)
        return Column(name, values, column_id)

    def delete_column(self, column_id: str) -> int:
        return self._drop(self._columns, column_id)

    # ------------------------------------------------------------------
    # Objects (models, aggregates — whole-payload pickles)
    # ------------------------------------------------------------------
    def has_object(self, vertex_id: str) -> bool:
        return vertex_id in self._objects

    def write_object(self, vertex_id: str, payload: Any, size: int | None = None) -> int:
        if vertex_id in self._objects:
            return 0
        size = size if size is not None else payload_size_bytes(payload)
        record = self._append(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL), size)
        self._objects[vertex_id] = record
        return size

    def read_object(self, vertex_id: str) -> Any:
        record = self._objects.get(vertex_id)
        if record is None:
            raise KeyError(f"vertex {vertex_id[:12]} is not in the cold tier")
        return pickle.loads(record.log.read(record.offset, record.length))

    def delete_object(self, vertex_id: str) -> int:
        return self._drop(self._objects, vertex_id)

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
        return {cid: record.nbytes for cid, record in self._columns.items()}

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def write_manifest(self, document: dict[str, Any]) -> None:
        """Record every location beside ``document``, replacing the manifest
        atomically, then remove the directory's other logs."""
        payload = dict(document)
        payload["manifest_version"] = _MANIFEST_VERSION
        payload["log"] = None if self._log is None else self._log.path.name
        payload["columns"] = {
            cid: {
                "nbytes": record.nbytes,
                "offset": record.offset,
                "length": record.length,
                "dtype": None if record.dtype is None else record.dtype.str,
                "shape": list(record.shape),
            }
            for cid, record in self._columns.items()
        }
        payload["objects"] = {
            vid: {
                "nbytes": record.nbytes,
                "offset": record.offset,
                "length": record.length,
            }
            for vid, record in self._objects.items()
        }
        temporary = self.manifest_path.with_name(self.manifest_path.name + ".tmp")
        temporary.write_text(json.dumps(payload))
        os.replace(temporary, self.manifest_path)
        self._manifest_log = payload["log"]
        for path in self.directory.glob(f"{_LOG_PREFIX}*{_LOG_SUFFIX}"):
            if path.name != self._manifest_log:
                path.unlink(missing_ok=True)

    def read_manifest(self) -> dict[str, Any]:
        """Load the manifest and re-attach to the log it describes."""
        document = json.loads(self.manifest_path.read_text())
        if document.get("manifest_version") != _MANIFEST_VERSION:
            raise ValueError(
                f"unsupported cold-tier manifest version "
                f"{document.get('manifest_version')!r}"
            )
        name = document["log"]
        log = None if name is None else _Log.attach(self.directory / name)
        self._columns = {
            cid: _Record(
                log,
                int(entry["offset"]),
                int(entry["length"]),
                int(entry["nbytes"]),
                None if entry["dtype"] is None else np.dtype(entry["dtype"]),
                tuple(entry["shape"]),
            )
            for cid, entry in document["columns"].items()
        }
        self._objects = {
            vid: _Record(
                log, int(entry["offset"]), int(entry["length"]), int(entry["nbytes"])
            )
            for vid, entry in document["objects"].items()
        }
        self._log = log
        self._manifest_log = name
        records = [*self._columns.values(), *self._objects.values()]
        self._bytes_stored = sum(record.nbytes for record in records)
        self._live_length = sum(record.length for record in records)
        return document
