"""Wire codecs: how a message tree becomes frame-body bytes.

A *message tree* is a JSON-shaped structure (dicts, lists, scalars)
whose leaves may additionally be one-dimensional numpy arrays — the
payload layer (:mod:`repro.transport.wire`) produces exactly these.  Two
codecs serialize them:

* :class:`JsonWireCodec` — the fallback: arrays become JSON lists and
  the body is plain UTF-8 JSON, readable with any tool; selectable per
  frame so convergence tests can diff the two paths.
* :class:`BinaryWireCodec` — a small JSON *envelope* describing the
  tree, followed by the raw column buffers.  Numeric arrays ship as
  their bytes via ``memoryview`` — no ``tolist``, no number formatting,
  no copy on the send path — and decode via ``np.frombuffer`` straight
  over the received body.  Object-dtype string columns ship as one UTF-8
  blob plus an offsets buffer.

Binary body layout::

    +---------+----------+----------------+-------------+-----------+-------------+
    | flags u8| nbufs u32| nbufs x len u32| meta_len u32| meta JSON | buffers ... |
    +---------+----------+----------------+-------------+-----------+-------------+

The meta JSON holds the message tree with array leaves replaced by
markers — ``{"__nd__": [buffer, dtype, shape]}`` for numeric arrays,
``{"__sv__": [data_buffer, offsets_buffer]}`` for string columns,
``{"__ref__": column_id}`` for **deduplicated** columns.  When markers
exist (``flags`` bit 0), the meta is ``{"m": tree, "p": paths}`` where
``paths`` lists the key/index path to every marker, so the decoder
runs one plain (C-speed) ``json.loads`` and then jumps *directly* to
each marker instead of walking the whole tree; marker-free messages
(plans, errors, stats) ship the tree bare and decode as a single
``json.loads``.  Buffer lengths come before the meta so buffers are
sliced without copying before any marker resolves.

Dedup rides the column lineage ids of Section 5.3: each endpoint keeps a
per-connection :class:`ColumnLedger` of every column that has crossed
that connection in either direction.  A column whose id the peer already
holds ships as a reference instead of bytes — the common case for a
commit that ships back exactly the columns the plan response delivered,
and for swarm tenants re-submitting shared source frames.
"""

from __future__ import annotations

import json
import struct
import threading
from types import SimpleNamespace
from typing import Any

import numpy as np

from .errors import ProtocolError, StaleColumnReferenceError
from .frames import CODEC_BINARY, CODEC_JSON

__all__ = [
    "ColumnLedger",
    "WireCodec",
    "JsonWireCodec",
    "BinaryWireCodec",
    "make_codec",
    "encoded_size",
]

_PREAMBLE = struct.Struct(">BI")  # flags, buffer count
_U32 = struct.Struct(">I")

#: body flag bit 0 — the meta tree contains at least one marker, so the
#: decoder must resolve ``__nd__``/``__sv__``/``__ref__`` nodes
_FLAG_MARKERS = 0x01


def encoded_size(parts: list[bytes | memoryview]) -> int:
    """Total body bytes of an encoded message (sum of the iovec parts)."""
    return sum(len(part) for part in parts)


class ColumnLedger:
    """Per-connection registry of columns both endpoints hold.

    Both directions share one ledger per endpoint: the sender records a
    column when it ships its bytes, the receiver when it decodes them —
    so an id present here is, by construction, also present at the peer
    (the bytes crossed this very connection).  References therefore
    always resolve; a miss means a protocol bug and raises
    :class:`StaleColumnReferenceError` at decode time.

    The ledger grows with the number of *distinct* columns seen on the
    connection and is dropped with it; entries are never evicted, because
    unilateral eviction would desynchronize the two endpoints.
    """

    def __init__(self) -> None:
        self._columns: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns)

    def __contains__(self, column_id: str) -> bool:
        with self._lock:
            return column_id in self._columns

    def remember(self, column_id: str, values: np.ndarray) -> None:
        with self._lock:
            self._columns.setdefault(column_id, values)

    def lookup(self, column_id: str) -> np.ndarray:
        with self._lock:
            values = self._columns.get(column_id)
        if values is None:
            raise StaleColumnReferenceError(
                f"peer referenced unknown column {column_id[:12]}"
            )
        return values


class WireCodec:
    """Message tree <-> frame body parts."""

    name: str = "abstract"
    codec_id: int = 0

    def encode(self, message: Any) -> list[bytes | memoryview]:
        raise NotImplementedError

    def decode(self, body: memoryview) -> Any:
        raise NotImplementedError


def _jsonify(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


class JsonWireCodec(WireCodec):
    """Fallback codec: one UTF-8 JSON object, arrays as lists."""

    name = "json"
    codec_id = CODEC_JSON

    def encode(self, message: Any) -> list[bytes | memoryview]:
        encoded = json.dumps(message, separators=(",", ":"), default=_jsonify)
        return [encoded.encode("utf-8")]

    def decode(self, body: memoryview) -> Any:
        try:
            return json.loads(bytes(body).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(f"undecodable JSON body: {error}") from error


def _is_column_record(node: dict) -> bool:
    return "column_id" in node and "values" in node and "dtype" in node


#: leaves that pass through the encoder inline — exact types: a numpy
#: scalar subclasses ``float``/``int`` and must still collapse via ``item``
_PLAIN_LEAVES = frozenset((str, int, float, bool, type(None)))


class BinaryWireCodec(WireCodec):
    """Zero-copy columnar codec with connection-scoped column dedup.

    ``ledger=None`` disables dedup (every column ships its bytes); the
    server and client install one ledger per connection.
    """

    name = "binary"
    codec_id = CODEC_BINARY

    def __init__(self, ledger: ColumnLedger | None = None):
        self.ledger = ledger
        #: columns shipped as references instead of bytes (send side)
        self.refs_sent = 0
        #: raw column/array bytes elided by those references
        self.ref_bytes_saved = 0

    # ------------------------------------------------------------------
    # Encode
    # ------------------------------------------------------------------
    def encode(self, message: Any) -> list[bytes | memoryview]:
        # what this message contributes; the codec adopts ``shipped``
        # (the columns it carries, by id) and the counters only at the end
        out = SimpleNamespace(
            buffers=[], paths=[], shipped={}, refs=0, ref_bytes_saved=0
        )
        tree = self._encode_node(message, (), out)
        flags = _FLAG_MARKERS if out.paths else 0
        meta = json.dumps(
            {"m": tree, "p": out.paths} if out.paths else tree, separators=(",", ":")
        ).encode("utf-8")
        lengths = [len(part) for part in out.buffers]
        prefix = struct.pack(
            f">BI{len(lengths)}II", flags, len(lengths), *lengths, len(meta)
        )
        # an encode that failed half-way (an estimator among op params)
        # must not have left the ledger naming columns that never shipped
        if self.ledger is not None:
            for column_id, values in out.shipped.items():
                self.ledger.remember(column_id, values)
        self.refs_sent += out.refs
        self.ref_bytes_saved += out.ref_bytes_saved
        return [prefix, meta, *out.buffers]

    def _encode_node(self, node: Any, path: tuple, out: SimpleNamespace) -> Any:
        if isinstance(node, dict):
            if _is_column_record(node) and isinstance(node["values"], np.ndarray):
                return self._encode_column(node, path, out)
            return {
                key: value
                if type(value) in _PLAIN_LEAVES
                else self._encode_node(value, (*path, key), out)
                for key, value in node.items()
            }
        if isinstance(node, (list, tuple)):
            return [
                item
                if type(item) in _PLAIN_LEAVES
                else self._encode_node(item, (*path, index), out)
                for index, item in enumerate(node)
            ]
        if isinstance(node, np.ndarray):
            out.paths.append(list(path))
            return self._encode_array(node, out)
        if isinstance(node, (np.floating, np.integer, np.bool_)):
            return node.item()
        return node

    def _encode_column(self, node: dict, path: tuple, out: SimpleNamespace) -> dict:
        values: np.ndarray = node["values"]
        column_id: str = node["column_id"]
        record = {key: value for key, value in node.items() if key != "values"}
        out.paths.append([*path, "values"])
        if self.ledger is None:
            record["values"] = self._encode_array(values, out)
        elif column_id in out.shipped or column_id in self.ledger:
            record["values"] = {"__ref__": column_id}
            out.refs += 1
            out.ref_bytes_saved += _array_wire_bytes(values)
        else:
            record["values"] = self._encode_array(values, out)
            out.shipped[column_id] = values
        return record

    def _encode_array(self, values: np.ndarray, out: SimpleNamespace) -> dict:
        if values.dtype == object:
            return self._encode_strings(values, out)
        contiguous = np.ascontiguousarray(values)
        out.buffers.append(memoryview(contiguous).cast("B"))
        index = len(out.buffers) - 1
        return {"__nd__": [index, contiguous.dtype.str, list(values.shape)]}

    def _encode_strings(self, values: np.ndarray, out: SimpleNamespace) -> dict:
        encoded = [str(item).encode("utf-8") for item in values]
        # explicit little-endian offsets: the dtype on the wire must not
        # depend on either machine's native byte order
        offsets = np.zeros(len(encoded) + 1, dtype="<i8")
        for index, part in enumerate(encoded):
            offsets[index + 1] = offsets[index] + len(part)
        out.buffers.append(b"".join(encoded))
        out.buffers.append(memoryview(offsets).cast("B"))
        data_index = len(out.buffers) - 2
        return {"__sv__": [data_index, data_index + 1]}

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode(self, body: memoryview) -> Any:
        try:
            flags, nbufs = _PREAMBLE.unpack_from(body)
            offset = _PREAMBLE.size
            lengths = struct.unpack_from(f">{nbufs}I", body, offset)
            offset += 4 * nbufs
            (meta_len,) = _U32.unpack_from(body, offset)
            offset += _U32.size
        except struct.error as error:
            raise ProtocolError(f"truncated binary body: {error}") from error
        if len(body) < offset + meta_len:
            raise ProtocolError("binary body shorter than its declared meta")
        meta = bytes(body[offset : offset + meta_len])
        offset += meta_len

        buffers: list[memoryview] = []
        for length in lengths:
            end = offset + length
            if end > len(body):
                raise ProtocolError("binary body shorter than its declared buffers")
            buffers.append(body[offset:end])
            offset = end

        # the parse itself is one plain (C-speed) json.loads; marker
        # paths recorded at encode time let the decoder jump straight to
        # each array leaf instead of walking the whole tree
        try:
            parsed = json.loads(meta)
            if not flags & _FLAG_MARKERS:
                return parsed
            holder = {"m": parsed["m"]}
            for path in parsed["p"]:
                self._resolve_marker(holder, path, buffers)
            return holder["m"]
        except ProtocolError:
            raise
        except (ValueError, TypeError, KeyError, IndexError) as error:
            raise ProtocolError(f"undecodable binary meta: {error}") from error

    def _resolve_marker(
        self, holder: dict, path: list, buffers: list[memoryview]
    ) -> None:
        parent: Any = holder
        key: Any = "m"
        for step in path:
            parent = parent[key]
            key = step
        marker = parent[key]
        if not (isinstance(marker, dict) and len(marker) == 1):
            raise ProtocolError(f"marker path {path!r} does not point at a marker")
        values = self._materialize(marker, buffers)
        parent[key] = values
        if (
            self.ledger is not None
            and isinstance(parent, dict)
            and _is_column_record(parent)
        ):
            self.ledger.remember(parent["column_id"], values)

    def _materialize(self, marker: dict, buffers: list[memoryview]) -> np.ndarray:
        if "__nd__" in marker:
            index, dtype, shape = marker["__nd__"]
            values = np.frombuffer(buffers[index], dtype=np.dtype(dtype))
            return values.reshape(shape)
        if "__sv__" in marker:
            data_index, offsets_index = marker["__sv__"]
            offsets = np.frombuffer(buffers[offsets_index], dtype="<i8")
            blob = bytes(buffers[data_index])
            return np.array(
                [
                    blob[offsets[i] : offsets[i + 1]].decode("utf-8")
                    for i in range(len(offsets) - 1)
                ],
                dtype=object,
            )
        if "__ref__" in marker:
            if self.ledger is None:
                raise StaleColumnReferenceError(
                    "dedup reference received on a connection without a ledger"
                )
            return self.ledger.lookup(marker["__ref__"])
        raise ProtocolError(f"unknown marker {sorted(marker)!r}")


def _array_wire_bytes(values: np.ndarray) -> int:
    if values.dtype == object:
        return sum(len(str(item).encode("utf-8")) for item in values) + 8 * (
            len(values) + 1
        )
    return values.nbytes


_JSON = JsonWireCodec()  # stateless: one instance serves every frame


def make_codec(name: str) -> WireCodec:
    """Codec by name; a ``binary`` one keeps no dedup ledger (a connection
    builds its own with :class:`ColumnLedger`)."""
    if name == "json":
        return _JSON
    if name == "binary":
        return BinaryWireCodec()
    raise ValueError(f"unknown wire codec {name!r} (expected 'json' or 'binary')")


def codec_for_id(codec_id: int, binary: BinaryWireCodec) -> WireCodec:
    """The codec a received frame names: the connection's binary one (it
    owns the dedup ledger) or JSON — ``unpack_header`` admits no third."""
    return binary if codec_id == CODEC_BINARY else _JSON
