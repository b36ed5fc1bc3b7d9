"""Columnar storage primitive with lineage identifiers.

Every :class:`Column` wraps a one-dimensional numpy array together with a
*lineage id*.  Lineage ids implement the deduplication scheme of Section 5.3
of the paper: a column that passes through an operation *unchanged* keeps its
id, while a column *affected* by an operation receives a new id derived by
hashing the operation hash together with the input column's id.  Two columns
in two different dataset artifacts therefore share an id if and only if the
same chain of operations produced them, which lets the storage manager store
each distinct column exactly once.
"""

from __future__ import annotations

import hashlib
import uuid
from typing import Iterable

import numpy as np

__all__ = ["Column", "fresh_column_id", "derive_column_id", "dtype_name"]

_DTYPE_NAMES: dict[np.dtype, str] = {}


def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, remembered per dtype.

    numpy 2.x derives the name on every call (``_name_get`` →
    ``issubdtype``, microseconds), and meta-data and wire records spell
    the dtype of every column of every artifact.
    """
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        name = _DTYPE_NAMES[dtype] = str(dtype)
        return name


def fresh_column_id() -> str:
    """Return a new, globally unique lineage id for a source column."""
    return uuid.uuid4().hex


def derive_column_id(operation_hash: str, input_column_id: str) -> str:
    """Derive the lineage id of a column affected by an operation.

    The derivation is a pure function of ``(operation_hash,
    input_column_id)`` so that replaying the same operation on the same
    column always yields the same id (Section 5.3).
    """
    digest = hashlib.sha256()
    digest.update(operation_hash.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(input_column_id.encode("utf-8"))
    return digest.hexdigest()


def combine_column_ids(operation_hash: str, input_column_ids: Iterable[str]) -> str:
    """Derive a lineage id from an operation applied to *several* columns."""
    digest = hashlib.sha256(b"combine\x00")
    digest.update(operation_hash.encode("utf-8"))
    for column_id in sorted(input_column_ids):
        digest.update(b"\x00")
        digest.update(column_id.encode("utf-8"))
    return digest.hexdigest()


class Column:
    """A named, typed column of data with a lineage id.

    Parameters
    ----------
    name:
        Column name within its :class:`~repro.dataframe.frame.DataFrame`.
    values:
        One-dimensional array of values.  Object dtype is used for strings.
    column_id:
        Lineage id.  When omitted a fresh source id is generated.

    Invariant: ``values`` is never assigned or written into after
    construction — every transformation builds a new ``Column``.  The
    memoized :attr:`nbytes` rests on it: a column's size is measured on
    first request, kept in the ``_nbytes`` slot, and handed on by
    :meth:`rename` and :meth:`copy` (same content), never by
    :meth:`with_values` or :meth:`take` (different content).  An unset
    slot means "not measured yet", which is also how an instance pickled
    before the slot existed arrives.
    """

    __slots__ = ("name", "values", "column_id", "_nbytes")

    def __init__(self, name: str, values: np.ndarray, column_id: str | None = None):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"column {name!r} must be 1-dimensional, got shape {values.shape}")
        self.name = name
        self.values = values
        self.column_id = column_id if column_id is not None else fresh_column_id()

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nbytes(self) -> int:
        """Approximate in-memory size of the column in bytes (measured once)."""
        try:
            return self._nbytes
        except AttributeError:
            pass
        size = int(self.values.nbytes)
        if self.values.dtype == object:
            # numpy only counts pointer sizes for object arrays; approximate
            # the payload by the string lengths.
            size += sum(len(str(v)) for v in self.values)
        self._nbytes = size
        return size

    @property
    def is_numeric(self) -> bool:
        return np.issubdtype(self.values.dtype, np.number)

    def rename(self, name: str) -> "Column":
        """Return a copy with a new name but the *same* lineage id."""
        return self._same_content(name, self.values)

    def with_values(self, values: np.ndarray, operation_hash: str) -> "Column":
        """Return a column whose values were transformed by an operation.

        The lineage id is re-derived because the content changed.
        """
        return Column(self.name, values, derive_column_id(operation_hash, self.column_id))

    def take(self, indices: np.ndarray, operation_hash: str) -> "Column":
        """Return a row-subset of the column (filter/sample lineage)."""
        return Column(
            self.name,
            self.values[indices],
            derive_column_id(operation_hash, self.column_id),
        )

    def copy(self) -> "Column":
        return self._same_content(self.name, self.values.copy())

    def with_id(self, column_id: str) -> "Column":
        """This content under another lineage id, for a store that holds
        equal content under an id of its own (keeps the size)."""
        if column_id == self.column_id:
            return self
        return self._same_content(self.name, self.values, column_id)

    def _same_content(
        self, name: str, values: np.ndarray, column_id: str | None = None
    ) -> "Column":
        """A column of equal content (under this lineage id unless another
        is given): keeps the size."""
        twin = Column(name, values, column_id or self.column_id)
        try:
            twin._nbytes = self._nbytes
        except AttributeError:
            pass
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Column({self.name!r}, len={len(self)}, dtype={self.dtype}, id={self.column_id[:8]})"
