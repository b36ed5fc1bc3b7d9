"""A numpy-backed columnar dataframe.

This is the substrate the collaborative optimizer operates on instead of
pandas.  It supports the relational and feature-engineering operations used
by the paper's Kaggle workloads: projection, column assignment, joins,
group-by aggregation, row concatenation, one-hot encoding, missing-value
handling, and alignment.

Each column carries a lineage id (see :mod:`repro.dataframe.column`), which
the storage-aware materializer uses to deduplicate columns shared between
artifacts.  Methods accept an optional ``operation_hash``; when omitted, a
hash is derived from the method name and its parameters so that standalone
use still produces deterministic lineage.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .column import Column, combine_column_ids, derive_column_id, fresh_column_id

__all__ = ["DataFrame"]


def _default_hash(op_name: str, *parts: Any) -> str:
    digest = hashlib.sha256()
    digest.update(op_name.encode("utf-8"))
    for part in parts:
        digest.update(b"\x00")
        digest.update(repr(part).encode("utf-8"))
    return digest.hexdigest()


_AGGREGATIONS: dict[str, Callable[[np.ndarray], Any]] = {
    "sum": np.sum,
    "mean": np.mean,
    "min": np.min,
    "max": np.max,
    "count": len,
    "std": lambda v: float(np.std(v)) if len(v) > 1 else 0.0,
    "var": lambda v: float(np.var(v)) if len(v) > 1 else 0.0,
    "median": np.median,
    "nunique": lambda v: len(np.unique(v)),
}
# exact on numeric columns over groups laid out contiguously (strings have no
# ``reduceat`` loop, and objects would keep a dtype the per-group call does
# not); ``np.add.reduceat`` sums in another order than ``np.sum``, so sums
# stay per group
_REDUCEAT = {"min": np.minimum, "max": np.maximum}


class DataFrame:
    """An immutable, column-oriented table.

    All transformation methods return a *new* DataFrame; the receiver is
    never modified.  Column order is preserved and meaningful.
    """

    __slots__ = ("_columns", "_order")

    def __init__(self, data: Mapping[str, Any] | Sequence[Column] | None = None):
        self._columns: dict[str, Column] = {}
        self._order: list[str] = []
        if data is None:
            return
        if isinstance(data, Mapping):
            length = None
            for name, values in data.items():
                column = values if isinstance(values, Column) else Column(name, np.asarray(values))
                if column.name != name:
                    column = column.rename(name)
                if length is None:
                    length = len(column)
                elif len(column) != length:
                    raise ValueError(
                        f"column {name!r} has length {len(column)}, expected {length}"
                    )
                self._columns[name] = column
                self._order.append(name)
        else:
            length = None
            for column in data:
                if not isinstance(column, Column):
                    raise TypeError("sequence constructor requires Column objects")
                if column.name in self._columns:
                    raise ValueError(f"duplicate column name {column.name!r}")
                if length is None:
                    length = len(column)
                elif len(column) != length:
                    raise ValueError(
                        f"column {column.name!r} has length {len(column)}, expected {length}"
                    )
                self._columns[column.name] = column
                self._order.append(column.name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names in order."""
        return list(self._order)

    @property
    def num_rows(self) -> int:
        if not self._order:
            return 0
        return len(self._columns[self._order[0]])

    @property
    def num_columns(self) -> int:
        return len(self._order)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory size of the frame in bytes."""
        return sum(col.nbytes for col in self._columns.values())

    @property
    def column_ids(self) -> dict[str, str]:
        """Mapping of column name to lineage id."""
        return {name: self._columns[name].column_id for name in self._order}

    def column(self, name: str) -> Column:
        """Return the underlying :class:`Column` object."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}; have {self._order}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __getitem__(self, key: str | Sequence[str]) -> "DataFrame":
        """Project to one column (``frame['a']``) or several (``frame[['a','b']]``)."""
        if isinstance(key, str):
            return self.select([key])
        return self.select(list(key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataFrame):
            return NotImplemented
        if self._order != other._order:
            return False
        for name in self._order:
            mine, theirs = self._columns[name].values, other._columns[name].values
            if len(mine) != len(theirs):
                return False
            numeric = np.issubdtype(mine.dtype, np.number) and np.issubdtype(
                theirs.dtype, np.number
            )
            if numeric:
                if not np.allclose(
                    mine.astype(float), theirs.astype(float), equal_nan=True
                ):
                    return False
            elif not all(a == b for a, b in zip(mine, theirs, strict=True)):
                return False
        return True

    def __hash__(self) -> int:  # frames are mutable containers of immutable cols
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DataFrame(rows={self.num_rows}, columns={self._order})"

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def values(self, name: str) -> np.ndarray:
        """Return the raw numpy array of one column."""
        return self.column(name).values

    def to_numpy(self, dtype: type = float) -> np.ndarray:
        """Return a 2-D numeric matrix of all columns."""
        if not self._order:
            return np.empty((0, 0), dtype=dtype)
        arrays = []
        for name in self._order:
            values = self._columns[name].values
            if values.dtype == object:
                raise TypeError(f"column {name!r} is not numeric; encode it first")
            arrays.append(values.astype(dtype))
        return np.column_stack(arrays)

    def head(self, n: int = 5) -> "DataFrame":
        indices = np.arange(min(n, self.num_rows))
        return self._take(indices, _default_hash("head", n))

    # ------------------------------------------------------------------
    # Projection / column manipulation (lineage-preserving)
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "DataFrame":
        """Project to a subset of columns, keeping their lineage ids."""
        return DataFrame([self.column(name) for name in names])

    def drop(self, names: Sequence[str] | str) -> "DataFrame":
        """Drop columns, keeping remaining lineage ids."""
        if isinstance(names, str):
            names = [names]
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}")
        keep = [n for n in self._order if n not in set(names)]
        return self.select(keep)

    def with_column(
        self,
        name: str,
        values: np.ndarray | Column,
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Return a frame with ``name`` added or replaced.

        Existing columns keep their lineage ids; the new column receives a
        fresh or operation-derived id.
        """
        if isinstance(values, Column):
            column = values.rename(name)
        else:
            values = np.asarray(values)
            if operation_hash is not None:
                column_id = derive_column_id(operation_hash, name)
            else:
                column_id = fresh_column_id()
            column = Column(name, values, column_id)
        if len(column) != self.num_rows and self.num_columns > 0:
            raise ValueError(
                f"new column {name!r} has length {len(column)}, expected {self.num_rows}"
            )
        columns = [self._columns[n] for n in self._order if n != name]
        columns.append(column)
        return DataFrame(columns)

    def assign(
        self,
        name: str,
        function: Callable[["DataFrame"], np.ndarray],
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Compute a new column from the whole frame."""
        operation_hash = operation_hash or _default_hash("assign", name)
        values = np.asarray(function(self))
        column_id = combine_column_ids(
            operation_hash, [c.column_id for c in self._columns.values()]
        )
        columns = [self._columns[n] for n in self._order if n != name]
        columns.append(Column(name, values, column_id))
        return DataFrame(columns)

    # ------------------------------------------------------------------
    # Value operations (lineage-rewriting)
    # ------------------------------------------------------------------
    def _take(self, indices: np.ndarray, operation_hash: str) -> "DataFrame":
        return DataFrame(
            [self._columns[n].take(indices, operation_hash) for n in self._order]
        )

    def map_column(
        self,
        name: str,
        function: Callable[[np.ndarray], np.ndarray],
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Apply a vectorized function to one column; other lineage ids survive."""
        operation_hash = operation_hash or _default_hash("map", name)
        column = self.column(name)
        new_values = np.asarray(function(column.values))
        columns = []
        for n in self._order:
            if n == name:
                columns.append(column.with_values(new_values, operation_hash))
            else:
                columns.append(self._columns[n])
        return DataFrame(columns)

    def fillna(
        self,
        value: Any = None,
        strategy: str | None = None,
        columns: Sequence[str] | None = None,
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Replace NaNs either with a constant or a per-column statistic.

        ``strategy`` may be ``'mean'``, ``'median'`` or ``'zero'``.  Columns
        without NaNs keep their lineage ids, implementing the paper's
        "unaffected columns carry the same id" rule.
        """
        if (value is None) == (strategy is None):
            raise ValueError("provide exactly one of value= or strategy=")
        operation_hash = operation_hash or _default_hash("fillna", value, strategy)
        target = set(columns) if columns is not None else set(self._order)
        out = []
        for name in self._order:
            column = self._columns[name]
            if name not in target or not column.is_numeric:
                out.append(column)
                continue
            values = column.values.astype(float)
            mask = np.isnan(values)
            if not mask.any():
                out.append(column)
                continue
            if strategy == "mean":
                fill = float(np.nanmean(values)) if not np.isnan(values).all() else 0.0
            elif strategy == "median":
                fill = float(np.nanmedian(values)) if not np.isnan(values).all() else 0.0
            elif strategy == "zero":
                fill = 0.0
            elif strategy is None:
                fill = float(value)
            else:
                raise ValueError(f"unknown fillna strategy {strategy!r}")
            values = np.where(mask, fill, values)
            out.append(column.with_values(values, operation_hash))
        return DataFrame(out)

    # ------------------------------------------------------------------
    # Multi-input operations
    # ------------------------------------------------------------------
    @staticmethod
    def concat_rows(
        frames: Sequence["DataFrame"], operation_hash: str | None = None
    ) -> "DataFrame":
        """Stack frames vertically (pandas ``concat(axis=0)``)."""
        if not frames:
            return DataFrame()
        operation_hash = operation_hash or _default_hash("concat_rows", len(frames))
        names = frames[0]._order
        for frame in frames[1:]:
            if frame._order != names:
                raise ValueError("all frames must share the same columns, in order")
        columns = []
        for name in names:
            pieces = [f._columns[name].values for f in frames]
            values = np.concatenate(pieces)
            merged_id = combine_column_ids(
                operation_hash, [f._columns[name].column_id for f in frames]
            )
            columns.append(Column(name, values, merged_id))
        return DataFrame(columns)

    def merge(
        self,
        other: "DataFrame",
        on: str,
        how: str = "inner",
        suffixes: tuple[str, str] = ("_x", "_y"),
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Hash join on a single key column.

        Supports ``inner`` and ``left`` joins, which cover the paper's
        workloads.  For left joins, missing numeric values become NaN.
        """
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type {how!r}")
        operation_hash = operation_hash or _default_hash("merge", on, how)

        left_keys = self.values(on)
        right_keys = other.values(on)
        positions: dict[Any, list[int]] = {}
        for idx, key in enumerate(right_keys):
            positions.setdefault(key, []).append(idx)

        left_idx: list[int] = []
        right_idx: list[int] = []
        for idx, key in enumerate(left_keys):
            matches = positions.get(key)
            if matches:
                for m in matches:
                    left_idx.append(idx)
                    right_idx.append(m)
            elif how == "left":
                left_idx.append(idx)
                right_idx.append(-1)

        left_indices = np.asarray(left_idx, dtype=int)
        right_indices = np.asarray(right_idx, dtype=int)
        unmatched = right_indices < 0

        columns: list[Column] = []
        right_names = set(other._order)
        for name in self._order:
            out_name = name
            if name != on and name in right_names:
                out_name = name + suffixes[0]
            taken = self._columns[name].take(left_indices, operation_hash)
            columns.append(taken.rename(out_name))
        for name in other._order:
            if name == on:
                continue
            out_name = name
            if name in self._columns:
                out_name = name + suffixes[1]
            source = other._columns[name]
            safe_indices = np.where(unmatched, 0, right_indices)
            values = source.values[safe_indices]
            if unmatched.any():
                if np.issubdtype(values.dtype, np.number):
                    values = values.astype(float)
                    values[unmatched] = np.nan
                else:
                    values = values.astype(object)
                    values[unmatched] = None
            column = Column(
                out_name, values, derive_column_id(operation_hash, source.column_id)
            )
            columns.append(column)
        return DataFrame(columns)

    def groupby_agg(
        self,
        by: str | Sequence[str],
        aggregations: Mapping[str, str | Sequence[str]],
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Group by one or more keys and aggregate other columns.

        ``aggregations`` maps column name to an aggregation name (or list of
        names) among sum/mean/min/max/count/std/var/median/nunique.  Output
        columns are named ``{column}_{agg}``; key columns come first.
        """
        key_names = [by] if isinstance(by, str) else list(by)
        if not key_names:
            raise ValueError("groupby needs at least one key column")
        operation_hash = operation_hash or _default_hash(
            "groupby", key_names, sorted(aggregations.items())
        )
        if len(key_names) == 1:
            keys = self.values(key_names[0])
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            key_columns = [(key_names[0], unique_keys)]
        else:
            composite = list(zip(*(self.values(k) for k in key_names)))
            seen: dict[tuple, int] = {}
            inverse = np.empty(self.num_rows, dtype=int)
            ordered: list[tuple] = []
            for index, key in enumerate(composite):
                group = seen.get(key)
                if group is None:
                    group = len(ordered)
                    seen[key] = group
                    ordered.append(key)
            # re-index groups in sorted key order for determinism
            order = sorted(range(len(ordered)), key=lambda g: tuple(map(repr, ordered[g])))
            rank = {g: r for r, g in enumerate(order)}
            for index, key in enumerate(composite):
                inverse[index] = rank[seen[key]]
            sorted_keys = [ordered[g] for g in order]
            key_columns = [
                (
                    name,
                    np.asarray(
                        [key[j] for key in sorted_keys],
                        dtype=self.column(name).dtype,
                    ),
                )
                for j, name in enumerate(key_names)
            ]
            unique_keys = np.arange(len(sorted_keys))
        # one stable sort lays every group's rows out contiguously, in row order
        order = np.argsort(inverse, kind="stable")
        sizes = np.bincount(inverse, minlength=len(unique_keys))
        starts = np.cumsum(sizes) - sizes
        bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))

        columns = [
            Column(
                name,
                values,
                derive_column_id(operation_hash + ":" + name, self.column(name).column_id),
            )
            for name, values in key_columns
        ]
        for name, aggs in aggregations.items():
            if isinstance(aggs, str):
                aggs = [aggs]
            source = self.column(name)
            grouped = source.values[order]
            for agg in aggs:
                try:
                    func = _AGGREGATIONS[agg]
                except KeyError:
                    raise ValueError(f"unknown aggregation {agg!r}") from None
                if not len(sizes):
                    values = np.asarray([])  # no groups: float64, whatever the column
                elif agg == "count":
                    values = sizes
                elif agg in _REDUCEAT and grouped.dtype.kind in "biuf":
                    values = _REDUCEAT[agg].reduceat(grouped, starts)
                else:
                    values = np.asarray([func(grouped[a:b]) for a, b in bounds])
                column_id = derive_column_id(
                    operation_hash + ":" + agg, source.column_id
                )
                columns.append(Column(f"{name}_{agg}", values, column_id))
        return DataFrame(columns)

    def one_hot(
        self,
        name: str,
        prefix: str | None = None,
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """One-hot encode one column into indicator columns.

        The source column is replaced; all other columns keep their ids.
        """
        operation_hash = operation_hash or _default_hash("one_hot", name)
        prefix = prefix or name
        source = self.column(name)
        categories = np.unique(source.values[source.values != np.array(None)])
        columns = [self._columns[n] for n in self._order if n != name]
        for category in categories:
            indicator = (source.values == category).astype(np.int8)
            column_id = derive_column_id(
                operation_hash + ":" + str(category), source.column_id
            )
            columns.append(Column(f"{prefix}_{category}", indicator, column_id))
        return DataFrame(columns)

    @staticmethod
    def align(
        left: "DataFrame",
        right: "DataFrame",
        operation_hash: str | None = None,
    ) -> tuple["DataFrame", "DataFrame"]:
        """Keep only the columns present in both frames (paper Section 7.2).

        Returns the two reduced frames; surviving columns keep their ids.
        """
        del operation_hash  # projection only — lineage preserved
        shared = [n for n in left._order if n in right._columns]
        return left.select(shared), right.select(shared)

    def clip_column(
        self,
        name: str,
        lower: float | None = None,
        upper: float | None = None,
        operation_hash: str | None = None,
    ) -> "DataFrame":
        """Clamp one numeric column to [lower, upper]."""
        if lower is None and upper is None:
            raise ValueError("provide at least one of lower/upper")
        operation_hash = operation_hash or _default_hash("clip", name, lower, upper)
        return self.map_column(
            name,
            lambda values: np.clip(
                values.astype(float),
                lower if lower is not None else -np.inf,
                upper if upper is not None else np.inf,
            ),
            operation_hash=operation_hash,
        )

    def describe(self) -> dict[str, dict[str, float]]:
        """Per-numeric-column summary statistics (an Aggregate artifact)."""
        summary: dict[str, dict[str, float]] = {}
        for name in self._order:
            column = self._columns[name]
            if not column.is_numeric:
                continue
            values = column.values.astype(float)
            finite = values[~np.isnan(values)]
            if len(finite) == 0:
                summary[name] = {"count": 0.0}
                continue
            summary[name] = {
                "count": float(len(finite)),
                "mean": float(np.mean(finite)),
                "std": float(np.std(finite)),
                "min": float(np.min(finite)),
                "max": float(np.max(finite)),
            }
        return summary
