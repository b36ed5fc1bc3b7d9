"""Columnar dataframe substrate (pandas replacement).

Public surface:

* :class:`~repro.dataframe.frame.DataFrame` — immutable columnar table.
* :class:`~repro.dataframe.column.Column` — one column with a lineage id.

Workloads build their frames in memory: ``DataFrame({name: values})``.
"""

from .column import (
    Column,
    combine_column_ids,
    derive_column_id,
    dtype_name,
    fresh_column_id,
)
from .frame import DataFrame

__all__ = [
    "Column",
    "DataFrame",
    "fresh_column_id",
    "derive_column_id",
    "combine_column_ids",
    "dtype_name",
]
