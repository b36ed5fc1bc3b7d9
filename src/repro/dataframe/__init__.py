"""Columnar dataframe substrate (pandas replacement).

Public surface:

* :class:`~repro.dataframe.frame.DataFrame` — immutable columnar table.
* :class:`~repro.dataframe.column.Column` — one column with a lineage id.
* :func:`~repro.dataframe.io.read_csv` / :func:`~repro.dataframe.io.write_csv`.
"""

from .column import (
    Column,
    combine_column_ids,
    derive_column_id,
    dtype_name,
    fresh_column_id,
)
from .frame import DataFrame
from .io import read_csv, write_csv

__all__ = [
    "Column",
    "DataFrame",
    "read_csv",
    "write_csv",
    "fresh_column_id",
    "derive_column_id",
    "combine_column_ids",
    "dtype_name",
]
