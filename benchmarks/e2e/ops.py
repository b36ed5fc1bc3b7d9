"""Real-compute operations for the stream workloads.

The swarm's ``SleepOperation`` family spends its time in ``time.sleep``,
so a benchmark built on it measures the sleeps.  These operations do one
real numpy pass over a column instead, and declare a *constant*
``virtual_cost``: under :class:`~repro.client.executor.VirtualCostModel`
everything that reaches the Experiment Graph is machine-independent, which
is what lets the stream workloads be checked by bit-identical replay.

Operations cross the wire by name/params/hash only, so the service and the
shard workers never import this module.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dataframe import Column, DataFrame
from repro.dataframe.column import derive_column_id
from repro.graph.operations import DataOperation

__all__ = [
    "VIRTUAL_COST",
    "FUNCTIONS",
    "SOURCE_COLUMNS",
    "JOIN_COLUMNS",
    "FeatureOp",
    "JoinOp",
    "make_source",
]

#: declared cost of every stream operation (seconds); large against the
#: modeled load cost of a ~1 MB frame, so the planner prefers loading
VIRTUAL_COST = 0.05

SOURCE_COLUMNS = tuple(f"x{index}" for index in range(8))
#: the columns a cross-group join stacks (two, to bound the join payload)
JOIN_COLUMNS = SOURCE_COLUMNS[:2]

#: feature functions by the name a script spec carries
FUNCTIONS = {
    "tanh": np.tanh,
    "sqrt": lambda values: np.sqrt(np.abs(values)),
}


def make_source(seed: int, rows: int = 20_000) -> DataFrame:
    """The shared source frame: ``rows`` x 8 float64 (1.28 MB at 20 000)."""
    rng = np.random.default_rng(seed)
    return DataFrame({name: rng.normal(size=rows) for name in SOURCE_COLUMNS})


class FeatureOp(DataOperation):
    """Append ``f<tag> = fn(frame[column])``; every other column is kept.

    Kept columns retain their lineage ids, so consecutive artifacts of a
    chain overlap in all but one column — the sharing that column-level
    deduplication (store and wire) exists for.
    """

    def __init__(self, tag: int, column: str, function: str):
        if function not in FUNCTIONS:
            raise ValueError(f"unknown feature function {function!r}")
        super().__init__(
            "bench_feature", params={"tag": tag, "column": column, "fn": function}
        )
        self.virtual_cost = VIRTUAL_COST

    @property
    def output_column(self) -> str:
        return f"f{self.params['tag']}"

    def run(self, underlying_data: Any) -> DataFrame:
        frame: DataFrame = underlying_data
        source = frame.column(self.params["column"])
        values = FUNCTIONS[self.params["fn"]](source.values)
        # the id must depend on the *input* column, or two chains applying
        # the same step to different inputs would collide in the dedup store
        column_id = derive_column_id(self.op_hash, source.column_id)
        return frame.with_column(
            self.output_column, Column(self.output_column, values, column_id)
        )


class JoinOp(DataOperation):
    """Cross-group join: row-concat of both inputs' :data:`JOIN_COLUMNS`."""

    def __init__(self, tag: int):
        super().__init__("bench_join", params={"tag": tag})
        self.virtual_cost = VIRTUAL_COST

    def run(self, underlying_data: Any) -> DataFrame:
        frames = [frame.select(JOIN_COLUMNS) for frame in underlying_data]
        return DataFrame.concat_rows(frames, operation_hash=self.op_hash)
