"""Shared fixtures for the test suite.

Data sizes are deliberately tiny — the suite verifies behaviour and
invariants, not performance.  Timing-sensitive planner tests use the
virtual cost model so they are machine-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client.parser import parse_workload
from repro.dataframe import DataFrame
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.graph.pruning import prune_workload
from repro.workloads.home_credit import generate_home_credit
from repro.workloads.openml import generate_credit_g
from repro.workloads.synthetic_dag import wide_workload_script


class Counted:
    """An object-column element whose ``__str__`` counts how often a size
    measure walked it (``Column.nbytes`` sums ``len(str(v))``)."""

    walks = 0

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        Counted.walks += 1
        return self.text


class Shift(DataOperation):
    """Every column ``+ k``: new content per application, so neither a
    store nor a wire ledger can dedup the result against its input."""

    def __init__(self, k: int):
        super().__init__("shift", params={"k": k})
        self.k = k
        self.virtual_cost = 1.0

    def run(self, frame: DataFrame) -> DataFrame:
        return DataFrame({name: frame.column(name).values + self.k for name in frame.columns})


def wide_sources(n_rows: int = 64, seed: int = 0) -> dict[str, DataFrame]:
    rng = np.random.default_rng(seed)
    return {"wide": DataFrame({"x": rng.normal(size=n_rows), "y": rng.normal(size=n_rows)})}


def wide_dag(n_branches: int, ops_per_branch: int, op_seconds: float) -> WorkloadDAG:
    """The parsed, pruned DAG of :func:`wide_workload_script`."""
    script = wide_workload_script(n_branches, ops_per_branch, op_seconds)
    dag = parse_workload(script, wide_sources()).dag
    prune_workload(dag)
    return dag


@pytest.fixture
def simple_frame() -> DataFrame:
    return DataFrame(
        {
            "a": np.asarray([1.0, 2.0, 3.0, 4.0]),
            "b": np.asarray([10.0, 20.0, 30.0, 40.0]),
            "key": np.asarray([1, 1, 2, 2]),
            "name": np.asarray(["x", "y", "x", "z"], dtype=object),
        }
    )


@pytest.fixture
def labeled_data() -> tuple[np.ndarray, np.ndarray]:
    """A linearly separable binary classification problem."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


@pytest.fixture(scope="session")
def tiny_home_credit():
    return generate_home_credit(n_applications=60, n_test=20, seed=7)


@pytest.fixture(scope="session")
def tiny_credit_g():
    return generate_credit_g(n_rows=120, seed=3)
