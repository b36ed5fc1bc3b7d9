"""Shared fixtures for the test suite.

Data sizes are deliberately tiny — the suite verifies behaviour and
invariants, not performance.  Timing-sensitive planner tests use the
virtual cost model so they are machine-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.workloads.home_credit import generate_home_credit
from repro.workloads.openml import generate_credit_g


class Counted:
    """An object-column element whose ``__str__`` counts how often a size
    measure walked it (``Column.nbytes`` sums ``len(str(v))``)."""

    walks = 0

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        Counted.walks += 1
        return self.text


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
