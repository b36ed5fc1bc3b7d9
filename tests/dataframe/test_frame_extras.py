"""Tests for the clip operation, on the frame and through the node API."""

import numpy as np
import pytest

from repro.dataframe import DataFrame


@pytest.fixture
def frame():
    return DataFrame(
        {
            "age": np.asarray([22.0, 35.0, 35.0, 61.0, 88.0]),
            "city": np.asarray(["a", "b", "a", "b", "c"], dtype=object),
            "score": np.asarray([-5.0, 0.5, 1.5, 9.0, 2.0]),
        }
    )


class TestClip:
    def test_clamps_both_sides(self, frame):
        out = frame.clip_column("score", lower=0.0, upper=2.0)
        assert list(out.values("score")) == [0.0, 0.5, 1.5, 2.0, 2.0]

    def test_one_sided(self, frame):
        out = frame.clip_column("score", lower=0.0)
        assert out.values("score").min() == 0.0
        assert out.values("score").max() == 9.0

    def test_requires_a_bound(self, frame):
        with pytest.raises(ValueError):
            frame.clip_column("score")

    def test_other_columns_keep_ids(self, frame):
        out = frame.clip_column("score", upper=1.0)
        assert out.column_ids["age"] == frame.column_ids["age"]
        assert out.column_ids["score"] != frame.column_ids["score"]


class TestNodeApi:
    def test_lazy_ops_compose(self, frame):
        from repro.client.api import Workspace
        from repro.client.executor import Executor
        from repro.graph.pruning import prune_workload

        ws = Workspace()
        data = ws.source("d", frame)
        clipped = data.clip("score", lower=0.0).clip("score", upper=2.0)
        clipped.terminal()
        prune_workload(ws.dag)
        Executor().execute(ws.dag)
        result = ws.dag.vertex(clipped.vertex_id).data
        assert list(result.values("score")) == [0.0, 0.5, 1.5, 2.0, 2.0]
        assert result.column_ids["age"] == frame.column_ids["age"]
