"""Tests for the concrete operation library."""

import numpy as np
import pytest

from repro.client import ops
from repro.dataframe import DataFrame
from repro.ml import LogisticRegression, StandardScaler


@pytest.fixture
def frame():
    return DataFrame(
        {
            "k": [1, 2, 3, 4],
            "x": [1.0, 2.0, 3.0, 4.0],
            "y": [0, 0, 1, 1],
            "cat": np.asarray(["a", "b", "a", "b"], dtype=object),
        }
    )


class TestDatasetOps:
    def test_select(self, frame):
        out = ops.SelectColumnsOp(["x"]).run(frame)
        assert out.columns == ["x"]

    def test_drop(self, frame):
        out = ops.DropColumnsOp(["cat"]).run(frame)
        assert "cat" not in out

    def test_fillna(self):
        frame = DataFrame({"x": [1.0, np.nan]})
        out = ops.FillNAOp(strategy="zero").run(frame)
        assert out.values("x")[1] == 0.0

    def test_one_hot(self, frame):
        out = ops.OneHotOp("cat").run(frame)
        assert "cat_a" in out and "cat_b" in out

    def test_groupby(self, frame):
        out = ops.GroupByAggOp("y", {"x": "sum"}).run(frame)
        assert list(out.values("x_sum")) == [3.0, 7.0]

    def test_map_column(self, frame):
        out = ops.MapColumnOp("x", lambda v: v * 10, "times10").run(frame)
        assert list(out.values("x")) == [10.0, 20.0, 30.0, 40.0]

    def test_add_column(self, frame):
        out = ops.AddColumnOp("double", lambda f: f.values("x") * 2, "dbl").run(frame)
        assert list(out.values("double")) == [2.0, 4.0, 6.0, 8.0]

    def test_describe_returns_aggregate(self, frame):
        summary = ops.DescribeOp().run(frame)
        assert summary["x"]["mean"] == pytest.approx(2.5)

    def test_type_check(self):
        with pytest.raises(TypeError, match="DataFrame"):
            ops.SelectColumnsOp(["x"]).run(42)

    def test_hash_determinism(self):
        assert ops.SelectColumnsOp(["a"]).op_hash == ops.SelectColumnsOp(["a"]).op_hash
        assert ops.SelectColumnsOp(["a"]).op_hash != ops.SelectColumnsOp(["b"]).op_hash


class TestMultiInputOps:
    def test_merge(self, frame):
        other = DataFrame({"k": [1, 2], "z": [5.0, 6.0]})
        out = ops.MergeOp(on="k").run([frame, other])
        assert out.num_rows == 2
        assert "z" in out

    def test_align_sides(self):
        left = DataFrame({"a": [1.0], "b": [2.0]})
        right = DataFrame({"b": [3.0], "c": [4.0]})
        assert ops.AlignOp("left").run([left, right]).columns == ["b"]
        assert ops.AlignOp("right").run([left, right]).columns == ["b"]
        assert ops.AlignOp("left").op_hash != ops.AlignOp("right").op_hash

    def test_align_rejects_bad_side(self):
        with pytest.raises(ValueError):
            ops.AlignOp("middle")


class TestModelOps:
    @pytest.fixture
    def Xy(self, frame):
        return frame[["x", "k"]], frame[["y"]]

    def test_fit_supervised(self, Xy):
        X, y = Xy
        model = ops.FitOp(LogisticRegression(max_iter=5)).run([X, y])
        assert model.is_fitted

    def test_fit_hash_covers_hyperparams(self):
        a = ops.FitOp(LogisticRegression(C=1.0))
        b = ops.FitOp(LogisticRegression(C=2.0))
        assert a.op_hash != b.op_hash

    def test_fit_scorer_quality(self, Xy):
        X, y = Xy
        op = ops.FitOp(LogisticRegression(max_iter=20), scorer="train_accuracy")
        model = op.run([X, y])
        quality = op.score(model, [X, y])
        assert 0.0 <= quality <= 1.0

    def test_fit_scorer_uses_eval_pair_when_present(self, Xy):
        X, y = Xy
        op = ops.FitOp(LogisticRegression(max_iter=20), scorer="train_accuracy")
        model = op.run([X, y])
        degenerate_y = DataFrame({"y": [1, 1, 1, 1]})
        quality_eval = op.score(model, [X, y, X, degenerate_y])
        quality_train = op.score(model, [X, y])
        predictions = model.predict(X.to_numpy())
        expected_eval = float(np.mean(predictions == 1))
        assert quality_eval == pytest.approx(expected_eval)
        assert quality_train != quality_eval or expected_eval == quality_train

    def test_fit_unknown_scorer(self):
        with pytest.raises(ValueError, match="unknown scorer"):
            ops.FitOp(LogisticRegression(), scorer="nope")

    def test_fit_unsupervised(self, Xy):
        X, _y = Xy
        scaler = ops.FitOp(StandardScaler(), supervised=False).run(X)
        assert scaler.is_fitted

    def test_warmstartable_flag_follows_estimator(self):
        assert ops.FitOp(LogisticRegression()).warmstartable
        assert not ops.FitOp(StandardScaler(), supervised=False).warmstartable

    def test_fit_warmstarted(self, Xy):
        X, y = Xy
        op = ops.FitOp(LogisticRegression(max_iter=5))
        base = op.run([X, y])
        warm = op.run_warmstarted([X, y], base)
        assert warm.warm_started_

    def test_transform_with_model(self, Xy):
        X, _ = Xy
        scaler = ops.FitOp(StandardScaler(), supervised=False).run(X)
        out = ops.TransformOp(prefix="scaled").run([scaler, X])
        assert isinstance(out, DataFrame)
        assert out.num_columns == 2
        assert out.columns == ["scaled_0", "scaled_1"]

    def test_transform_lineage_deterministic(self, Xy):
        X, _ = Xy
        scaler = ops.FitOp(StandardScaler(), supervised=False).run(X)
        op = ops.TransformOp(prefix="scaled")
        assert op.run([scaler, X]).column_ids == op.run([scaler, X]).column_ids

    def test_object_column_is_rejected_by_transformers(self, frame):
        """No transformer takes raw strings: an object column is the
        dataframe's own "encode it first" error, not a silent first-column feed."""
        scaler = ops.FitOp(StandardScaler(), supervised=False).run(frame[["x"]])
        with pytest.raises(TypeError, match="'cat' is not numeric"):
            ops.TransformOp(prefix="s").run([scaler, frame[["x", "cat"]]])

    def test_predict_op(self, Xy):
        X, y = Xy
        model = ops.FitOp(LogisticRegression(max_iter=10)).run([X, y])
        out = ops.PredictOp().run([model, X])
        assert out.columns == ["prediction"]
        proba = ops.PredictOp(proba=True).run([model, X])
        assert np.all((proba.values("prediction") >= 0) & (proba.values("prediction") <= 1))

    def test_evaluate_op(self, Xy):
        X, y = Xy
        model = ops.FitOp(LogisticRegression(max_iter=10)).run([X, y])
        auc = ops.EvaluateOp("roc_auc").run([model, X, y])
        acc = ops.EvaluateOp("accuracy").run([model, X, y])
        assert 0.0 <= auc <= 1.0
        assert 0.0 <= acc <= 1.0

    def test_evaluate_unknown_metric(self):
        with pytest.raises(ValueError):
            ops.EvaluateOp("f2")
