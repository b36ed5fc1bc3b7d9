"""Tests for operations and their identity hashes."""

from collections.abc import Mapping
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.artifacts import ArtifactType
from repro.graph.operations import (
    DataOperation,
    FunctionOperation,
    TrainOperation,
    _canonical,
    operation_hash,
)


class TestOperationHash:
    def test_deterministic(self):
        assert operation_hash("op", {"a": 1}) == operation_hash("op", {"a": 1})

    def test_name_sensitivity(self):
        assert operation_hash("op1") != operation_hash("op2")

    def test_param_sensitivity(self):
        assert operation_hash("op", {"a": 1}) != operation_hash("op", {"a": 2})

    def test_param_order_insensitive(self):
        assert operation_hash("op", {"a": 1, "b": 2}) == operation_hash(
            "op", {"b": 2, "a": 1}
        )

    def test_nested_params(self):
        h1 = operation_hash("op", {"grid": {"x": [1, 2]}})
        h2 = operation_hash("op", {"grid": {"x": [1, 2]}})
        h3 = operation_hash("op", {"grid": {"x": [2, 1]}})
        assert h1 == h2
        assert h1 != h3

    def test_callable_params_hash_by_name(self):
        def scorer_a():
            pass

        def scorer_b():
            pass

        assert operation_hash("op", {"f": scorer_a}) != operation_hash(
            "op", {"f": scorer_b}
        )

    def test_no_params(self):
        assert operation_hash("op") == operation_hash("op", None)
        assert operation_hash("op") == operation_hash("op", {})


def scorer_fn(x):
    return x


class TestGoldenDigests:
    """``operation_hash`` digests recorded before ``_canonical`` switched to
    ``collections.abc.Mapping``.  Vertex ids are built from these hashes, so
    a moved digest orphans every stored artifact."""

    @pytest.mark.parametrize(
        "name, params, digest",
        [
            (
                "select",
                None,
                "b1a36d25d9633ed2ac04939fcb614ccb2b513243c148f18694592ae037f9d35f",
            ),
            (
                "fit",
                {
                    "model": {"depth": 3, "lr": 0.1, "inner": {"b": 2, "a": 1}},
                    "y": "label",
                },
                "d782b65deebc325003f0034d1ae9ad5fa54a4c74e7a87a4385c19c03ce8c61ee",
            ),
            (
                "select",
                {"columns": ["a", "b", "c"]},
                "03092d91adc059bb15a72b71b660bf6f34f8fc07aadb9fb2374ba30778058121",
            ),
            (
                "sample",
                {"shape": (3, 4), "seed": 7},
                "7d22e68feed5b86cec87da973a737a7ae83a793364e195d8d2cb7fe2a619378b",
            ),
            (
                "map",
                {"fn": len, "user": scorer_fn},
                "00512c12780c499adcc17f1679c2b4652e10334ffd720840062033b6dde38221",
            ),
        ],
        ids=["no-params", "nested-dict", "list", "tuple", "callable"],
    )
    def test_digest_unchanged(self, name, params, digest):
        assert operation_hash(name, params) == digest

    @pytest.mark.skipif(
        repr(np.float64(0.5)) != "np.float64(0.5)",
        reason="numpy < 2 spells scalar reprs differently",
    )
    def test_numpy_scalar_digests_unchanged(self):
        assert (
            operation_hash("scale", {"factor": np.float64(0.5), "n": np.int64(3)})
            == "71bdb8d28344b8168341cf27cc57c16dd4e1f11dbf323f206a554ca54d6f4a2b"
        )
        assert (
            operation_hash(
                "agg",
                {
                    "by": ["k"],
                    "aggs": {"v": ("sum", "mean")},
                    "fn": max,
                    "eps": np.float32(1.5),
                },
            )
            == "1b08d7f34ad02b7de5e1dcb449430f3759ac38f2d95b66fde61e61c57a8e3379"
        )

    def test_non_dict_mappings_still_canonicalize_as_mappings(self):
        from types import MappingProxyType

        params = {"grid": MappingProxyType({"b": 2, "a": 1})}
        assert operation_hash("op", params) == operation_hash(
            "op", {"grid": {"a": 1, "b": 2}}
        )


def _canonical_chain(value: Any) -> str:
    """``_canonical`` before its exact-type fast path, kept as the oracle."""
    if isinstance(value, Mapping):
        inner = ",".join(f"{k}={_canonical_chain(value[k])}" for k in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical_chain(v) for v in value) + "]"
    if callable(value):
        return getattr(value, "__name__", repr(type(value).__name__))
    return repr(value)


class _Params(dict):
    """A dict subclass: must take the general chain, not the fast path."""


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True)
    | st.text(max_size=8)
    | st.sampled_from([np.float64(0.5), np.int64(3), len, scorer_fn, b"raw"])
)
_PARAMS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3).map(_Params),
    max_leaves=20,
)


class TestCanonicalFastPath:
    @settings(max_examples=300, deadline=None)
    @given(_PARAMS)
    def test_equals_the_general_chain(self, value):
        assert _canonical(value) == _canonical_chain(value)

    def test_kaggle_parameters_take_the_fast_path(self):
        params = {"model": {"depth": 3, "lr": 0.1}, "y": "label", "cols": ["a", "b"]}
        assert _canonical(params) == _canonical_chain(params)


class TestOperationClasses:
    def test_data_operation_return_types(self):
        assert DataOperation("x").return_type is ArtifactType.DATASET
        agg = DataOperation("x", return_type=ArtifactType.AGGREGATE)
        assert agg.return_type is ArtifactType.AGGREGATE

    def test_data_operation_rejects_model(self):
        with pytest.raises(ValueError):
            DataOperation("x", return_type=ArtifactType.MODEL)

    def test_train_operation_returns_model(self):
        assert TrainOperation("fit").return_type is ArtifactType.MODEL

    def test_train_operation_default_not_warmstartable(self):
        assert not TrainOperation("fit").warmstartable

    def test_train_operation_default_score_is_none(self):
        assert TrainOperation("fit").score(None, None) is None

    def test_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            DataOperation("x").run(None)

    def test_warmstarted_falls_back_to_run(self):
        class Op(TrainOperation):
            def run(self, underlying_data):
                return "cold"

        assert Op("fit").run_warmstarted(None, initial_model="m") == "cold"


class TestFunctionOperation:
    def test_single_input(self):
        op = FunctionOperation(lambda v: v + 1, name="inc")
        assert op.run(41) == 42

    def test_multi_input_unpacked(self):
        op = FunctionOperation(lambda a, b: a + b, name="add")
        assert op.run([20, 22]) == 42

    def test_params_forwarded(self):
        op = FunctionOperation(lambda v, k: v * k, name="scale", params={"k": 3})
        assert op.run(5) == 15

    def test_name_defaults_to_qualname(self):
        def my_function(v):
            return v

        op = FunctionOperation(my_function)
        assert "my_function" in op.name

    def test_hash_stable_across_instances(self):
        def f(v):
            return v

        assert FunctionOperation(f).op_hash == FunctionOperation(f).op_hash
