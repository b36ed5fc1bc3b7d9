"""Tests for the columnar DataFrame."""

import numpy as np
import pytest

from repro.dataframe import Column, DataFrame


class TestConstruction:
    def test_from_mapping(self, simple_frame):
        assert simple_frame.columns == ["a", "b", "key", "name"]
        assert simple_frame.shape == (4, 4)

    def test_from_columns(self):
        frame = DataFrame([Column("x", np.asarray([1, 2]))])
        assert frame.columns == ["x"]

    def test_empty(self):
        frame = DataFrame()
        assert frame.shape == (0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            DataFrame({"a": [1, 2], "b": [1]})

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DataFrame([Column("x", np.asarray([1])), Column("x", np.asarray([2]))])

    def test_non_column_sequence_rejected(self):
        with pytest.raises(TypeError):
            DataFrame([np.asarray([1, 2])])

    def test_nbytes_positive(self, simple_frame):
        assert simple_frame.nbytes > 0


class TestAccess:
    def test_getitem_single(self, simple_frame):
        projected = simple_frame["a"]
        assert projected.columns == ["a"]

    def test_getitem_list(self, simple_frame):
        projected = simple_frame[["a", "b"]]
        assert projected.columns == ["a", "b"]

    def test_missing_column_raises(self, simple_frame):
        with pytest.raises(KeyError, match="nope"):
            simple_frame.column("nope")

    def test_contains(self, simple_frame):
        assert "a" in simple_frame
        assert "zz" not in simple_frame

    def test_values(self, simple_frame):
        assert list(simple_frame.values("a")) == [1.0, 2.0, 3.0, 4.0]

    def test_to_numpy(self, simple_frame):
        matrix = simple_frame[["a", "b"]].to_numpy()
        assert matrix.shape == (4, 2)

    def test_to_numpy_rejects_object(self, simple_frame):
        with pytest.raises(TypeError, match="not numeric"):
            simple_frame.to_numpy()

    def test_head(self, simple_frame):
        assert simple_frame.head(2).num_rows == 2

    def test_equality(self, simple_frame):
        other = simple_frame.select(simple_frame.columns)
        assert simple_frame == other

    def test_inequality_on_values(self):
        a = DataFrame({"x": [1.0]})
        b = DataFrame({"x": [2.0]})
        assert a != b


class TestProjectionLineage:
    def test_select_preserves_ids(self, simple_frame):
        ids_before = simple_frame.column_ids
        projected = simple_frame.select(["a", "b"])
        assert projected.column_ids["a"] == ids_before["a"]

    def test_drop(self, simple_frame):
        remaining = simple_frame.drop(["name"])
        assert "name" not in remaining
        assert remaining.column_ids["a"] == simple_frame.column_ids["a"]

    def test_drop_string_arg(self, simple_frame):
        assert "name" not in simple_frame.drop("name")

    def test_drop_missing_raises(self, simple_frame):
        with pytest.raises(KeyError):
            simple_frame.drop(["zz"])

    def test_with_column_replaces(self, simple_frame):
        out = simple_frame.with_column("a", np.asarray([9.0, 9.0, 9.0, 9.0]))
        assert list(out.values("a")) == [9.0] * 4
        assert out.column_ids["b"] == simple_frame.column_ids["b"]

    def test_with_column_length_checked(self, simple_frame):
        with pytest.raises(ValueError, match="length"):
            simple_frame.with_column("z", np.asarray([1.0]))

    def test_assign_derives_combined_id(self, simple_frame):
        out1 = simple_frame.assign("s", lambda f: f.values("a") + f.values("b"), "h1")
        out2 = simple_frame.assign("s", lambda f: f.values("a") + f.values("b"), "h1")
        assert out1.column_ids["s"] == out2.column_ids["s"]
        assert list(out1.values("s")) == [11.0, 22.0, 33.0, 44.0]


class TestRowOperations:
    def test_map_column_only_changes_target_id(self, simple_frame):
        out = simple_frame.map_column("a", lambda v: v * 2, "h")
        assert out.column_ids["a"] != simple_frame.column_ids["a"]
        assert out.column_ids["b"] == simple_frame.column_ids["b"]


class TestFillNA:
    @pytest.fixture
    def frame_with_nan(self):
        return DataFrame({"a": [1.0, np.nan, 3.0], "b": [1.0, 2.0, 3.0]})

    def test_fill_constant(self, frame_with_nan):
        out = frame_with_nan.fillna(value=0.0)
        assert list(out.values("a")) == [1.0, 0.0, 3.0]

    def test_fill_mean(self, frame_with_nan):
        out = frame_with_nan.fillna(strategy="mean")
        assert out.values("a")[1] == pytest.approx(2.0)

    def test_fill_median(self, frame_with_nan):
        out = frame_with_nan.fillna(strategy="median")
        assert out.values("a")[1] == pytest.approx(2.0)

    def test_fill_zero(self, frame_with_nan):
        out = frame_with_nan.fillna(strategy="zero")
        assert out.values("a")[1] == 0.0

    def test_unaffected_column_keeps_id(self, frame_with_nan):
        out = frame_with_nan.fillna(strategy="mean")
        assert out.column_ids["b"] == frame_with_nan.column_ids["b"]
        assert out.column_ids["a"] != frame_with_nan.column_ids["a"]

    def test_requires_exactly_one_mode(self, frame_with_nan):
        with pytest.raises(ValueError):
            frame_with_nan.fillna()
        with pytest.raises(ValueError):
            frame_with_nan.fillna(value=1.0, strategy="mean")

    def test_unknown_strategy(self, frame_with_nan):
        with pytest.raises(ValueError, match="unknown"):
            frame_with_nan.fillna(strategy="mode")

    def test_column_subset(self, frame_with_nan):
        out = frame_with_nan.fillna(strategy="zero", columns=["b"])
        assert np.isnan(out.values("a")[1])


class TestConcat:
    def test_concat_rows(self):
        a = DataFrame({"x": [1.0], "y": [2.0]})
        b = DataFrame({"x": [3.0], "y": [4.0]})
        tall = DataFrame.concat_rows([a, b])
        assert tall.num_rows == 2
        assert list(tall.values("x")) == [1.0, 3.0]

    def test_concat_rows_schema_mismatch(self):
        a = DataFrame({"x": [1.0]})
        b = DataFrame({"y": [1.0]})
        with pytest.raises(ValueError, match="columns"):
            DataFrame.concat_rows([a, b])

    def test_concat_rows_empty(self):
        assert DataFrame.concat_rows([]).num_rows == 0

    def test_concat_rows_deterministic_ids(self):
        a = DataFrame({"x": Column("x", np.asarray([1.0]), "ida")})
        b = DataFrame({"x": Column("x", np.asarray([2.0]), "idb")})
        t1 = DataFrame.concat_rows([a, b], operation_hash="h")
        t2 = DataFrame.concat_rows([a, b], operation_hash="h")
        assert t1.column_ids == t2.column_ids


class TestMerge:
    @pytest.fixture
    def left(self):
        return DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, 30.0]})

    @pytest.fixture
    def right(self):
        return DataFrame({"k": [2, 3, 4], "w": [200.0, 300.0, 400.0]})

    def test_inner(self, left, right):
        joined = left.merge(right, on="k")
        assert joined.num_rows == 2
        assert list(joined.values("k")) == [2, 3]
        assert list(joined.values("w")) == [200.0, 300.0]

    def test_left(self, left, right):
        joined = left.merge(right, on="k", how="left")
        assert joined.num_rows == 3
        assert np.isnan(joined.values("w")[0])

    def test_one_to_many(self):
        left = DataFrame({"k": [1], "v": [10.0]})
        right = DataFrame({"k": [1, 1], "w": [1.0, 2.0]})
        joined = left.merge(right, on="k")
        assert joined.num_rows == 2

    def test_suffixes(self):
        left = DataFrame({"k": [1], "v": [1.0]})
        right = DataFrame({"k": [1], "v": [2.0]})
        joined = left.merge(right, on="k")
        assert set(joined.columns) == {"k", "v_x", "v_y"}

    def test_unsupported_how(self, left, right):
        with pytest.raises(ValueError, match="join type"):
            left.merge(right, on="k", how="outer")

    def test_deterministic_ids(self, left, right):
        j1 = left.merge(right, on="k", operation_hash="h")
        j2 = left.merge(right, on="k", operation_hash="h")
        assert j1.column_ids == j2.column_ids


class TestGroupBy:
    def test_sum_and_mean(self, simple_frame):
        grouped = simple_frame.groupby_agg("key", {"a": ["sum", "mean"]})
        assert grouped.columns == ["key", "a_sum", "a_mean"]
        assert list(grouped.values("a_sum")) == [3.0, 7.0]
        assert list(grouped.values("a_mean")) == [1.5, 3.5]

    def test_count(self, simple_frame):
        grouped = simple_frame.groupby_agg("key", {"a": "count"})
        assert list(grouped.values("a_count")) == [2, 2]

    def test_min_max(self, simple_frame):
        grouped = simple_frame.groupby_agg("key", {"b": ["min", "max"]})
        assert list(grouped.values("b_min")) == [10.0, 30.0]
        assert list(grouped.values("b_max")) == [20.0, 40.0]

    def test_nunique(self, simple_frame):
        grouped = simple_frame.groupby_agg("key", {"name": "nunique"})
        assert list(grouped.values("name_nunique")) == [2, 2]

    def test_std_single_element_is_zero(self):
        frame = DataFrame({"k": [1, 2], "v": [1.0, 5.0]})
        grouped = frame.groupby_agg("k", {"v": "std"})
        assert list(grouped.values("v_std")) == [0.0, 0.0]

    def test_unknown_aggregation(self, simple_frame):
        with pytest.raises(ValueError, match="unknown aggregation"):
            simple_frame.groupby_agg("key", {"a": "magic"})

    def test_multi_key_groups(self, simple_frame):
        grouped = simple_frame.groupby_agg(["key", "name"], {"a": "sum"})
        assert grouped.columns == ["key", "name", "a_sum"]
        rows = {
            (k, n): s
            for k, n, s in zip(
                grouped.values("key"), grouped.values("name"), grouped.values("a_sum")
            )
        }
        assert rows == {(1, "x"): 1.0, (1, "y"): 2.0, (2, "x"): 3.0, (2, "z"): 4.0}

    def test_multi_key_deterministic_order(self, simple_frame):
        a = simple_frame.groupby_agg(["key", "name"], {"a": "sum"}, operation_hash="h")
        b = simple_frame.groupby_agg(["key", "name"], {"a": "sum"}, operation_hash="h")
        assert a == b
        assert a.column_ids == b.column_ids

    def test_multi_key_single_entry_matches_single_key(self, simple_frame):
        single = simple_frame.groupby_agg("key", {"a": "sum"}, operation_hash="h")
        listed = simple_frame.groupby_agg(["key"], {"a": "sum"}, operation_hash="h")
        assert list(single.values("a_sum")) == list(listed.values("a_sum"))

    def test_groupby_empty_keys_rejected(self, simple_frame):
        with pytest.raises(ValueError, match="at least one"):
            simple_frame.groupby_agg([], {"a": "sum"})


class TestOneHotAndAlign:
    def test_one_hot_expands(self, simple_frame):
        out = simple_frame.one_hot("name")
        assert "name" not in out
        assert {"name_x", "name_y", "name_z"} <= set(out.columns)

    def test_one_hot_values(self, simple_frame):
        out = simple_frame.one_hot("name")
        assert list(out.values("name_x")) == [1, 0, 1, 0]

    def test_one_hot_preserves_other_ids(self, simple_frame):
        out = simple_frame.one_hot("name")
        assert out.column_ids["a"] == simple_frame.column_ids["a"]

    def test_align_keeps_intersection(self):
        left = DataFrame({"a": [1.0], "b": [2.0]})
        right = DataFrame({"b": [3.0], "c": [4.0]})
        aligned_left, aligned_right = DataFrame.align(left, right)
        assert aligned_left.columns == ["b"]
        assert aligned_right.columns == ["b"]

    def test_align_preserves_ids(self):
        left = DataFrame({"a": [1.0], "b": [2.0]})
        right = DataFrame({"b": [3.0]})
        aligned_left, _ = DataFrame.align(left, right)
        assert aligned_left.column_ids["b"] == left.column_ids["b"]

    def test_describe_numeric_only(self, simple_frame):
        summary = simple_frame.describe()
        assert "a" in summary and "name" not in summary
        assert summary["a"]["mean"] == pytest.approx(2.5)
