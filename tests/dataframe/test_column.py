"""Tests for Column and the lineage-id derivation scheme."""

import pickle

import numpy as np
import pytest

from repro.dataframe.column import (
    Column,
    combine_column_ids,
    derive_column_id,
    dtype_name,
    fresh_column_id,
)
from repro.dataframe.frame import DataFrame
from repro.eg.storage import DedupArtifactStore, SimpleArtifactStore
from repro.graph.artifacts import payload_footprint, payload_size_bytes
from repro.storage import TieredArtifactStore

from ..conftest import Counted


class TestColumnBasics:
    def test_length(self):
        column = Column("a", np.asarray([1, 2, 3]))
        assert len(column) == 3

    def test_dtype(self):
        column = Column("a", np.asarray([1.0, 2.0]))
        assert column.dtype == np.float64

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            Column("a", np.zeros((2, 2)))

    def test_fresh_id_assigned(self):
        column = Column("a", np.asarray([1]))
        assert len(column.column_id) == 32

    def test_explicit_id_preserved(self):
        column = Column("a", np.asarray([1]), column_id="abc")
        assert column.column_id == "abc"

    def test_numeric_detection(self):
        assert Column("a", np.asarray([1.5])).is_numeric
        assert not Column("a", np.asarray(["x"], dtype=object)).is_numeric

    def test_nbytes_numeric(self):
        column = Column("a", np.zeros(10, dtype=np.float64))
        assert column.nbytes == 80

    def test_nbytes_object_counts_string_payload(self):
        short = Column("a", np.asarray(["x"], dtype=object))
        long = Column("a", np.asarray(["x" * 100], dtype=object))
        assert long.nbytes > short.nbytes


class TestLineageIds:
    def test_fresh_ids_unique(self):
        assert fresh_column_id() != fresh_column_id()

    def test_derive_is_deterministic(self):
        assert derive_column_id("op1", "col1") == derive_column_id("op1", "col1")

    def test_derive_depends_on_operation(self):
        assert derive_column_id("op1", "col1") != derive_column_id("op2", "col1")

    def test_derive_depends_on_input(self):
        assert derive_column_id("op1", "col1") != derive_column_id("op1", "col2")

    def test_combine_is_order_insensitive(self):
        assert combine_column_ids("op", ["a", "b"]) == combine_column_ids("op", ["b", "a"])

    def test_combine_differs_from_single_derive(self):
        assert combine_column_ids("op", ["a"]) != derive_column_id("op", "a")

    def test_rename_preserves_id(self):
        column = Column("a", np.asarray([1]))
        assert column.rename("b").column_id == column.column_id
        assert column.rename("b").name == "b"

    def test_with_values_changes_id(self):
        column = Column("a", np.asarray([1.0]))
        transformed = column.with_values(np.asarray([2.0]), "op")
        assert transformed.column_id != column.column_id
        assert transformed.values[0] == 2.0

    def test_take_changes_id_and_subsets(self):
        column = Column("a", np.asarray([1.0, 2.0, 3.0]))
        taken = column.take(np.asarray([0, 2]), "op")
        assert list(taken.values) == [1.0, 3.0]
        assert taken.column_id != column.column_id

    def test_same_operation_chain_same_id(self):
        base = Column("a", np.asarray([1.0, 2.0]), column_id="root")
        via1 = base.with_values(np.asarray([2.0, 4.0]), "double")
        via2 = base.with_values(np.asarray([2.0, 4.0]), "double")
        assert via1.column_id == via2.column_id

    def test_copy_preserves_identity_and_values(self):
        column = Column("a", np.asarray([1.0, 2.0]))
        duplicate = column.copy()
        assert duplicate.column_id == column.column_id
        duplicate.values[0] = 99.0
        assert column.values[0] == 1.0


def counted_column(name="s", texts=("ab", "cde", "f"), column_id=None):
    values = np.empty(len(texts), dtype=object)
    values[:] = [Counted(text) for text in texts]
    return Column(name, values, column_id)


def parent_formula(values):
    """``Column.nbytes`` as written before the memo."""
    if values.dtype == object:
        return int(sum(len(str(v)) for v in values)) + values.nbytes
    return int(values.nbytes)


def is_measured(column):
    return hasattr(column, "_nbytes")


@pytest.fixture(autouse=True)
def reset_walks():
    Counted.walks = 0


class TestNbytesMemo:
    def test_object_column_is_walked_exactly_once(self, tmp_path):
        column = counted_column()
        frame = DataFrame([column, Column("x", np.arange(3.0))])
        expected = 6 + column.values.nbytes

        assert column.nbytes == expected
        assert Counted.walks == 3
        for _ in range(3):
            assert column.nbytes == expected
            assert frame.nbytes == expected + 24
            assert payload_size_bytes(frame) == expected + 24
            assert payload_footprint(frame)[0] == (column.column_id, expected)
        for store in (
            SimpleArtifactStore(),
            DedupArtifactStore(),
            TieredArtifactStore(directory=tmp_path / "cold"),
        ):
            assert store.put("v", frame) == expected + 24
            assert store.put("v", frame) == 0  # re-put compares signatures
        assert Counted.walks == 3

    def test_memo_is_lazy(self):
        assert not is_measured(counted_column())
        assert Counted.walks == 0

    @pytest.mark.parametrize(
        "same_content",
        [
            lambda column: column.rename("t"),
            lambda column: column.copy(),
            lambda column: DataFrame([column])[["s"]].column("s"),
            lambda column: pickle.loads(pickle.dumps(column)),
            lambda column: pickle.loads(pickle.dumps(DataFrame([column]))).column("s"),
        ],
        ids=["rename", "copy", "select", "pickle", "frame-pickle"],
    )
    def test_memo_follows_equal_content(self, same_content):
        column = counted_column()
        size = column.nbytes
        Counted.walks = 0
        twin = same_content(column)
        assert is_measured(twin)
        assert twin.nbytes == size
        assert Counted.walks == 0

    def test_unmeasured_stays_unmeasured_through_rename_and_copy(self):
        column = counted_column()
        assert not is_measured(column.rename("t"))
        assert not is_measured(column.copy())
        assert not is_measured(pickle.loads(pickle.dumps(column)))
        assert Counted.walks == 0

    def test_memo_is_dropped_when_content_changes(self):
        column = counted_column()
        column.nbytes
        longer = np.empty(3, dtype=object)
        longer[:] = ["four", "five5", "six666"]
        changed = column.with_values(longer, "op")
        taken = column.take(np.asarray([0, 1]), "op")
        assert not is_measured(changed) and not is_measured(taken)
        assert changed.nbytes == parent_formula(longer)
        assert taken.nbytes == 5 + taken.values.nbytes

    @pytest.mark.parametrize(
        "values",
        [
            np.asarray(["x", "yy", ""], dtype=object),
            np.asarray(["x", 12, None, 3.5], dtype=object),
            np.arange(7, dtype=np.int32),
            np.zeros(5, dtype=np.float64),
            np.asarray([True, False]),
            np.asarray([], dtype=object),
            np.asarray([], dtype=np.float64),
            np.asarray(["fixed", "width"]),
        ],
        ids=["object", "mixed", "int32", "float64", "bool", "empty-object",
             "empty-numeric", "unicode-dtype"],
    )
    def test_value_equals_the_unmemoized_formula(self, values):
        column = Column("a", values)
        assert column.nbytes == parent_formula(values)
        assert column.nbytes == parent_formula(values)
        assert type(column.nbytes) is int

    def test_pre_memo_instance_answers(self):
        """A column unpickled from a checkpoint written before the slot
        existed has the three original slots set and ``_nbytes`` unset."""
        texts = ("ab", "cde", "f")
        modern = counted_column(texts=texts, column_id="cid")
        old = Column.__new__(Column)
        old.name, old.values, old.column_id = "s", modern.values, "cid"
        assert not is_measured(old)
        assert old.nbytes == 6 + modern.values.nbytes
        assert old.rename("t").nbytes == old.nbytes
        assert Counted.walks == 3


class TestDtypeName:
    @pytest.mark.parametrize(
        "spec", ["<f8", ">f8", "<i4", ">i8", "?", "O", "<U5", "<M8[ns]", "<m8[s]", "<f4"]
    )
    def test_is_str_of_the_dtype(self, spec):
        dtype = np.dtype(spec)
        assert dtype_name(dtype) == str(dtype)
        assert dtype_name(np.dtype(spec)) == str(dtype)  # an equal, distinct object

    def test_byte_orders_and_units_stay_apart(self):
        assert dtype_name(np.dtype(">f8")) != dtype_name(np.dtype("<f8"))
        assert dtype_name(np.dtype("<M8[s]")) != dtype_name(np.dtype("<M8[ns]"))
