"""Tests for the disk-backed cold tier's on-disk layout."""

import threading

import numpy as np
import pytest

from repro.dataframe import Column
from repro.storage.disk import DiskColdTier


class TestColumns:
    def test_roundtrip(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        column = Column("x", np.arange(10.0), "cid1")
        assert cold.write_column(column) == 80
        restored = cold.read_column("cid1", "renamed")
        assert restored.name == "renamed"
        assert restored.column_id == "cid1"
        assert np.array_equal(restored.values, column.values)

    def test_object_dtype_roundtrip(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        values = np.asarray(["a", "bb", None], dtype=object)
        cold.write_column(Column("s", values, "cid_s"))
        assert list(cold.read_column("cid_s", "s").values) == ["a", "bb", None]

    def test_write_is_idempotent(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        column = Column("x", np.arange(10.0), "cid1")
        assert cold.write_column(column) == 80
        assert cold.write_column(column) == 0  # already durable
        assert cold.bytes_stored == 80

    def test_delete_removes_file(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "cid1"))
        assert cold.delete_column("cid1") == 80
        assert not cold.has_column("cid1")
        assert not list((tmp_path / "columns").glob("*.npy"))

    def test_missing_read_raises(self, tmp_path):
        with pytest.raises(KeyError, match="cold tier"):
            DiskColdTier(tmp_path).read_column("nope", "x")


class TestObjects:
    def test_roundtrip(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        payload = {"weights": [1.0, 2.0]}
        assert cold.write_object("v1", payload, 100) == 100
        assert cold.read_object("v1") == payload

    def test_long_vertex_id_is_a_safe_filename(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        vertex_id = "x" * 500  # far beyond any filesystem's name limit
        cold.write_object(vertex_id, 42, 8)
        assert cold.read_object(vertex_id) == 42

    def test_delete(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_object("v1", 42, 8)
        assert cold.delete_object("v1") == 8
        assert not cold.has_object("v1")
        assert not list((tmp_path / "objects").glob("*.pkl"))


class TestManifest:
    def test_reattach(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "cid1"))
        cold.write_object("v1", 42, 8)
        cold.write_manifest({"vertices": {}})

        fresh = DiskColdTier(tmp_path)
        assert not fresh.has_column("cid1")  # not attached yet
        fresh.read_manifest()
        assert fresh.has_column("cid1")
        assert fresh.has_object("v1")
        assert fresh.bytes_stored == 88
        assert np.array_equal(fresh.read_column("cid1", "x").values, np.arange(10.0))

    def test_version_check(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_manifest({"vertices": {}})
        text = cold.manifest_path.read_text().replace(
            '"manifest_version": 1', '"manifest_version": 99'
        )
        cold.manifest_path.write_text(text)
        with pytest.raises(ValueError, match="manifest version"):
            DiskColdTier(tmp_path).read_manifest()


class TestConcurrentReads:
    def test_distinct_cold_columns_read_concurrently(self, tmp_path):
        """``np.load`` parses each header with ``ast``, whose recursion
        bookkeeping is not thread-safe on CPython 3.11; the race cannot be
        forced, so this reads many columns from several threads at once
        and wants every one back intact."""
        cold = DiskColdTier(tmp_path)
        expected = {}
        for index in range(32):
            values = np.arange(float(index), float(index) + 40)
            if index % 2:
                values = np.asarray([f"s{index}-{i}" for i in range(40)], dtype=object)
            cold.write_column(Column("x", values, f"cid{index}"))
            expected[f"cid{index}"] = values
        barrier = threading.Barrier(6)
        failures = []

        def reader(offset: int) -> None:
            barrier.wait()
            try:
                for round_ in range(20):
                    for cid in list(expected)[offset::2]:
                        column = cold.read_column(cid, f"r{round_}")
                        assert column.column_id == cid
                        assert np.array_equal(column.values, expected[cid])
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=reader, args=(i % 2,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_bytes_stored_is_a_running_sum(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "c1"))
        cold.write_object("m", np.arange(4.0))
        cold.delete_column("c1")
        cold.write_column(Column("y", np.arange(3.0), "c2"))
        assert cold.bytes_stored == 32 + 24
        cold.write_manifest({"vertices": {}})
        fresh = DiskColdTier(tmp_path)
        fresh.read_manifest()
        assert fresh.bytes_stored == cold.bytes_stored
