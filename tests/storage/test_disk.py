"""Tests for the disk-backed cold tier's on-disk layout."""

import json
import os
import pickle
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.dataframe import Column
from repro.graph.artifacts import payload_size_bytes
from repro.storage import disk
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
        # the record's bytes are dead until a compaction reclaims them
        (log,) = tmp_path.glob("*.log")
        assert log.stat().st_size == 80
        cold._compact()
        (log,) = tmp_path.glob("*.log")
        assert log.stat().st_size == 0

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
        (log,) = tmp_path.glob("*.log")
        assert log.stat().st_size == len(pickle.dumps(42, pickle.HIGHEST_PROTOCOL))
        cold._compact()
        (log,) = tmp_path.glob("*.log")
        assert log.stat().st_size == 0


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
            '"manifest_version": 2', '"manifest_version": 99'
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


class TestManifestFile:
    def test_version_1_layout_is_refused(self, tmp_path):
        # the file-per-column layout's manifest: sizes, no locations
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "manifest_version": 1,
                    "vertices": {},
                    "columns": {"cid1": {"nbytes": 80}},
                    "objects": {},
                }
            )
        )
        with pytest.raises(ValueError, match="manifest version 1"):
            DiskColdTier(tmp_path).read_manifest()

    def test_a_torn_write_leaves_the_previous_manifest(self, tmp_path, monkeypatch):
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "c1"))
        cold.write_manifest({"vertices": {}})
        cold.write_column(Column("y", np.arange(3.0), "c2"))

        def torn(path, text):
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", torn)
            with pytest.raises(OSError, match="no space"):
                cold.write_manifest({"vertices": {}})
        fresh = DiskColdTier(tmp_path)
        fresh.read_manifest()
        assert fresh.has_column("c1") and not fresh.has_column("c2")
        assert np.array_equal(fresh.read_column("c1", "x").values, np.arange(10.0))

    def test_a_manifest_survives_a_later_compaction(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk, "_COMPACT_FLOOR_BYTES", 0)
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "c1"))
        cold.write_column(Column("y", np.arange(20.0), "c2"))
        cold.write_manifest({"vertices": {}})
        cold.delete_column("c2")  # 160 dead bytes against 80 live: compacts
        assert len(list(tmp_path.glob("*.log"))) == 2

        # the manifest on disk still names the log it was written against
        fresh = DiskColdTier(tmp_path)
        fresh.read_manifest()
        assert np.array_equal(fresh.read_column("c2", "y").values, np.arange(20.0))
        # the next manifest names the compacted log and drops the old one
        cold.write_manifest({"vertices": {}})
        (log,) = tmp_path.glob("*.log")
        assert log.stat().st_size == 80
        reopened = DiskColdTier(tmp_path)
        reopened.read_manifest()
        assert not reopened.has_column("c2")
        assert np.array_equal(reopened.read_column("c1", "x").values, np.arange(10.0))

    def test_a_second_save_into_a_directory_leaves_one_log(self, tmp_path):
        for _round in range(3):
            cold = DiskColdTier(tmp_path)
            cold.write_column(Column("x", np.arange(10.0), "c1"))
            cold.write_manifest({"vertices": {}})
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [".json", ".log"]


class TestCompaction:
    def test_dead_bytes_past_live_and_floor_compact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk, "_COMPACT_FLOOR_BYTES", 1000)
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("k", np.arange(100.0), "keep"))  # 800 B
        for index in range(3):
            cold.write_column(Column("d", np.arange(100.0) + index, f"dead{index}"))
        (first,) = tmp_path.glob("*.log")
        cold.delete_column("dead0")  # 800 dead: under the floor
        cold.delete_column("dead1")  # 1 600 dead, 1 600 live: not past live
        assert first.exists() and first.stat().st_size == 3200
        cold.delete_column("dead2")  # 2 400 dead against 800 live
        (log,) = tmp_path.glob("*.log")
        assert log != first and log.stat().st_size == 800
        assert np.array_equal(cold.read_column("keep", "k").values, np.arange(100.0))

    def test_a_read_looked_up_before_a_compaction_returns_its_bytes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(disk, "_COMPACT_FLOOR_BYTES", 0)
        cold = DiskColdTier(tmp_path)
        kept = np.arange(50.0)
        cold.write_column(Column("k", kept, "keep"))
        cold.write_column(Column("d", np.arange(100.0), "dead"))
        (old_log,) = tmp_path.glob("*.log")
        looked_up, release = threading.Event(), threading.Event()
        preadv = os.preadv

        def paused(fd, buffers, offset):
            looked_up.set()
            release.wait(5)
            return preadv(fd, buffers, offset)

        result = {}
        monkeypatch.setattr(os, "preadv", paused)
        reader = threading.Thread(
            target=lambda: result.update(column=cold.read_column("keep", "k"))
        )
        reader.start()
        assert looked_up.wait(5)
        cold.delete_column("dead")  # compacts under the paused reader
        assert not old_log.exists()
        release.set()
        reader.join(5)
        monkeypatch.setattr(os, "preadv", preadv)
        assert np.array_equal(result["column"].values, kept)
        assert np.array_equal(cold.read_column("keep", "k").values, kept)

    def test_reads_stay_intact_under_repeated_compactions(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk, "_COMPACT_FLOOR_BYTES", 0)
        cold = DiskColdTier(tmp_path)
        stable = {f"s{i}": np.arange(float(i), float(i) + 30) for i in range(8)}
        stable["s_text"] = np.asarray([f"t{i}" for i in range(30)], dtype=object)
        for cid, values in stable.items():
            cold.write_column(Column("x", values, cid))
        stop = threading.Event()
        failures = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    for cid, values in stable.items():
                        restored = cold.read_column(cid, "x").values
                        assert np.array_equal(restored, values)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader) for _ in range(4)]
        compactions = 0
        try:
            for thread in threads:
                thread.start()
            for round_ in range(150):
                before = cold._log
                transient = [f"t{round_}-{i}" for i in range(3)]
                for cid in transient:
                    cold.write_column(Column("t", np.arange(100.0) + round_, cid))
                for cid in transient:  # 2 400 dead bytes > the live ones
                    cold.delete_column(cid)
                compactions += cold._log is not before
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert compactions == 150
        assert len(list(tmp_path.glob("*.log"))) == 1

    def test_a_read_returns_an_array_the_caller_owns(self, tmp_path):
        cold = DiskColdTier(tmp_path)
        cold.write_column(Column("x", np.arange(10.0), "c1"))
        values = cold.read_column("c1", "x").values
        values[0] = 99.0  # writable, and no other read sees it
        assert cold.read_column("c1", "x").values[0] == 0.0


def _column_values(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "float":
        return rng.normal(size=int(rng.integers(1, 40)))
    if kind == "int8":
        return rng.integers(-100, 100, size=int(rng.integers(1, 40))).astype(np.int8)
    if kind == "object":
        values = [f"s{seed}-{i}" for i in range(int(rng.integers(1, 12)))]
        values[0] = None
        return np.asarray(values, dtype=object)
    return np.zeros(0)


_LOG_FLOOR = 64


class LogMachine(RuleBasedStateMachine):
    """The cold tier against a dict model, through writes, deletes,
    compactions and reopens; every record is checked after each step."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="cold-oracle-"))
        self.cold = DiskColdTier(self.directory)
        #: lineage id / vertex id -> (content, logical bytes, log bytes)
        self.columns: dict[str, tuple[np.ndarray, int, int]] = {}
        self.objects: dict[str, tuple[object, int, int]] = {}

    ids = st.sampled_from([f"id{index}" for index in range(6)])

    @rule(
        cid=ids,
        kind=st.sampled_from(["float", "int8", "object", "empty"]),
        seed=st.integers(0, 10_000),
    )
    def write_column(self, cid, kind, seed):
        column = Column("c", _column_values(kind, seed), cid)
        written = self.cold.write_column(column)
        if cid in self.columns:
            assert written == 0
            return
        assert written == column.nbytes
        values = column.values
        length = (
            len(pickle.dumps(values, pickle.HIGHEST_PROTOCOL))
            if values.dtype == object
            else values.nbytes
        )
        self.columns[cid] = (values, column.nbytes, length)

    @rule(vid=ids, seed=st.integers(0, 10_000), sized=st.booleans())
    def write_object(self, vid, seed, sized):
        payload = {"seed": seed, "weights": list(np.arange(seed % 7, dtype=float))}
        size = 40 + seed if sized else None
        written = self.cold.write_object(vid, payload, size)
        if vid in self.objects:
            assert written == 0
            return
        expected = size if sized else payload_size_bytes(payload)
        assert written == expected
        length = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        self.objects[vid] = (payload, expected, length)

    @rule(cid=ids)
    def delete_column(self, cid):
        entry = self.columns.pop(cid, None)
        assert self.cold.delete_column(cid) == (0 if entry is None else entry[1])

    @rule(vid=ids)
    def delete_object(self, vid):
        entry = self.objects.pop(vid, None)
        assert self.cold.delete_object(vid) == (0 if entry is None else entry[1])

    @rule()
    def compact(self):
        self.cold._compact()

    @rule()
    def reopen(self):
        self.cold.write_manifest({"vertices": {}})
        self.cold = DiskColdTier(self.directory)
        self.cold.read_manifest()

    @invariant()
    def every_record_reads_back(self):
        for cid, (values, _nbytes, _length) in self.columns.items():
            restored = self.cold.read_column(cid, "r").values
            assert restored.dtype == values.dtype
            assert restored.shape == values.shape
            if values.dtype == object:
                assert list(restored) == list(values)
            else:
                assert restored.tobytes() == values.tobytes()
        for vid, (payload, _nbytes, _length) in self.objects.items():
            assert self.cold.read_object(vid) == payload

    @invariant()
    def index_and_sizes_match(self):
        for key in [f"id{index}" for index in range(6)]:
            assert self.cold.has_column(key) == (key in self.columns)
            assert self.cold.has_object(key) == (key in self.objects)
        records = [*self.columns.values(), *self.objects.values()]
        assert self.cold.bytes_stored == sum(nbytes for _, nbytes, _ in records)
        live = sum(length for _, _, length in records)
        logs = list(self.directory.glob("*.log"))
        assert len(logs) <= 2
        current = self.cold._log
        size = 0 if current is None else current.path.stat().st_size
        assert size <= 2 * live + _LOG_FLOOR

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


def test_log_against_a_dict_model(monkeypatch):
    monkeypatch.setattr(disk, "_COMPACT_FLOOR_BYTES", _LOG_FLOOR)
    run_state_machine_as_test(
        LogMachine,
        settings=settings(
            max_examples=60,
            stateful_step_count=40,
            derandomize=True,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
