"""Tests for the tiered artifact store: contract, movement, persistence."""

import numpy as np
import pytest

from repro.dataframe import Column, DataFrame
from repro.eg.storage import ArtifactDivergenceError, DedupArtifactStore, StorageTier
from repro.storage import TieredArtifactStore


def frame_with_ids(spec: dict[str, tuple[str, int]]) -> DataFrame:
    """Build a frame from {name: (column_id, n_values)}."""
    columns = [
        Column(name, np.zeros(n), column_id) for name, (column_id, n) in spec.items()
    ]
    return DataFrame(columns)


class TestContract:
    """The tiered store honours the ArtifactStore contract byte-for-byte
    like DedupArtifactStore — tier placement never changes the accounting."""

    def test_put_get_roundtrip(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        frame = frame_with_ids({"x": ("c1", 10), "y": ("c2", 10)})
        store.put("v", frame)
        assert store.get("v") == frame

    def test_shared_column_stored_once(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        a = frame_with_ids({"x": ("shared", 100), "y": ("only_a", 100)})
        b = frame_with_ids({"x": ("shared", 100), "z": ("only_b", 100)})
        assert store.put("a", a) == 1600
        assert store.put("b", b) == 800  # 'shared' not charged again
        assert store.total_bytes == 2400
        assert store.logical_bytes == 3200

    def test_rename_reuses_column(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("c1", 100)}))
        assert store.put("b", frame_with_ids({"renamed": ("c1", 100)})) == 0
        assert store.get("b").columns == ["renamed"]

    def test_refcounted_removal(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("shared", 100)}))
        store.put("b", frame_with_ids({"x": ("shared", 100)}))
        assert store.remove("a") == 0  # still referenced by b
        assert store.remove("b") == 800
        assert store.total_bytes == 0
        assert store.hot_bytes == 0

    def test_non_frame_payloads(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        assert store.put("m", np.zeros(10)) == 80
        assert np.array_equal(store.get("m"), np.zeros(10))
        assert store.remove("m") == 80

    def test_missing_get_raises(self, tmp_path):
        with pytest.raises(KeyError, match="not materialized"):
            TieredArtifactStore(directory=tmp_path).get("nope")

    def test_contains_and_ids(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v1", 1)
        assert "v1" in store
        assert store.vertex_ids == {"v1"}

    def test_accounting_matches_dedup_store(self, tmp_path):
        tiered = TieredArtifactStore(hot_budget_bytes=900, directory=tmp_path)
        dedup = DedupArtifactStore()
        frames = [
            ("a", frame_with_ids({"x": ("shared", 100), "y": ("a1", 100)})),
            ("b", frame_with_ids({"x": ("shared", 100), "z": ("b1", 100)})),
            ("m", np.zeros(30)),
        ]
        for vertex_id, payload in frames:
            assert tiered.put(vertex_id, payload) == dedup.put(vertex_id, payload)
        assert tiered.total_bytes == dedup.total_bytes


class TestDivergence:
    def test_identical_reput_is_a_noop(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        assert store.put("v", frame_with_ids({"x": ("c1", 10)})) == 0

    def test_divergent_frame_raises(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        with pytest.raises(ArtifactDivergenceError, match="different columns"):
            store.put("v", frame_with_ids({"x": ("c2", 10), "y": ("c3", 10)}))

    def test_divergent_kind_raises(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        with pytest.raises(ArtifactDivergenceError):
            store.put("v", np.zeros(10))


class TestEvictionAndPromotion:
    def test_lru_demotion_under_budget(self, tmp_path):
        # budget fits one of the two 800-byte frames; the older one demotes
        store = TieredArtifactStore(hot_budget_bytes=1000, directory=tmp_path)
        store.put("old", frame_with_ids({"x": ("c_old", 100)}))
        store.put("new", frame_with_ids({"x": ("c_new", 100)}))
        assert store.tier_of("old") is StorageTier.COLD
        assert store.tier_of("new") is StorageTier.HOT
        assert store.hot_bytes == 800
        assert store.stats.demotions == 1
        assert store.stats.bytes_demoted == 800

    def test_get_refreshes_lru_order(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=1700, directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("ca", 100)}))
        store.put("b", frame_with_ids({"x": ("cb", 100)}))
        store.get("a")  # touch a so b is now least recently used
        store.put("c", frame_with_ids({"x": ("cc", 100)}))
        assert store.tier_of("b") is StorageTier.COLD
        assert store.tier_of("a") is StorageTier.HOT

    def test_skewed_trace_under_lru_is_pinned(self, tmp_path):
        """Zipf-head reads polluted by bursts of one-shot scan artifacts.

        Seeded and clock-free, so the counters are machine-independent:
        they are what plain LRU does on this trace, and any change to
        victim choice moves them.
        """
        slot = 256 * 8  # bytes per single-column artifact
        store = TieredArtifactStore(hot_budget_bytes=16 * slot, directory=tmp_path)
        heads = 6
        for h in range(heads):
            store.put(f"head{h}", frame_with_ids({"x": (f"head-col{h}", 256)}))
        rng = np.random.default_rng(11)
        scans = 0
        for _ in range(40):
            for _ in range(4):
                store.get(f"head{min(int(rng.zipf(1.6)) - 1, heads - 1)}")
            for _ in range(4):
                vertex = f"scan{scans}"
                scans += 1
                store.put(vertex, frame_with_ids({"x": (f"scan-col{vertex}", 256)}))
                store.get(vertex)
        stats = store.stats
        assert (stats.hot_hits, stats.cold_hits) == (304, 16)
        assert (stats.promotions, stats.demotions) == (16, 166)
        assert stats.bytes_demoted == 151 * slot
        assert store.hot_bytes == 16 * slot
        hot = {v for v, tier in store.tiers().items() if tier is StorageTier.HOT}
        assert hot == {"head0", "head5"} | {f"scan{i}" for i in range(146, 160)}

    def test_cold_get_is_byte_identical_and_promotes(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=1000, directory=tmp_path)
        values = np.arange(100.0)
        original = DataFrame([Column("x", values, "c_old")])
        store.put("old", original)
        store.put("new", frame_with_ids({"x": ("c_new", 100)}))
        assert store.tier_of("old") is StorageTier.COLD

        restored = store.get("old")
        assert np.array_equal(restored.column("x").values, values)
        assert restored == original
        assert store.stats.cold_hits == 1
        assert store.stats.promotions == 1
        assert store.stats.load_seconds > 0
        # promotion made 'old' hot and pushed 'new' out
        assert store.tier_of("old") is StorageTier.HOT
        assert store.tier_of("new") is StorageTier.COLD

    def test_oversized_artifact_demotes_immediately(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=100, directory=tmp_path)
        store.put("big", frame_with_ids({"x": ("c1", 1000)}))
        assert store.tier_of("big") is StorageTier.COLD
        assert store.hot_bytes == 0
        # every access is a cold hit: the artifact cannot stay resident
        store.get("big")
        assert store.stats.cold_hits == 1
        assert store.tier_of("big") is StorageTier.COLD

    def test_shared_column_durable_on_disk_once(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("shared", 100), "y": ("a1", 100)}))
        store.put("b", frame_with_ids({"x": ("shared", 100), "z": ("b1", 100)}))
        store.demote("a")
        store.demote("b")
        column_files = list((tmp_path / "columns").glob("*.npy"))
        assert len(column_files) == 3  # shared, a1, b1 — not 4
        assert store.cold_bytes == 2400

    def test_shared_column_stays_hot_while_referenced(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("shared", 100)}))
        store.put("b", frame_with_ids({"x": ("shared", 100)}))
        store.demote("a")
        # b still holds the column in RAM; a's demotion wrote it to disk
        # without evicting b's copy
        assert store.hot_bytes == 800
        assert store.tier_of("b") is StorageTier.HOT
        store.demote("b")
        assert store.hot_bytes == 0

    def test_remove_cold_vertex_deletes_files(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=0, directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        assert store.tier_of("v") is StorageTier.COLD
        assert store.remove("v") == 800
        assert not list((tmp_path / "columns").glob("*.npy"))
        assert store.total_bytes == 0

    def test_object_demotion_roundtrip(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=50, directory=tmp_path)
        store.put("m", np.arange(100.0))
        assert store.tier_of("m") is StorageTier.COLD
        assert np.array_equal(store.get("m"), np.arange(100.0))

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            TieredArtifactStore(hot_budget_bytes=-1, directory=tmp_path)


class TestStatistics:
    def test_snapshot_fields(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=1000, directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("ca", 100)}))
        store.put("b", frame_with_ids({"x": ("cb", 100)}))
        store.get("b")
        store.get("a")  # cold hit
        stats = store.statistics()
        assert stats["store_type"] == "TieredArtifactStore"
        assert stats["vertices"] == 2
        assert stats["hot_vertices"] == 1
        assert stats["cold_vertices"] == 1
        assert stats["hot_hits"] == 1
        assert stats["cold_hits"] == 1
        assert stats["demotions"] == 2  # initial eviction + promotion swap
        assert stats["promotions"] == 1
        assert stats["hit_ratio"] == 0.5
        assert stats["hot_bytes"] == 800
        assert stats["cold_bytes"] > 0

    def test_idle_hit_ratio_is_one(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        assert store.statistics()["hit_ratio"] == 1.0


class TestFlushAndOpen:
    def test_flush_reopen_roundtrip(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=2000, directory=tmp_path)
        frame = DataFrame([Column("x", np.arange(50.0), "c1")])
        store.put("f", frame)
        store.put("m", {"weights": [1, 2, 3]})
        store.flush()

        reopened = TieredArtifactStore.open(tmp_path)
        assert reopened.vertex_ids == {"f", "m"}
        assert reopened.hot_budget_bytes == 2000
        assert reopened.hot_bytes == 0  # lazy: nothing read yet
        assert all(
            reopened.tier_of(v) is StorageTier.COLD for v in reopened.vertex_ids
        )
        assert reopened.total_bytes == store.total_bytes
        assert reopened.get("f") == frame
        assert reopened.get("m") == {"weights": [1, 2, 3]}

    def test_flush_is_write_through(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        store.flush()
        assert store.tier_of("v") is StorageTier.HOT  # not demoted
        assert store.cold_bytes == 800  # but durable

    def test_flush_to_other_directory_copies(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=0, directory=tmp_path / "live")
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        target = store.flush(tmp_path / "snapshot")
        reopened = TieredArtifactStore.open(target)
        assert reopened.get("v") == store.get("v")

    def test_open_budget_override(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=2000, directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        store.flush()
        reopened = TieredArtifactStore.open(tmp_path, hot_budget_bytes=None)
        assert reopened.hot_budget_bytes is None

    def test_temp_directory_cleanup(self):
        store = TieredArtifactStore(hot_budget_bytes=0)
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        directory = store.directory
        assert directory.exists()
        del store
        import gc

        gc.collect()
        assert not directory.exists()


def recomputed_totals(store: TieredArtifactStore) -> tuple[int, int]:
    """(total_bytes, logical_bytes) summed from the per-id records, the way
    both properties were computed before they became running sums."""
    total = sum(store._column_sizes.values()) + sum(store._object_sizes.values())
    logical = sum(store._object_sizes.values())
    for layout in store._layouts.values():
        for _name, cid in layout:
            logical += store._column_sizes[cid]
    return total, logical


class TestRunningByteTotals:
    def check(self, store: TieredArtifactStore) -> None:
        assert (store.total_bytes, store.logical_bytes) == recomputed_totals(store)
        stats = store.statistics()
        assert (stats["total_bytes"], stats["logical_bytes"]) == recomputed_totals(store)

    def test_totals_track_every_mutation(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=2000, directory=tmp_path)
        self.check(store)
        strings = DataFrame(
            [
                Column("s", np.asarray(["ab", "cde", ""], dtype=object), "str"),
                Column("x", np.zeros(3), "num"),
            ]
        )
        steps = [
            lambda: store.put("a", frame_with_ids({"x": ("shared", 100), "y": ("a", 100)})),
            lambda: store.put("b", frame_with_ids({"z": ("shared", 100), "w": ("b", 100)})),
            lambda: store.put("a", frame_with_ids({"x": ("shared", 100), "y": ("a", 100)})),
            lambda: store.put("m", {"weights": [1, 2, 3]}),
            lambda: store.put("s", strings),
            lambda: store.put("c", frame_with_ids({"q": ("c", 100)})),  # evicts
            lambda: store.get("a"),  # promote, demoting others
            lambda: store.demote("a"),
            lambda: store.get("m"),
            lambda: store.remove("b"),  # 'shared' survives through a
            lambda: store.remove("m"),
            lambda: store.remove("missing"),
            lambda: store.remove("a"),
        ]
        for step in steps:
            step()
            self.check(store)
        assert store.stats.demotions > 0 and store.stats.promotions > 0
        assert store.total_bytes == strings.nbytes + 800

        store.flush()
        reopened = TieredArtifactStore.open(tmp_path)
        self.check(reopened)
        assert reopened.total_bytes == store.total_bytes
        assert reopened.logical_bytes == store.logical_bytes
        reopened.get("s")
        reopened.remove("c")
        self.check(reopened)
        for vertex_id in list(reopened.vertex_ids):
            reopened.remove(vertex_id)
        assert (reopened.total_bytes, reopened.logical_bytes) == (0, 0)

    def test_totals_equal_the_dedup_store(self, tmp_path):
        tiered = TieredArtifactStore(hot_budget_bytes=500, directory=tmp_path)
        dedup = DedupArtifactStore()
        for store in (tiered, dedup):
            store.put("a", frame_with_ids({"x": ("shared", 100), "y": ("a", 100)}))
            store.put("b", frame_with_ids({"x": ("shared", 100)}))
            store.put("m", [1.0, 2.0])
            store.remove("a")
        assert tiered.total_bytes == dedup.total_bytes


class TestRewarm:
    """A ``put`` of a held cold vertex promotes it from the payload in hand."""

    @staticmethod
    def _no_disk_reads(store, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a re-warm must not read the cold tier")

        monkeypatch.setattr(store._cold, "read_column", refuse)
        monkeypatch.setattr(store._cold, "read_object", refuse)

    def test_frame_rewarms_under_the_stored_lineage_ids(self, tmp_path, monkeypatch):
        store = TieredArtifactStore(directory=tmp_path)
        stored = frame_with_ids({"x": ("c1", 10), "y": ("c2", 10)})
        store.put("v", stored)
        store.demote("v")
        self._no_disk_reads(store, monkeypatch)
        # a rerun rebuilds equal content under fresh lineage ids
        rerun = DataFrame(
            [Column("x", np.zeros(10), "fresh1"), Column("y", np.zeros(10), "fresh2")]
        )
        assert store.put("v", rerun) == 0
        assert store.tier_of("v") is StorageTier.HOT
        assert store.hot_bytes == 160
        assert (store.stats.rewarms, store.stats.promotions) == (1, 1)
        got = store.get("v")
        assert [got.column(n).column_id for n in got.columns] == ["c1", "c2"]
        assert store.stats.cold_hits == 0

    def test_object_rewarms(self, tmp_path, monkeypatch):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("m", np.arange(10.0))
        store.demote("m")
        self._no_disk_reads(store, monkeypatch)
        assert store.put("m", np.arange(10.0)) == 0
        assert store.tier_of("m") is StorageTier.HOT
        assert store.hot_bytes == 80
        assert np.array_equal(store.get("m"), np.arange(10.0))

    def test_shared_hot_column_is_not_charged_twice(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("shared", 100), "y": ("a1", 100)}))
        store.put("b", frame_with_ids({"x": ("shared", 100)}))
        store.demote("a")
        assert store.hot_bytes == 800  # b keeps the shared column in RAM
        store.put("a", frame_with_ids({"x": ("other", 100), "y": ("a2", 100)}))
        assert store.hot_bytes == 1600
        assert store._hot_column_refs == {"shared": 2, "a1": 1}

    def test_rewarm_respects_the_hot_budget(self, tmp_path):
        store = TieredArtifactStore(hot_budget_bytes=1000, directory=tmp_path)
        store.put("a", frame_with_ids({"x": ("ca", 100)}))
        store.put("b", frame_with_ids({"x": ("cb", 100)}))  # demotes a
        assert store.tier_of("a") is StorageTier.COLD
        store.put("a", frame_with_ids({"x": ("ca", 100)}))
        assert store.tier_of("a") is StorageTier.HOT
        assert store.tier_of("b") is StorageTier.COLD  # the LRU head made room
        assert store.hot_bytes <= 1000

    def test_hot_reput_and_divergent_reput_move_nothing(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        assert store.stats.promotions == 0
        store.demote("v")
        with pytest.raises(ArtifactDivergenceError):
            store.put("v", frame_with_ids({"x": ("c1", 11)}))
        assert store.tier_of("v") is StorageTier.COLD
        assert store.stats.rewarms == 0

    def test_other_stores_ignore_a_reput(self):
        store = DedupArtifactStore()
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        assert store.put("v", frame_with_ids({"x": ("fresh", 10)})) == 0
        assert store.get("v").column("x").column_id == "c1"


class TestRunningStatistics:
    """``statistics()`` keeps running values; they must equal a recount."""

    @staticmethod
    def _recount(store: TieredArtifactStore) -> dict:
        tiers = list(store.tiers().values())
        cold = store._cold
        return {
            "cold_bytes": sum(cold._column_bytes.values())
            + sum(cold._object_bytes.values()),
            "vertices": len(tiers),
            "hot_vertices": tiers.count(StorageTier.HOT),
            "cold_vertices": tiers.count(StorageTier.COLD),
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_a_recount_after_a_seeded_sequence(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        store = TieredArtifactStore(hot_budget_bytes=2000, directory=tmp_path)
        shared = [f"s{i}" for i in range(4)]

        def payload(vertex: int):
            if vertex % 3 == 0:
                return np.arange(float(10 + vertex))
            columns = {"x": (shared[vertex % 4], 30), "y": (f"own{vertex}", 30)}
            return frame_with_ids(columns)

        for _step in range(200):
            vertex = int(rng.integers(12))
            name, action = f"v{vertex}", int(rng.integers(5))
            if name not in store:
                store.put(name, payload(vertex))
            elif action == 0:
                store.get(name)
            elif action == 1:
                store.remove(name)
            elif action == 2 and store.tier_of(name) is StorageTier.HOT:
                store.demote(name)
            else:  # a re-put: re-warms a cold vertex
                store.put(name, payload(vertex))
            stats = store.statistics()
            assert {key: stats[key] for key in self._recount(store)} == self._recount(
                store
            )
        assert store.stats.rewarms > 0

    def test_reopened_store_counts_every_vertex_cold(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        store.put("f", frame_with_ids({"x": ("c1", 10)}))
        store.put("m", np.arange(5.0))
        store.flush()
        reopened = TieredArtifactStore.open(tmp_path)
        assert {
            key: reopened.statistics()[key] for key in self._recount(reopened)
        } == self._recount(reopened)
        assert reopened.statistics()["cold_vertices"] == 2
