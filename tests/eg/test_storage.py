"""Tests for artifact stores and the load-cost model."""

import numpy as np
import pytest

from repro.dataframe import Column, DataFrame
from repro.eg.storage import (
    ArtifactDivergenceError,
    DedupArtifactStore,
    LoadCostModel,
    SimpleArtifactStore,
    StorageTier,
)


class TestLoadCostModel:
    def test_linear_in_size(self):
        model = LoadCostModel(bandwidth_bytes_per_s=100.0, latency_s=1.0)
        assert model.cost(0) == 1.0
        assert model.cost(200) == 3.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LoadCostModel.in_memory().cost(-1)

    def test_presets_ordered(self):
        size = 10_000_000
        memory = LoadCostModel.in_memory().cost(size)
        disk = LoadCostModel.on_disk().cost(size)
        remote = LoadCostModel.remote().cost(size)
        assert memory < disk < remote


class TestSimpleStore:
    def test_put_get_roundtrip(self):
        store = SimpleArtifactStore()
        store.put("v1", {"a": 1})
        assert store.get("v1") == {"a": 1}

    def test_put_returns_incremental_bytes(self):
        store = SimpleArtifactStore()
        added = store.put("v1", np.zeros(100))
        assert added == 800
        assert store.put("v1", np.zeros(100)) == 0  # idempotent

    def test_remove_releases_bytes(self):
        store = SimpleArtifactStore()
        store.put("v1", np.zeros(100))
        assert store.remove("v1") == 800
        assert store.total_bytes == 0
        assert store.remove("v1") == 0

    def test_missing_get_raises(self):
        with pytest.raises(KeyError, match="not materialized"):
            SimpleArtifactStore().get("nope")

    def test_contains_and_ids(self):
        store = SimpleArtifactStore()
        store.put("v1", 1)
        assert "v1" in store
        assert store.vertex_ids == {"v1"}


def frame_with_ids(spec: dict[str, tuple[str, int]]) -> DataFrame:
    """Build a frame from {name: (column_id, n_values)}."""
    columns = [
        Column(name, np.zeros(n), column_id) for name, (column_id, n) in spec.items()
    ]
    return DataFrame(columns)


class TestDedupStore:
    def test_shared_column_stored_once(self):
        store = DedupArtifactStore()
        a = frame_with_ids({"x": ("shared", 100), "y": ("only_a", 100)})
        b = frame_with_ids({"x": ("shared", 100), "z": ("only_b", 100)})
        added_a = store.put("a", a)
        added_b = store.put("b", b)
        assert added_a == 1600
        assert added_b == 800  # 'shared' not charged again
        assert store.total_bytes == 2400

    def test_get_reconstructs_frame(self):
        store = DedupArtifactStore()
        frame = frame_with_ids({"x": ("c1", 10), "y": ("c2", 10)})
        store.put("v", frame)
        assert store.get("v").columns == ["x", "y"]
        assert store.get("v") == frame

    def test_rename_reuses_column(self):
        """The same lineage id under a different name is still deduplicated."""
        store = DedupArtifactStore()
        store.put("a", frame_with_ids({"x": ("c1", 100)}))
        added = store.put("b", frame_with_ids({"renamed": ("c1", 100)}))
        assert added == 0
        assert store.get("b").columns == ["renamed"]

    def test_refcounted_removal(self):
        store = DedupArtifactStore()
        store.put("a", frame_with_ids({"x": ("shared", 100)}))
        store.put("b", frame_with_ids({"x": ("shared", 100)}))
        assert store.remove("a") == 0  # still referenced by b
        assert store.remove("b") == 800
        assert store.total_bytes == 0

    def test_non_frame_payloads(self):
        store = DedupArtifactStore()
        added = store.put("m", np.zeros(10))
        assert added == 80
        assert np.array_equal(store.get("m"), np.zeros(10))
        assert store.remove("m") == 80

    def test_missing_get_raises(self):
        with pytest.raises(KeyError):
            DedupArtifactStore().get("nope")

    def test_put_idempotent(self):
        store = DedupArtifactStore()
        frame = frame_with_ids({"x": ("c1", 10)})
        store.put("v", frame)
        assert store.put("v", frame) == 0

    def test_vertex_ids_mixed(self):
        store = DedupArtifactStore()
        store.put("frame", frame_with_ids({"x": ("c1", 10)}))
        store.put("model", object())
        assert store.vertex_ids == {"frame", "model"}

    def test_bytes_are_recorded_at_put_not_recounted(self):
        """``Column.nbytes`` walks every value of an object column, so the
        totals (read once per merge and once per workload) are running sums
        of sizes taken once, at ``put``."""
        store = DedupArtifactStore()
        words = Column("w", np.array(["ab", "cde"], dtype=object), "words")
        store.put("a", DataFrame([words, Column("x", np.zeros(2), "c1")]))
        store.put("b", DataFrame([words.rename("again")]))
        store.put("m", np.zeros(10))
        expected = words.nbytes + 16 + 80
        words.values[0] = "grown after the put"
        assert store.total_bytes == expected
        same = Column("again", np.array(["ab", "cde"], dtype=object))
        assert store.put("b", DataFrame([same])) == 0  # signature: recorded sizes
        assert store.remove("a") == 16  # the words column is still b's
        assert store.remove("b") + store.remove("m") == expected - 16
        assert store.total_bytes == 0


class TestDivergenceDetection:
    """Silently accepting a different payload under a stored vertex id used
    to lose data; re-puts are now checked against a cheap signature."""

    def test_simple_store_divergent_object(self):
        store = SimpleArtifactStore()
        store.put("v", np.zeros(10))
        with pytest.raises(ArtifactDivergenceError, match="different payload"):
            store.put("v", np.zeros(20))

    def test_simple_store_divergent_frame(self):
        store = SimpleArtifactStore()
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        with pytest.raises(ArtifactDivergenceError, match="different columns"):
            store.put("v", frame_with_ids({"x": ("c1", 10), "y": ("c2", 10)}))

    def test_simple_store_kind_mismatch(self):
        store = SimpleArtifactStore()
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        with pytest.raises(ArtifactDivergenceError):
            store.put("v", np.zeros(10))

    def test_dedup_store_divergent_frame(self):
        store = DedupArtifactStore()
        store.put("v", frame_with_ids({"x": ("c1", 10)}))
        with pytest.raises(ArtifactDivergenceError, match="different columns"):
            store.put("v", frame_with_ids({"renamed": ("c1", 10)}))

    def test_dedup_store_divergent_object(self):
        store = DedupArtifactStore()
        store.put("m", np.zeros(10))
        with pytest.raises(ArtifactDivergenceError):
            store.put("m", np.zeros(11))

    def test_same_content_fresh_lineage_ids_accepted(self):
        # a second run of the same workload rebuilds frames with fresh
        # lineage ids; identical shape/content must still be a no-op re-put
        store = DedupArtifactStore()
        store.put("v", frame_with_ids({"x": ("run1", 10)}))
        assert store.put("v", frame_with_ids({"x": ("run2", 10)})) == 0


class TestTierDefaults:
    """Purely-RAM stores present themselves as an all-hot single tier."""

    def test_tier_of_is_hot(self):
        store = SimpleArtifactStore()
        store.put("v", np.zeros(10))
        assert store.tier_of("v") is StorageTier.HOT

    def test_tier_of_missing_raises(self):
        with pytest.raises(KeyError):
            DedupArtifactStore().tier_of("nope")

    def test_statistics_all_hot(self):
        store = DedupArtifactStore()
        store.put("v", frame_with_ids({"x": ("c1", 100)}))
        stats = store.statistics()
        assert stats["store_type"] == "DedupArtifactStore"
        assert stats["hot_bytes"] == stats["total_bytes"] == 800
        assert stats["cold_bytes"] == 0
        assert stats["vertices"] == 1

    def test_base_cost_for_tier_ignores_tier(self):
        model = LoadCostModel(bandwidth_bytes_per_s=100.0, latency_s=1.0)
        assert model.cost_for_tier(200, StorageTier.COLD) == model.cost(200)
