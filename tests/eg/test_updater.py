"""Tests for the Updater: source storage, union, batching, conflicts."""

import numpy as np
import pytest

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.storage import (
    ArtifactDivergenceError,
    ArtifactStore,
    DedupArtifactStore,
    LoadCostModel,
    SimpleArtifactStore,
    StorageTier,
)
from repro.eg.updater import Updater
from repro.graph.artifacts import payload_footprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation, TrainOperation
from repro.materialization import (
    HelixMaterializer,
    HeuristicMaterializer,
    StorageAwareMaterializer,
)
from repro.materialization.simple import MaterializeAll, MaterializeNone
from repro.server import CollaborativeOptimizer
from repro.service import EGService
from repro.storage import TieredArtifactStore, TieredLoadCostModel


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def executed_workload(n_steps: int = 2) -> WorkloadDAG:
    dag = WorkloadDAG()
    current = dag.add_source("src", payload=DataFrame({"x": np.arange(5.0)}))
    for index in range(n_steps):
        current = dag.add_operation([current], Step(index))
        dag.vertex(current).record_result(
            DataFrame({"x": np.arange(5.0) + index}), compute_time=1.0
        )
    dag.mark_terminal(current)
    return dag


class TestUpdater:
    def test_sources_always_stored(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeNone())
        report = updater.update(executed_workload())
        assert report.new_sources == 1
        source = next(v for v in eg.vertices() if v.is_source)
        assert source.materialized

    def test_sources_stored_once(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeNone())
        updater.update(executed_workload())
        report = updater.update(executed_workload())
        assert report.new_sources == 0

    def test_materialize_all_stores_everything(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        report = updater.update(executed_workload(3))
        assert len(report.newly_materialized) == 3
        assert eg.materialized_artifact_bytes() > 0

    def test_materialize_none_stores_nothing_but_sources(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeNone())
        updater.update(executed_workload(3))
        materialized = [eg.vertex(v) for v in eg.materialized_ids()]
        assert all(v.is_source for v in materialized)

    def test_meta_kept_for_unmaterialized(self):
        """EG keeps meta-data of ALL artifacts even when content is dropped."""
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeNone())
        updater.update(executed_workload(2))
        for vertex in eg.artifact_vertices():
            if not vertex.is_source:
                assert vertex.meta is not None
                assert not vertex.materialized

    def test_eviction_on_strategy_change(self):
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(executed_workload(2))
        report = Updater(eg, MaterializeNone()).update(executed_workload(2))
        assert len(report.evicted) == 2
        assert eg.materialized_artifact_bytes() == 0

    def test_store_bytes_reported(self):
        eg = ExperimentGraph()
        report = Updater(eg, MaterializeAll()).update(executed_workload())
        assert report.store_bytes_after == eg.store.total_bytes > 0

    def test_frequencies_after_repeat(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        updater.update(executed_workload())
        updater.update(executed_workload())
        non_source = [v for v in eg.artifact_vertices() if not v.is_source]
        assert all(v.frequency == 2 for v in non_source)


def divergent_workload(columns=("x", "zzz"), size_shift=0.0) -> WorkloadDAG:
    """Same vertex ids as ``executed_workload`` but different payload shape."""
    dag = WorkloadDAG()
    current = dag.add_source("src", payload=DataFrame({"x": np.arange(5.0)}))
    for index in range(2):
        current = dag.add_operation([current], Step(index))
        frame = DataFrame({name: np.arange(5.0) + size_shift for name in columns})
        dag.vertex(current).record_result(frame, compute_time=1.0)
    dag.mark_terminal(current)
    return dag


class TestBatchUpdater:
    def test_batch_equivalent_to_sequential(self):
        """One batched pass must produce the same EG as N single updates."""
        sequential = ExperimentGraph()
        seq_updater = Updater(sequential, MaterializeAll())
        batched = ExperimentGraph()
        batch_updater = Updater(batched, MaterializeAll())

        workloads = [executed_workload(n) for n in (1, 3, 2)]
        for workload in workloads:
            seq_updater.update(workload)
        report = batch_updater.update_batch([executed_workload(n) for n in (1, 3, 2)])

        assert report.merged_workloads == 3
        assert report.rejected_workloads == 0
        assert batched.num_vertices == sequential.num_vertices
        assert batched.materialized_ids() == sequential.materialized_ids()
        assert batched.store.total_bytes == sequential.store.total_bytes
        for vertex in sequential.artifact_vertices():
            assert batched.vertex(vertex.vertex_id).frequency == vertex.frequency

    def test_batch_single_materialization_outcomes(self):
        eg = ExperimentGraph()
        report = Updater(eg, MaterializeAll()).update_batch(
            [executed_workload(2), executed_workload(2)]
        )
        assert report.outcomes == [1, 0]  # second workload adds no new source
        assert report.new_sources == 1

    def test_column_conflict_rejected(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        updater.update(executed_workload(2))
        with pytest.raises(ArtifactDivergenceError, match="columns"):
            updater.update(divergent_workload())

    def test_size_conflict_rejected(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        updater.update(executed_workload(2))
        # same columns, different frame length: the size check must fire
        dag = WorkloadDAG()
        current = dag.add_source("src", payload=DataFrame({"x": np.arange(5.0)}))
        for index in range(2):
            current = dag.add_operation([current], Step(index))
            dag.vertex(current).record_result(
                DataFrame({"x": np.arange(9.0)}), compute_time=1.0
            )
        dag.mark_terminal(current)
        with pytest.raises(ArtifactDivergenceError, match="bytes"):
            updater.update(dag)

    def test_conflicting_workload_rejected_from_batch_others_merge(self):
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        updater.update(executed_workload(2))
        before = eg.workloads_observed
        report = updater.update_batch([divergent_workload(), executed_workload(3)])
        assert report.rejected_workloads == 1
        assert report.merged_workloads == 1
        assert isinstance(report.outcomes[0], ArtifactDivergenceError)
        assert report.outcomes[1] == 0
        # the rejected workload contributed nothing
        assert eg.workloads_observed == before + 1

    def test_intra_batch_conflict_detected(self):
        """The second workload conflicts with the first one *of the batch*."""
        eg = ExperimentGraph()
        report = Updater(eg, MaterializeAll()).update_batch(
            [executed_workload(2), divergent_workload()]
        )
        assert report.merged_workloads == 1
        assert isinstance(report.outcomes[1], ArtifactDivergenceError)

    def test_custom_evictor_receives_deselections(self):
        eg = ExperimentGraph()
        Updater(eg, MaterializeAll()).update(executed_workload(2))
        evicted: list[str] = []

        def evictor(vertex_id: str) -> int:
            evicted.append(vertex_id)
            return eg.store.remove(vertex_id)

        report = Updater(eg, MaterializeNone()).update_batch(
            [executed_workload(2)], evict=evictor
        )
        assert sorted(evicted) == sorted(report.evicted)
        assert len(evicted) == 2
        # the updater cleared the flags itself; the evictor only removed content
        assert all(not eg.vertex(v).materialized for v in evicted)


# ----------------------------------------------------------------------
# A merge reads no artifact content
# ----------------------------------------------------------------------
N_ROWS = 100
COLUMN_BYTES = N_ROWS * 8


def growing_workload(tags, computed_from=0) -> WorkloadDAG:
    """A chain whose step *k* copies its input's columns and adds one.

    Steps before ``computed_from`` carry no payload, the way a tenant's
    executed DAG names the vertices it loaded or skipped: a *repeat* of a
    merged chain computes nothing, a *modify* keeps a prefix and computes a
    new tail (other tags, so other vertex ids).
    """
    dag = WorkloadDAG()
    frame = DataFrame({"x": np.arange(float(N_ROWS))})
    current = dag.add_source("src", payload=frame)
    for index, tag in enumerate(tags):
        current = dag.add_operation([current], Step(tag))
        frame = frame.with_column(f"c{tag}", np.full(N_ROWS, float(index)))
        if index >= computed_from:
            dag.vertex(current).record_result(frame, compute_time=1.0)
    dag.mark_terminal(current)
    return dag


class ForwardingStore(ArtifactStore):
    """The shape of the benchmark's store proxy: forwards exactly the
    interface ``ArtifactStore`` had before footprints existed (no
    ``__getattr__``), and counts ``get``."""

    def __init__(self, inner: ArtifactStore):
        self.inner = inner
        self.gets = 0

    def put(self, vertex_id, payload):
        return self.inner.put(vertex_id, payload)

    def get(self, vertex_id):
        self.gets += 1
        return self.inner.get(vertex_id)

    def remove(self, vertex_id):
        return self.inner.remove(vertex_id)

    def __contains__(self, vertex_id):
        return vertex_id in self.inner

    @property
    def total_bytes(self):
        return self.inner.total_bytes

    @property
    def vertex_ids(self):
        return self.inner.vertex_ids

    def tier_of(self, vertex_id):
        return self.inner.tier_of(vertex_id)

    def tiers(self):
        return self.inner.tiers()

    def statistics(self):
        return self.inner.statistics()


def tiered_store() -> TieredArtifactStore:
    # the chain holds seven distinct columns; three fit in RAM
    return TieredArtifactStore(hot_budget_bytes=3 * COLUMN_BYTES)


#: every one of them sits behind a ``ForwardingStore`` in the tests below
STORES = {
    "simple": SimpleArtifactStore,
    "dedup": DedupArtifactStore,
    "tiered": tiered_store,
}
MATERIALIZERS = {
    "SA": lambda: StorageAwareMaterializer(None),
    "SA-binding": lambda: StorageAwareMaterializer(6 * COLUMN_BYTES),
    "HM": lambda: HeuristicMaterializer(20 * COLUMN_BYTES),
    "HL": lambda: HelixMaterializer(20 * COLUMN_BYTES),
    "ALL": MaterializeAll,
}


def tier_state(store: TieredArtifactStore) -> tuple:
    stats = store.stats
    return (
        stats.hot_hits,
        stats.cold_hits,
        stats.promotions,
        stats.demotions,
        list(store._lru),
    )


class TestMergeReadsNothing:
    @pytest.mark.parametrize("materializer", MATERIALIZERS)
    @pytest.mark.parametrize("store", STORES)
    def test_repeat_and_modify_call_get_zero_times(self, store, materializer):
        inner = STORES[store]()
        counting = ForwardingStore(inner)
        eg = ExperimentGraph(counting)
        updater = Updater(eg, MATERIALIZERS[materializer]())
        updater.update(growing_workload("abcdef"))
        warm = eg.materialized_ids() - eg.source_ids
        assert warm, "the warm EG must hold something to re-read"
        assert counting.gets == 0

        updater.update(growing_workload("abcdef", computed_from=6))
        updater.update(growing_workload("abcxyz", computed_from=3))
        assert counting.gets == 0
        # every stored vertex's footprint was there to answer instead
        for vertex_id in eg.materialized_ids():
            assert eg.vertex(vertex_id).footprint == payload_footprint(
                inner.get(vertex_id)
            )

    @pytest.mark.parametrize("materializer", ["SA", "HM", "HL", "ALL"])
    def test_a_repeat_moves_nothing_between_tiers(self, materializer):
        store = tiered_store()
        eg = ExperimentGraph(store)
        updater = Updater(eg, MATERIALIZERS[materializer]())
        updater.update(growing_workload("abcdef"))
        assert store.stats.demotions > 0, "the hot budget must bind"
        before = tier_state(store)
        report = updater.update(growing_workload("abcdef", computed_from=6))
        assert (report.newly_materialized, report.evicted) == ([], [])
        assert tier_state(store) == before

    def test_a_modify_reads_no_tier(self):
        store = tiered_store()
        eg = ExperimentGraph(store)
        updater = Updater(eg, StorageAwareMaterializer(None))
        updater.update(growing_workload("abcdef"))
        reads = tier_state(store)[:3]
        report = updater.update(growing_workload("abcxyz", computed_from=3))
        assert report.newly_materialized  # puts may demote; nothing is read
        assert tier_state(store)[:3] == reads

    def test_available_still_loads_a_stored_id_on_request(self):
        """``available`` stays a Mapping: a third-party materializer that
        dereferences a stored id gets its content (and pays the load)."""
        seen = {}

        class Peeking(MaterializeAll):
            def select(self, eg, available):
                seen.update({v: available[v] for v in available})
                return super().select(eg, available)

        counting = ForwardingStore(SimpleArtifactStore())
        eg = ExperimentGraph(counting)
        Updater(eg, MaterializeAll()).update(growing_workload("ab"))
        stored = eg.materialized_ids() - eg.source_ids
        Updater(eg, Peeking()).update(growing_workload("ab", computed_from=2))
        assert set(seen) == stored
        assert counting.gets == len(stored)
        assert all(isinstance(payload, DataFrame) for payload in seen.values())

    def test_absent_footprint_is_derived_once(self):
        """A vertex flagged materialized by hand (or reopened from an older
        checkpoint) costs one load, on first use only."""
        counting = ForwardingStore(DedupArtifactStore())
        eg = ExperimentGraph(counting)
        updater = Updater(eg, StorageAwareMaterializer(None))
        updater.update(growing_workload("abc"))
        stored = eg.materialized_ids() - eg.source_ids
        for vertex_id in stored:
            eg.vertex(vertex_id).footprint = None
        updater.update(growing_workload("abc", computed_from=3))
        assert counting.gets == len(stored)
        updater.update(growing_workload("abc", computed_from=3))
        assert counting.gets == len(stored)

    def test_deselected_vertex_is_deferred_and_loadable_by_a_lease_holder(self):
        counting = ForwardingStore(DedupArtifactStore())
        service = EGService(MaterializeAll(), store=counting)
        session = service.open_session("t").session_id
        service.commit(session, growing_workload("abc"))
        lease = service.versioned.acquire()
        victims = lease.eg.materialized_ids() - lease.eg.source_ids
        assert victims

        service.updater.materializer = MaterializeNone()
        service.commit(session, growing_workload("abc", computed_from=3))
        assert counting.gets == 0
        assert service.versioned.deferred_evictions == len(victims)
        for victim in victims:
            assert not service.eg.is_materialized(victim)
            assert service.eg.vertex(victim).footprint is None
            assert isinstance(lease.eg.load(victim), DataFrame)
        lease.release()
        assert service.versioned.flush_deferred() > 0
        assert all(victim not in counting for victim in victims)
        service.stop()


class Priced(DataOperation):
    """``x + k`` at a fixed virtual cost."""

    def __init__(self, k: float, cost: float):
        super().__init__("priced", params={"k": k})
        self.k = k
        self.virtual_cost = cost

    def run(self, frame):
        return DataFrame({"x": frame.column("x").values + self.k})


class Mean(TrainOperation):
    """A "model": the column mean, trained at a fixed virtual cost."""

    def __init__(self, cost: float):
        super().__init__("mean_model", params={})
        self.virtual_cost = cost

    def run(self, frame):
        return np.asarray([frame.column("x").values.mean()])


class TestColdTierTrap:
    """A stored artifact recomputed because its copy was cold is re-warmed,
    so the next run loads it instead of recomputing it forever."""

    #: hot loads cost 1 ms, cold ones 10 s: a model (2 s to train) is worth
    #: loading only while hot; a frame that computes in 0.1 ms never is
    COSTS = TieredLoadCostModel(
        bandwidth_bytes_per_s=1e12,
        latency_s=1e-3,
        cold=LoadCostModel(bandwidth_bytes_per_s=1e12, latency_s=10.0),
    )

    @staticmethod
    def script(ws, sources):
        data = ws.source("data", sources["data"])
        prepared = data.add(Priced(1.0, cost=1.0))
        prepared.add(Mean(cost=2.0)).terminal()
        data.add(Priced(2.0, cost=1e-4)).terminal()

    def test_a_recomputed_cold_model_is_rewarmed_then_loaded(self, tmp_path):
        store = TieredArtifactStore(directory=tmp_path)
        optimizer = CollaborativeOptimizer(
            MaterializeAll(),
            store=store,
            load_cost_model=self.COSTS,
            cost_model=VirtualCostModel(),
        )
        sources = {"data": DataFrame({"x": np.arange(8.0)})}
        optimizer.run_script(self.script, sources)
        eg = optimizer.eg
        model = next(v.vertex_id for v in eg.vertices() if v.is_model)
        cheap = next(
            v.vertex_id for v in eg.artifact_vertices() if v.compute_time == 1e-4
        )
        store.demote(model)
        store.demote(cheap)

        updater = optimizer.service.updater
        merge, gets = updater.update_batch, []

        def merge_reading_nothing(*args, **kwargs):
            # the merge sees the payloads in hand; a store ``get`` would
            # be a disk read of content the tenant already holds
            store.get = gets.append
            try:
                return merge(*args, **kwargs)
            finally:
                del store.get

        updater.update_batch = merge_reading_nothing
        first = optimizer.run_script(self.script, sources)
        # the model's input is hot and loaded; both cold copies lose to compute
        assert (first.loaded_vertices, first.executed_vertices) == (1, 2)
        assert gets == []
        assert store.tier_of(model) is StorageTier.HOT
        assert store.tier_of(cheap) is StorageTier.COLD  # a hot load costs more
        assert store.stats.rewarms == 1 and store.stats.cold_hits == 0

        second = optimizer.run_script(self.script, sources)
        # the model, now hot, is loaded (its input is not needed); only the
        # cheap frame is recomputed
        assert (second.loaded_vertices, second.executed_vertices) == (1, 1)
        assert model not in second.model_qualities
        optimizer.service.stop()

    def test_a_payload_of_another_size_rewarms_nothing(self, tmp_path):
        """A model retrained to another size at the same vertex id is not
        the stored copy: the merge keeps the cold copy and succeeds."""
        store = TieredArtifactStore(directory=tmp_path)
        eg = ExperimentGraph(store)
        updater = Updater(eg, MaterializeAll())

        def trained(weights: int) -> tuple[WorkloadDAG, str]:
            dag = WorkloadDAG()
            source = dag.add_source("src", payload=DataFrame({"x": np.arange(5.0)}))
            model = dag.add_operation([source], Step("train"))
            dag.vertex(model).record_result(np.zeros(weights), compute_time=1.0)
            dag.mark_terminal(model)
            return dag, model

        dag, model = trained(4)
        updater.update(dag)
        store.demote(model)
        updater.update(trained(4)[0])
        assert store.tier_of(model) is StorageTier.HOT  # same content: re-warmed
        store.demote(model)
        updater.update(trained(9)[0])
        assert store.tier_of(model) is StorageTier.COLD
        assert store.stats.rewarms == 1
