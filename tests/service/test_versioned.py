"""Tests for the versioned, snapshot-isolated Experiment Graph."""

import numpy as np

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.graph.dag import WorkloadDAG, source_vertex_id
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.experiments.swarm import eg_fingerprint
from repro.service.versioned import VersionedExperimentGraph, copy_experiment_graph


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def executed_workload(n_steps: int = 2, source: str = "src") -> WorkloadDAG:
    dag = WorkloadDAG()
    current = dag.add_source(source, payload=DataFrame({"x": np.arange(5.0)}))
    for index in range(n_steps):
        current = dag.add_operation([current], Step(index))
        dag.vertex(current).record_result(
            DataFrame({"x": np.arange(5.0) + index}), compute_time=1.0
        )
    dag.mark_terminal(current)
    return dag


def populated_eg(n_steps: int = 2) -> ExperimentGraph:
    eg = ExperimentGraph()
    Updater(eg, MaterializeAll()).update(executed_workload(n_steps))
    return eg


class TestCopy:
    def test_copy_shares_store_but_not_vertex_records(self):
        eg = populated_eg()
        copied = copy_experiment_graph(eg)
        assert copied.store is eg.store
        assert copied.num_vertices == eg.num_vertices
        some_id = next(v.vertex_id for v in eg.artifact_vertices() if not v.is_source)
        eg.vertex(some_id).frequency = 99
        assert copied.vertex(some_id).frequency != 99

    def test_copy_preserves_edges_and_bookkeeping(self):
        eg = populated_eg(3)
        copied = copy_experiment_graph(eg)
        assert set(copied.graph.edges) == set(eg.graph.edges)
        assert copied.workloads_observed == eg.workloads_observed
        assert copied.source_ids == eg.source_ids
        assert copied.materialized_ids() == eg.materialized_ids()


class TestVersioning:
    def test_publish_bumps_version_and_isolates_readers(self):
        versioned = VersionedExperimentGraph(eg=populated_eg())
        assert versioned.version == 0
        lease = versioned.acquire()
        before = lease.eg.num_vertices

        Updater(versioned.working, MaterializeAll()).update(executed_workload(4))
        # the pinned snapshot must not see the merge until republished
        assert lease.eg.num_vertices == before
        version = versioned.publish()
        assert version == 1
        assert lease.eg.num_vertices == before  # still the old snapshot
        fresh = versioned.acquire()
        assert fresh.eg.num_vertices > before
        lease.release()
        fresh.release()

    def test_lease_is_context_manager_and_idempotent(self):
        versioned = VersionedExperimentGraph(eg=populated_eg())
        with versioned.acquire() as lease:
            assert versioned.pinned_leases == 1
        assert versioned.pinned_leases == 0
        lease.release()  # second release is a no-op
        assert versioned.pinned_leases == 0


class TestDeferredEviction:
    def test_unpinned_eviction_waits_for_publish(self):
        # even with no lease pinned, the *published* snapshot still marks
        # the artifact materialized until the next publish — removal must
        # wait for the post-publish flush or a reader acquiring mid-merge
        # would plan a load of already-removed content
        versioned = VersionedExperimentGraph(eg=populated_eg())
        victim = next(
            v.vertex_id
            for v in versioned.working.artifact_vertices()
            if v.materialized and not v.is_source
        )
        versioned.working.vertex(victim).materialized = False
        assert versioned.defer_unmaterialize(victim) == 0
        assert versioned.deferred_evictions == 1
        # a reader acquiring between the defer and the publish still loads
        lease = versioned.acquire()
        assert lease.eg.load(victim) is not None
        versioned.publish()
        assert versioned.flush_deferred() == 0  # that mid-merge reader pins it
        assert lease.eg.load(victim) is not None
        lease.release()
        assert versioned.flush_deferred() > 0
        assert versioned.deferred_evictions == 0
        assert victim not in versioned.working.store

    def test_pinned_eviction_defers_until_lease_released(self):
        versioned = VersionedExperimentGraph(eg=populated_eg())
        lease = versioned.acquire()
        victim = next(
            v.vertex_id
            for v in versioned.working.artifact_vertices()
            if v.materialized and not v.is_source
        )
        versioned.working.vertex(victim).materialized = False
        assert versioned.defer_unmaterialize(victim) == 0
        assert versioned.deferred_evictions == 1
        # the pinned reader can still load the deselected artifact
        assert lease.eg.load(victim) is not None

        versioned.publish()
        assert versioned.flush_deferred() == 0  # old lease still outstanding
        lease.release()
        assert versioned.flush_deferred() > 0
        assert versioned.deferred_evictions == 0
        assert victim not in versioned.working.store

    def test_rematerialization_cancels_deferred_eviction(self):
        versioned = VersionedExperimentGraph(eg=populated_eg())
        lease = versioned.acquire()
        victim = next(
            v.vertex_id
            for v in versioned.working.artifact_vertices()
            if v.materialized and not v.is_source
        )
        versioned.working.vertex(victim).materialized = False
        versioned.defer_unmaterialize(victim)
        # a later merge re-selects the artifact before the flush
        versioned.working.vertex(victim).materialized = True
        lease.release()
        assert versioned.flush_deferred() == 0
        assert versioned.deferred_evictions == 0
        assert victim in versioned.working.store


class TestCowPublish:
    """Copy-on-write publishing: ``publish(dirty_vertices=...)``."""

    @staticmethod
    def _service_side() -> tuple[ExperimentGraph, Updater, VersionedExperimentGraph]:
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        versioned = VersionedExperimentGraph(eg=eg)
        return eg, updater, versioned

    @staticmethod
    def _merge_publish(updater, versioned, workload) -> set[str]:
        """One merge-worker drain cycle, as EGService runs it."""
        updater.update_batch([workload], evict=versioned.defer_unmaterialize)
        dirty = set(updater.pending_dirty)
        versioned.publish(dirty_vertices=dirty)
        updater.clear_dirty()
        versioned.flush_deferred()
        return dirty

    def test_cow_snapshot_equals_full_copy(self):
        eg, updater, versioned = self._service_side()
        self._merge_publish(updater, versioned, executed_workload(3))
        self._merge_publish(updater, versioned, executed_workload(5))
        with versioned.acquire() as lease:
            assert eg_fingerprint(lease.eg) == eg_fingerprint(copy_experiment_graph(eg))
            assert lease.eg.store is eg.store

    def test_snapshot_never_observes_working_mutations(self):
        # mutate-after-publish probe: once published, a snapshot must be
        # frozen no matter what later merges or pokes do to the working EG
        eg, updater, versioned = self._service_side()
        self._merge_publish(updater, versioned, executed_workload(2))
        lease = versioned.acquire()
        frozen = eg_fingerprint(lease.eg)
        # a second merge extends the shared chain (touches every prefix
        # record) and publishes over the snapshot the lease pins
        self._merge_publish(updater, versioned, executed_workload(5))
        assert eg_fingerprint(lease.eg) == frozen
        # direct record mutations on the working graph cannot leak either
        for vertex in eg.artifact_vertices():
            vertex.frequency += 7
            vertex.compute_time += 1.0
        assert eg_fingerprint(lease.eg) == frozen
        lease.release()

    def test_published_records_equal_the_working_ones_and_are_separate(self):
        eg, updater, versioned = self._service_side()
        self._merge_publish(updater, versioned, executed_workload(3))
        dirty = self._merge_publish(updater, versioned, executed_workload(5))
        assert dirty
        with versioned.acquire() as lease:
            for vertex_id in dirty:
                published = lease.eg.vertex(vertex_id)
                working = eg.vertex(vertex_id)
                assert published == working
                assert published is not working
                assert type(published) is type(working)
            # mutating a working record after the publish leaks nothing
            for vertex_id in dirty:
                record = eg.vertex(vertex_id)
                record.frequency += 3
                record.materialized = not record.materialized
            for vertex_id in dirty:
                assert lease.eg.vertex(vertex_id) != eg.vertex(vertex_id)

    def test_clean_vertices_share_structure_with_previous_snapshot(self):
        eg, updater, versioned = self._service_side()
        self._merge_publish(updater, versioned, executed_workload(2, source="left"))
        first = versioned.acquire()
        # a disjoint workload leaves the first chain untouched (clean)
        dirty = self._merge_publish(
            updater, versioned, executed_workload(2, source="right")
        )
        second = versioned.acquire()
        clean_id = source_vertex_id("left")
        dirty_id = source_vertex_id("right")
        assert clean_id not in dirty and dirty_id in dirty
        # clean vertex: node-attr dict shared with the previous snapshot
        assert second.eg.graph.nodes[clean_id] is first.eg.graph.nodes[clean_id]
        # dirty vertex: fresh record, not an alias of the working graph's
        assert (
            second.eg.graph.nodes[dirty_id]["vertex"]
            is not eg.graph.nodes[dirty_id]["vertex"]
        )
        first.release()
        second.release()

    def test_cow_publish_respects_deferred_eviction(self):
        versioned = VersionedExperimentGraph(eg=populated_eg(3))
        lease = versioned.acquire()  # pins the pre-eviction snapshot
        victim = next(
            v.vertex_id
            for v in versioned.working.artifact_vertices()
            if v.materialized and not v.is_source
        )
        versioned.working.vertex(victim).materialized = False
        assert versioned.defer_unmaterialize(victim) == 0
        versioned.publish(dirty_vertices={victim})
        # the COW snapshot carries the flipped flag...
        with versioned.acquire() as fresh:
            assert not fresh.eg.vertex(victim).materialized
        # ...but the content stays loadable while the old lease is out
        assert versioned.flush_deferred() == 0
        assert lease.eg.vertex(victim).materialized
        assert lease.eg.load(victim) is not None
        lease.release()
        assert versioned.flush_deferred() > 0
        assert victim not in versioned.working.store
