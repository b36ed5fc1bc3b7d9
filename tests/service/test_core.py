"""Tests for EGService: sessions, queueing, batching, shutdown, stats."""

import threading
import time

import numpy as np
import pytest

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.eg.storage import ArtifactDivergenceError
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.service import (
    EGService,
    RequestTimeoutError,
    ServiceClient,
    ServiceOverloadedError,
    ServiceStoppedError,
    UnknownSessionError,
)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def executed_workload(n_steps: int = 2, columns=("x",), source: str = "src") -> WorkloadDAG:
    dag = WorkloadDAG()
    current = dag.add_source(source, payload=DataFrame({"x": np.arange(5.0)}))
    for index in range(n_steps):
        current = dag.add_operation([current], Step(index))
        frame = DataFrame({name: np.arange(5.0) + index for name in columns})
        dag.vertex(current).record_result(frame, compute_time=1.0)
    dag.mark_terminal(current)
    return dag


def query_workload(n_steps: int = 2, source: str = "src") -> WorkloadDAG:
    """The same DAG shape as ``executed_workload``, but not yet executed."""
    dag = WorkloadDAG()
    current = dag.add_source(source, payload=DataFrame({"x": np.arange(5.0)}))
    for index in range(n_steps):
        current = dag.add_operation([current], Step(index))
    dag.mark_terminal(current)
    return dag


class TestSessions:
    def test_open_and_close(self):
        with EGService(MaterializeAll()) as service:
            session = service.open_session("alice")
            assert session.name == "alice"
            assert service.stats().open_sessions == 1
            service.close_session(session.session_id)
            assert service.stats().open_sessions == 0

    def test_unknown_session_rejected(self):
        with EGService(MaterializeAll()) as service:
            with pytest.raises(UnknownSessionError):
                service.commit("s9999", executed_workload())
            with pytest.raises(UnknownSessionError):
                service.plan("s9999", executed_workload())


class TestInlineCommit:
    def test_commit_merges_and_publishes(self):
        with EGService(MaterializeAll()) as service:
            session = service.open_session()
            result = service.commit(session.session_id, executed_workload())
            assert result.commit_index == 1
            assert result.version == 1
            assert result.new_sources == 1
            assert service.versioned.version == 1
            assert service.eg.num_vertices == 3

    def test_concurrent_inline_commits_all_merge(self):
        service = EGService(MaterializeAll())
        session = service.open_session()
        errors = []

        def commit(n):
            try:
                service.commit(session.session_id, executed_workload(n))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=commit, args=(n,)) for n in (1, 2, 3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert service.stats().commits_total == 4
        log = service.commit_log()
        assert [r.commit_index for r in log] == [1, 2, 3, 4]
        service.stop()

    def test_divergent_commit_raises_and_rest_merge(self):
        with EGService(MaterializeAll()) as service:
            session = service.open_session()
            service.commit(session.session_id, executed_workload())
            with pytest.raises(ArtifactDivergenceError):
                service.commit(session.session_id, executed_workload(columns=("x", "y")))
            stats = service.stats()
            assert stats.rejected_commits_total == 1
            assert stats.commits_total == 1


class TestBackgroundWorker:
    def test_blocked_worker_coalesces_into_one_batch(self):
        service = EGService(MaterializeAll(), background=True)
        session = service.open_session()
        with service._merge_lock:  # hold the worker off the queue
            tickets = [
                service.submit_update(session.session_id, executed_workload(n))
                for n in (1, 2, 3)
            ]
            assert not any(t.done for t in tickets)
        results = [t.wait(10.0) for t in tickets]
        assert all(r.batch_size == 3 for r in results)
        assert [r.commit_index for r in results] == [1, 2, 3]
        stats = service.stats()
        assert stats.batches == 1
        assert stats.max_batch_size == 3
        service.stop()

    def test_overload_rejects_submission(self):
        service = EGService(MaterializeAll(), queue_capacity=2, background=True)
        session = service.open_session()
        with service._merge_lock:
            service.submit_update(session.session_id, executed_workload(1))
            service.submit_update(session.session_id, executed_workload(2))
            with pytest.raises(ServiceOverloadedError):
                service.submit_update(session.session_id, executed_workload(3))
        assert service.stats().overload_rejections == 1
        service.stop()

    def test_client_retries_through_overload(self):
        service = EGService(MaterializeAll(), queue_capacity=1, background=True)
        blocker = service.open_session()
        lock_released = threading.Event()

        service._merge_lock.acquire()
        service.submit_update(blocker.session_id, executed_workload(1))

        def release_later():
            lock_released.wait(5.0)
            service._merge_lock.release()

        releaser = threading.Thread(target=release_later)
        releaser.start()
        client = ServiceClient(service, name="patient", cost_model=VirtualCostModel())
        # the client's first commit attempts bounce off the full queue and
        # back off; releasing the merge lock lets a retry succeed
        lock_released.set()
        from repro.workloads.synthetic_dag import wide_workload_script

        rng = np.random.default_rng(7)
        report = client.run_script(
            wide_workload_script(2, 2, 0.01),
            {"wide": DataFrame({"x": rng.normal(size=8)})},
        )
        releaser.join()
        assert report.executed_vertices > 0
        assert service.stats().commits_total == 2
        service.stop()

    def test_request_timeout_while_worker_blocked(self):
        service = EGService(MaterializeAll(), background=True)
        session = service.open_session()
        with service._merge_lock:
            ticket = service.submit_update(session.session_id, executed_workload())
            with pytest.raises(RequestTimeoutError):
                ticket.wait(0.05)
        # the merge still applies after the waiter gave up
        assert ticket.wait(10.0).commit_index == 1
        service.stop()


class FlakyMaterializer(MaterializeAll):
    """Materializer that can be armed to blow up one batch."""

    def __init__(self):
        super().__init__()
        self.fail_next = False

    def select(self, eg, available):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("materializer exploded")
        return super().select(eg, available)


class TestMergeFailure:
    def test_worker_survives_merge_error(self):
        materializer = FlakyMaterializer()
        service = EGService(materializer, background=True)
        session = service.open_session()
        service.commit(session.session_id, executed_workload(1))

        materializer.fail_next = True
        with pytest.raises(RuntimeError, match="materializer exploded"):
            service.commit(session.session_id, executed_workload(2))

        # the failed batch must not kill the daemon merge worker: a later
        # commit still merges instead of timing out against a dead service
        result = service.commit(session.session_id, executed_workload(3), timeout=10.0)
        assert result.commit_index == 2
        assert service.stats().commits_total == 2
        service.stop()


class MergeLinger:
    """The merge worker's ``time.sleep``, recorded and held until released."""

    def __init__(self, monkeypatch):
        self.calls: list[float] = []
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        real_sleep = time.sleep

        def sleep(seconds):
            if threading.current_thread().name != "eg-merge-worker":
                return real_sleep(seconds)
            self.calls.append(seconds)
            self.entered.release()
            assert self.release.wait(10.0)

        monkeypatch.setattr(time, "sleep", sleep)


class TestBatchLinger:
    def test_commit_arriving_during_the_linger_joins_the_batch(self, monkeypatch):
        linger = MergeLinger(monkeypatch)
        service = EGService(MaterializeAll(), background=True, batch_linger_s=0.05)
        session = service.open_session()
        first = service.submit_update(session.session_id, executed_workload(1))
        assert linger.entered.acquire(timeout=10.0)  # the worker is lingering
        second = service.submit_update(session.session_id, executed_workload(2))
        linger.release.set()
        results = [first.wait(10.0), second.wait(10.0)]
        assert [r.batch_size for r in results] == [2, 2]
        assert [r.commit_index for r in results] == [1, 2]
        assert service.stats().batches == 1
        assert linger.calls == [0.05]
        service.stop()

    def test_stopping_service_drains_without_lingering(self, monkeypatch):
        linger = MergeLinger(monkeypatch)
        linger.release.set()
        service = EGService(MaterializeAll(), background=True, batch_linger_s=0.05)
        session = service.open_session()
        merging, finish = threading.Event(), threading.Event()
        update_batch = service.updater.update_batch

        def held_update_batch(*args, **kwargs):
            merging.set()
            assert finish.wait(10.0)
            return update_batch(*args, **kwargs)

        service.updater.update_batch = held_update_batch
        first = service.submit_update(session.session_id, executed_workload(1))
        assert merging.wait(10.0)  # lingered once, now inside the merge
        second = service.submit_update(session.session_id, executed_workload(2))
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        deadline = time.monotonic() + 10.0
        while service.running and time.monotonic() < deadline:
            time.sleep(0.001)
        assert not service.running
        finish.set()
        stopper.join(10.0)
        assert not stopper.is_alive()
        # the second commit was queued behind a stop request: merged on the
        # worker's next pass, as its own batch, with no second linger
        assert [first.wait(1.0).batch_size, second.wait(1.0).batch_size] == [1, 1]
        assert linger.calls == [0.05]


class TestShutdown:
    def test_stop_drains_queued_commits(self):
        service = EGService(MaterializeAll(), background=True)
        session = service.open_session()
        with service._merge_lock:
            tickets = [
                service.submit_update(session.session_id, executed_workload(n))
                for n in (1, 2)
            ]
            stopper = threading.Thread(target=service.stop)
            stopper.start()
        stopper.join(10.0)
        assert all(t.wait(1.0).commit_index in (1, 2) for t in tickets)
        assert not service.running
        with pytest.raises(ServiceStoppedError):
            service.submit_update(session.session_id, executed_workload())
        with pytest.raises(ServiceStoppedError):
            service.open_session()

    def test_stop_without_drain_fails_pending(self):
        service = EGService(MaterializeAll(), background=True)
        session = service.open_session()
        with service._merge_lock:
            ticket = service.submit_update(session.session_id, executed_workload())
            service.stop(drain=False)
        with pytest.raises(ServiceStoppedError):
            ticket.wait(1.0)
        assert service.stats().commits_total == 0

    def test_stop_is_idempotent(self):
        service = EGService(MaterializeAll())
        service.stop()
        service.stop()


class TestStats:
    def test_plan_and_latency_counters(self):
        with EGService(MaterializeAll()) as service:
            client = ServiceClient(service, name="c", cost_model=VirtualCostModel())
            from repro.workloads.synthetic_dag import wide_workload_script

            rng = np.random.default_rng(7)
            sources = {"wide": DataFrame({"x": rng.normal(size=8)})}
            client.run_script(wide_workload_script(2, 2, 0.05), sources)
            client.run_script(wide_workload_script(2, 2, 0.05), sources)
            stats = service.stats()
            assert stats.plans_total == 2
            assert stats.commits_total == 2
            assert stats.reuse_hits_total == 1  # second run loads from the EG
            assert stats.requests_timed == 2
            assert stats.request_p99_s >= stats.request_p50_s > 0.0
            assert stats.sessions[client.session_id].plans == 2

    def test_snapshot_is_frozen(self):
        with EGService(MaterializeAll()) as service:
            stats = service.stats()
            with pytest.raises(AttributeError):
                stats.plans_total = 5


class TestPlan:
    def test_plan_reads_the_materialized_set_of_its_version(self):
        with EGService(MaterializeAll()) as service:
            session = service.open_session()
            service.commit(session.session_id, executed_workload(3))
            with service.plan(session.session_id, query_workload(3)) as first:
                loads = set(first.result.plan.loads)
                version = first.version
            assert loads  # the plan actually reuses EG artifacts
            # the next version differs in nothing but the materialized set
            for vertex_id in loads:
                service.eg.deselect(vertex_id)
            service.versioned.publish()
            with service.plan(session.session_id, query_workload(3)) as second:
                assert second.version == version + 1
                assert not set(second.result.plan.loads) & loads
            assert service.stats().plans_total == 2


class TestIncrementalPublish:
    def test_publish_dirty_counters_track_batch_not_graph(self):
        with EGService(MaterializeAll()) as service:
            session = service.open_session()
            # first commit: everything is new, so everything is dirty
            service.commit(session.session_id, executed_workload(20, source="big"))
            first = service.stats()
            assert first.publishes == 1
            assert first.publish_dirty_vertices == service.eg.num_vertices
            # second commit is a small disjoint chain: only its own
            # vertices are dirty, not the 21 already published
            service.commit(session.session_id, executed_workload(3, source="small"))
            second = service.stats()
            assert second.publishes == 2
            assert second.publish_dirty_vertices - first.publish_dirty_vertices == 4
            assert second.mean_dirty_per_publish < service.eg.num_vertices
            # the utility index saw the same locality
            cost_dirty = second.utility_cost_dirty - first.utility_cost_dirty
            assert cost_dirty == 4

    def test_debug_cross_check_verifies_every_pass(self):
        from repro.materialization import HeuristicMaterializer

        service = EGService(
            HeuristicMaterializer(budget_bytes=10**9), debug_cross_check=True
        )
        with service:
            session = service.open_session()
            service.commit(session.session_id, executed_workload(3))
            service.commit(session.session_id, executed_workload(5))
            index = service.eg.utility_index
            assert index is not None
            assert index.cross_checks_passed >= 2
            assert index.deltas_applied >= 2


class TestMaintainedSelection:
    """SA's per-vertex facts live across merges on the service's indexed EG."""

    @staticmethod
    def _service(budget):
        from repro.materialization import StorageAwareMaterializer

        materializer = StorageAwareMaterializer(budget_bytes=budget)
        return EGService(materializer, debug_cross_check=True), materializer

    def test_cross_checked_across_the_budget_transition(self):
        service, materializer = self._service(10**9)
        with service:
            session = service.open_session().session_id
            for tag in "abc":
                service.commit(session, executed_workload(4, source=tag))
            assert materializer.routes == {"shortcut": 3, "budget": 0, "inexact": 0}
            # the third merge scored its own 4 new vertices + source, and the
            # 4 the second merge had just stored — not the 15 in the EG
            assert materializer.last_scored == 9 < service.eg.num_vertices
            everything = set(service.eg.stored_ids())
            assert len(everything) == 12

            # the budget starts to bind: the greedy loop runs and evicts
            materializer.budget_bytes = 100
            binding = service.commit(session, executed_workload(4, source="d"))
            assert materializer.routes["budget"] == 1
            assert binding.batch_report.evicted
            assert len(service.eg.stored_ids()) == 2  # two 40-byte frames

            # ... and stops: re-runs bring the payloads back; one more ranking
            # finds that its candidates fit, then nothing is ranked
            materializer.budget_bytes = 10**9
            for tag in "abcd":
                service.commit(session, executed_workload(4, source=tag))
            assert materializer.routes == {"shortcut": 6, "budget": 2, "inexact": 0}
            assert len(service.eg.stored_ids()) == 16 and everything < service.eg.stored_ids()
            # every select above was asserted equal to the greedy loop's answer
            assert service.eg.utility_index.cross_checks_passed == 8

    def test_restored_eg_builds_its_own_maintained_state(self):
        from repro.eg import ExperimentGraph, Updater
        from repro.materialization import StorageAwareMaterializer

        restored = ExperimentGraph()
        Updater(restored, MaterializeAll()).update(executed_workload(6, source="other"))
        materializer = StorageAwareMaterializer(budget_bytes=10**9)
        service = EGService(materializer, eg=restored, debug_cross_check=True)
        with service:
            session = service.open_session().session_id
            service.commit(session, executed_workload(2, source="new"))
            # the index is built from the restored EG: every vertex was dirty
            assert materializer.last_scored == service.eg.num_vertices == 10
            assert len(service.eg.stored_ids()) == 8
            service.commit(session, executed_workload(1, source="new"))
            assert materializer.last_scored < service.eg.num_vertices
