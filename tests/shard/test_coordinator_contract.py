"""The coordinator contract over worker-process shards.

``ProcessShardCoordinator`` is written once over ``EGService``-shaped
``RemoteShard`` handles; these are the guarantees it makes to every
caller.  Worker lifecycle behaviour (crash -> typed error, restart
rejoin, checkpoints) lives in ``test_proc.py``.
"""

import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.storage import ArtifactDivergenceError, StorageTier
from repro.eg.updater import Updater
from repro.experiments.swarm import eg_fingerprint
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization.simple import MaterializeAll
from repro.obs import FlightRecorder
from repro.service import EGService
from repro.service.errors import RequestTimeoutError, ServiceOverloadedError
from repro.shard import (
    ProcessShardCoordinator,
    StitchedSnapshot,
    balanced_source_names,
)

N_SHARDS = 2
NAMES = balanced_source_names(N_SHARDS, N_SHARDS)


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("contract-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


class Join(DataOperation):
    def __init__(self, tag=0):
        super().__init__("contract-join", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data[0]


def frame(offset: float = 0.0) -> DataFrame:
    return DataFrame({"x": np.arange(4.0) + offset})


def make_workload(index: int, executed: bool = True) -> WorkloadDAG:
    """Workload ``index``: a chain on group ``index % 2``; every third one
    ends in a join with the other group (a cross-shard commit).

    ``executed=False`` leaves the same DAG uncomputed, for planning.
    """
    group = index % N_SHARDS
    dag = WorkloadDAG()
    current = dag.add_source(NAMES[group], payload=frame(float(group)))
    for level in range(3):
        current = dag.add_operation([current], Step((group, index // 4, level)))
        if executed:
            dag.vertex(current).record_result(
                frame(float(level)), compute_time=0.25 * (level + 1)
            )
    if index % 3 == 2:
        other = dag.add_source(NAMES[1 - group], payload=frame(float(1 - group)))
        current = dag.add_operation([current, other], Join((group, index)))
        if executed:
            dag.vertex(current).record_result(frame(9.0), compute_time=1.0)
    dag.mark_terminal(current)
    return dag


CROSS = 2  # make_workload(2) spans both shards

#: what every topology reports about itself; a coordinator adds ``shards``
HEALTH_KEYS = {"status", "version", "open_sessions", "queue", "recorder", "slo", "alerts"}
DEBUG_KEYS = {"recorder", "recent_traces", "slowest_spans", "alerts"}
STATS_FIELDS = {
    "version",
    "open_sessions",
    "plans_total",
    "commits_total",
    "rejected_commits_total",
    "overload_rejections",
    "retries_total",
    "queue_depth",
    "queue_capacity",
    "queue_peak",
    "batches",
    "merged_workloads",
    "max_batch_size",
    "merge_seconds_total",
    "max_merge_seconds",
    "planned_loads_total",
    "reuse_hits_total",
    "plan_cache_hits",
    "plan_cache_misses",
    "publishes",
    "publish_dirty_vertices",
    "utility_cost_dirty",
    "utility_potential_dirty",
    "deferred_evictions",
    "requests_timed",
    "request_p50_s",
    "request_p99_s",
    "sessions",
}


def sequential_replay(labels: list[str]) -> ExperimentGraph:
    eg = ExperimentGraph()
    updater = Updater(eg, MaterializeAll())
    for label in labels:
        updater.update(make_workload(int(label)))
    return eg


@pytest.fixture(params=["proc"])
def service(request):
    """A fresh 2-shard coordinator over worker processes."""
    coordinator = ProcessShardCoordinator(N_SHARDS)
    try:
        yield coordinator
    finally:
        coordinator.stop()


class _WrappedPiece:
    """A piece ticket whose ``wait`` is scripted, over the real one."""

    def __init__(self, inner, script):
        self.inner = inner
        self.script = script
        self.timeouts: list[float | None] = []

    @property
    def done(self) -> bool:
        return self.inner.done

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return self.script(self.inner, timeout)


class TestContract:
    def test_commit_indices_are_gap_free(self, service):
        session = service.open_session("writer")
        versions = []
        for index in range(6):
            result = service.commit(
                session.session_id, make_workload(index), label=str(index)
            )
            assert result.commit_index == index + 1
            versions.append(result.version)
        assert versions == sorted(versions)
        assert [record.commit_index for record in service.commit_log()] == list(
            range(1, 7)
        )
        assert len(result.shard_results) == 2  # workload 5 is a cross commit
        assert service.partitioned.stub_count > 0

    def test_refused_submission_burns_no_index(self, service):
        """...and enqueues no piece on the shards that did have room."""
        session = service.open_session("writer")
        service.commit(session.session_id, make_workload(0), label="0")
        merged_before = [stats.merged_workloads for stats in service.shard_stats()]
        # shard 1 is full; shard 0 has room — the cross commit must bounce
        # before anything reaches shard 0
        service.shards[1].queue_headroom = lambda: 0
        with pytest.raises(ServiceOverloadedError):
            service.submit_update(session.session_id, make_workload(CROSS))
        del service.shards[1].queue_headroom
        assert service.partitioned.workloads_observed == 1
        assert [
            stats.merged_workloads for stats in service.shard_stats()
        ] == merged_before
        assert service.stats().overload_rejections == 1
        retried = service.commit(session.session_id, make_workload(CROSS), label="2")
        assert retried.commit_index == 2

    def test_concurrent_tenants_match_replay(self, service):
        n_workloads = 12
        errors: list[BaseException] = []

        def tenant(worker: int) -> None:
            try:
                session = service.open_session(f"tenant-{worker}")
                for index in range(worker, n_workloads, 3):
                    service.commit(
                        session.session_id, make_workload(index), label=str(index)
                    )
                service.close_session(session.session_id)
            except BaseException as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=tenant, args=(w,)) for w in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        service.stop()
        assert not errors
        log = service.commit_log()
        assert [record.commit_index for record in log] == list(
            range(1, n_workloads + 1)
        )
        flat = service.flatten()
        replay = sequential_replay([record.label for record in log])
        assert eg_fingerprint(flat) == eg_fingerprint(replay)
        assert flat.materialized_ids() == replay.materialized_ids()

    def test_stitched_plan_prices_non_home_cold(self, service):
        session = service.open_session("planner")
        service.commit(session.session_id, make_workload(CROSS), label="seed")
        with service.plan(
            session.session_id, make_workload(CROSS, executed=False)
        ) as plan:
            snapshot = plan.eg
            assert isinstance(snapshot, StitchedSnapshot)
            remote = {
                vertex_id
                for vertex_id in snapshot.materialized_ids()
                if snapshot.owner_of(vertex_id) != snapshot.home
            }
            assert remote
            assert {snapshot.tier_of(vertex_id) for vertex_id in remote} == {
                StorageTier.COLD
            }
            loads = plan.result.plan.loads
            assert loads
            for vertex_id in loads:
                assert snapshot.load(vertex_id) is not None
                if vertex_id in remote:
                    assert plan.result.load_tiers[vertex_id] is StorageTier.COLD
        text = service.metrics_text()
        assert "repro_shard_cross_shard_commits_total 1" in text
        assert "repro_shard_remote_planned_loads_total" in text
        assert "# source: shard0 worker" in text

    def test_single_shard_plan_uses_shard_cache(self, service):
        session = service.open_session("planner")
        service.commit(session.session_id, make_workload(0), label="seed")
        for _ in range(2):
            with service.plan(
                session.session_id, make_workload(0, executed=False)
            ) as plan:
                assert plan.result.plan.loads
                assert not isinstance(plan.eg, StitchedSnapshot)
        assert service.stats().plan_cache_hits >= 1

    def test_ticket_wait_shares_one_deadline(self, service):
        """One deadline across the pieces; a timeout does not finalise."""
        session = service.open_session("writer")
        ticket = service.submit_update(
            session.session_id, make_workload(CROSS), label="2"
        )
        calls = {"n": 0}

        def slow_then_real(inner, timeout):
            time.sleep(0.05)  # eats part of the shared budget
            return inner.wait(timeout)

        def timeout_once(inner, timeout):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RequestTimeoutError("scripted timeout")
            return inner.wait(timeout)

        first = _WrappedPiece(ticket.tickets[0], slow_then_real)
        second = _WrappedPiece(ticket.tickets[1], timeout_once)
        ticket.tickets = {0: first, 1: second}
        with pytest.raises(RequestTimeoutError):
            ticket.wait(2.0)
        # one deadline: the second piece got what the first left over
        assert first.timeouts[0] <= 2.0
        assert second.timeouts[0] <= first.timeouts[0] - 0.05
        # a timeout is not an outcome: nothing logged, nothing counted
        assert service.commit_log() == []
        assert service.stats().commits_total == 0
        result = ticket.wait(10.0)
        assert result.commit_index == 1
        assert [record.label for record in service.commit_log()] == ["2"]
        assert ticket.wait(10.0) is result  # finalised exactly once

    def test_real_timeout_can_be_waited_on_again(self):
        """A piece reply that lands after its wait timed out still resolves
        the ticket: the commit is finalised exactly once, and the log
        replays to the EG the shards hold."""
        coordinator = ProcessShardCoordinator(N_SHARDS, batch_linger_s=0.5)
        try:
            session = coordinator.open_session("writer")
            ticket = coordinator.submit_update(
                session.session_id, make_workload(CROSS), label=str(CROSS)
            )
            with pytest.raises(RequestTimeoutError):
                ticket.wait(0.05)
            assert coordinator.commit_log() == []
            result = ticket.wait(10.0)
            assert result.commit_index == 1
            assert [record.label for record in coordinator.commit_log()] == [
                str(CROSS)
            ]
            assert ticket.wait(10.0) is result
            assert coordinator.stats().commits_total == 1
        finally:
            coordinator.stop()
        flat = coordinator.flatten()
        labels = [record.label for record in coordinator.commit_log()]
        assert eg_fingerprint(flat) == eg_fingerprint(sequential_replay(labels))

    def test_failed_piece_waits_out_siblings(self, service):
        """...and only then finalises the commit as rejected."""
        session = service.open_session("writer")
        ticket = service.submit_update(
            session.session_id, make_workload(CROSS), label="2"
        )

        def diverge(inner, timeout):
            inner.wait(timeout)
            raise ArtifactDivergenceError("scripted divergence")

        failing = _WrappedPiece(ticket.tickets[0], diverge)
        sibling = _WrappedPiece(ticket.tickets[1], lambda inner, t: inner.wait(t))
        ticket.tickets = {0: failing, 1: sibling}
        with pytest.raises(ArtifactDivergenceError):
            ticket.wait(10.0)
        assert sibling.timeouts, "the sibling piece was not waited out"
        assert service.commit_log() == []
        stats = service.stats()
        assert stats.rejected_commits_total == 1
        assert stats.commits_total == 0
        with pytest.raises(ArtifactDivergenceError):
            ticket.wait(10.0)
        assert service.stats().rejected_commits_total == 1  # recorded once
        # the index is burned, the order stays gap-free from here on
        after = service.commit(session.session_id, make_workload(0), label="0")
        assert after.commit_index == 2

    def test_session_mirroring_and_close(self, service):
        session = service.open_session("tenant")
        assert [stats.open_sessions for stats in service.shard_stats()] == [1, 1]
        assert service.stats().open_sessions == 1
        service.close_session(session.session_id)
        assert [stats.open_sessions for stats in service.shard_stats()] == [0, 0]
        assert service.stats().open_sessions == 0

    def test_stats_request_vs_merge_shaped(self, service):
        session = service.open_session("writer")
        for index in range(6):
            service.commit(session.session_id, make_workload(index))
        per_shard = service.shard_stats()
        combined = service.stats()
        # request-shaped: the coordinator sees every workload exactly once
        assert combined.commits_total == 6
        assert set(combined.sessions) == {session.session_id}
        # merge-shaped: summed over the shards, which count pieces
        assert combined.merged_workloads == sum(
            stats.merged_workloads for stats in per_shard
        )
        assert combined.merged_workloads == 8  # workloads 2 and 5 span both shards
        assert combined.publishes == sum(stats.publishes for stats in per_shard)
        assert combined.queue_capacity == sum(
            stats.queue_capacity for stats in per_shard
        )
        assert combined.max_batch_size == max(
            stats.max_batch_size for stats in per_shard
        )
        text = service.metrics_text()
        assert "repro_shard_routed_workloads_total" in text
        assert "repro_shard_workload_span_count 6" in text
        assert "repro_shard_stub_edges_total" in text

    def test_health_and_debug_info_keys(self, service):
        session = service.open_session("probe")
        service.commit(session.session_id, make_workload(CROSS))
        health = service.health()
        assert set(health) == HEALTH_KEYS | {"shards"}
        assert health["status"] == "ok"
        assert health["open_sessions"] == 1
        assert set(health["queue"]) == {"depth", "capacity", "peak", "headroom"}
        assert [set(shard) for shard in health["shards"]] == [
            {"shard", "status", "version", "queue"}
        ] * N_SHARDS
        assert all(shard["status"] == "ok" for shard in health["shards"])
        assert health["queue"]["capacity"] == sum(
            shard["queue"]["capacity"] for shard in health["shards"]
        )
        assert health["version"] == sum(
            shard["version"] for shard in health["shards"]
        )
        assert health["recorder"] is not None and health["slo"] is not None

        info = service.debug_info()
        assert set(info) == DEBUG_KEYS | {"shards"}
        assert [set(shard) for shard in info["shards"]] == [
            {
                "shard",
                "queue_depth",
                "queue_peak",
                "batches",
                "merged_workloads",
                "plan_cache_hit_rate",
            }
        ] * N_SHARDS
        assert all(shard["merged_workloads"] == 1 for shard in info["shards"])

        service.stop()
        stopped = service.health()
        assert stopped["status"] == "stopped"
        assert all(shard["status"] == "stopped" for shard in stopped["shards"])


class TestReportedSurface:
    """The exact keys a service reports, per topology (sharded == plain
    plus ``shards``), and the 28 ``ServiceStats`` fields."""

    def test_plain_service(self):
        recorder = FlightRecorder(slow_threshold_s=0.0)  # keeps every trace
        with EGService(
            MaterializeAll(), background=True, flight_recorder=recorder
        ) as plain:
            session = plain.open_session("probe")
            plain.commit(session.session_id, make_workload(0))
            assert set(plain.health()) == HEALTH_KEYS
            assert set(plain.debug_info()) == DEBUG_KEYS
            trace_id = recorder.kept_traces(1)[0]["trace_id"]
            assert set(plain.debug_info(trace_id=trace_id)) == DEBUG_KEYS | {"trace"}
            stats = asdict(plain.stats())
            assert set(stats) == STATS_FIELDS and len(stats) == 28
            assert set(stats["sessions"][session.session_id]) == {
                "session_id",
                "name",
                "plans",
                "commits",
                "rejected_commits",
                "retries",
                "planned_loads",
                "reuse_hits",
            }
        dark = EGService(MaterializeAll())
        assert set(dark.health()) == HEALTH_KEYS
        assert set(dark.debug_info(trace_id="ignored")) == DEBUG_KEYS

    def test_coordinator_stats(self, service):
        """(``test_health_and_debug_info_keys`` pins a coordinator's keys.)"""
        assert set(asdict(service.stats())) == STATS_FIELDS
        for shard_stats in service.shard_stats():
            assert set(asdict(shard_stats)) == STATS_FIELDS
