"""Sharded service telemetry: one plane at the coordinator, shard rollups."""

from repro.obs.plane import FlightRecorder
from repro.obs.trace import NoopTracer, get_tracer
from repro.shard import ProcessShardCoordinator


class TestShardedTelemetry:
    def test_one_recorder_at_the_coordinator(self):
        service = ProcessShardCoordinator(2)
        try:
            assert service.flight_recorder is not None
            # shards never run their own plane: one recorder, one tracer
            assert all(shard.health()["recorder"] is None for shard in service.shards)
            assert get_tracer().enabled
        finally:
            service.stop()
        assert isinstance(get_tracer(), NoopTracer)

    def test_health_rolls_up_per_shard_queues(self):
        service = ProcessShardCoordinator(3)
        try:
            health = service.health()
            assert health["status"] == "ok"
            assert len(health["shards"]) == 3
            assert health["queue"]["capacity"] == sum(
                shard["queue"]["capacity"] for shard in health["shards"]
            )
            assert all(shard["status"] == "ok" for shard in health["shards"])
        finally:
            service.stop()
        assert service.health()["status"] == "stopped"

    def test_debug_info_includes_shard_stats(self):
        recorder = FlightRecorder(slow_threshold_s=0.0, head_sample_every=0)
        service = ProcessShardCoordinator(2, flight_recorder=recorder)
        try:
            info = service.debug_info()
            assert len(info["shards"]) == 2
            assert {"shard", "queue_depth", "batches"} <= set(info["shards"][0])
            assert "alerts" not in info
        finally:
            service.stop()

    def test_recorder_false_stays_dark(self):
        service = ProcessShardCoordinator(2, flight_recorder=False)
        try:
            assert service.flight_recorder is None
            assert isinstance(get_tracer(), NoopTracer)
        finally:
            service.stop()
