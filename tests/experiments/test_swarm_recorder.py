"""Ground truth for tail sampling: 64 clients, recorder vs. full record.

An unbounded :class:`InMemorySink` rides the same tracer as the
:class:`FlightRecorder`, so every span the recorder saw is on record.
Re-running the published decision procedure over the complete record
must reproduce the recorder's kept set exactly — 100% of slow, errored
and shed traces kept, the rest head-sampled by the deterministic
``crc32`` rule.
"""

import zlib

from repro.experiments.swarm import run_swarm
from repro.obs.plane import FlightRecorder
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, use_tracer


SLOW_THRESHOLD_S = 0.03
HEAD_SAMPLE_EVERY = 4


def expected_decision(spans) -> str:
    root = next((s for s in spans if s.parent_id is None), None)
    if root is None:
        root = min(spans, key=lambda s: s.start_s)
    for span in spans:
        if span.attributes.get("error") == "ServiceOverloadedError":
            return "shed"
    if any(span.attributes.get("error") for span in spans):
        return "error"
    if root.duration_s >= SLOW_THRESHOLD_S:
        return "slow"
    if zlib.crc32(root.trace_id.encode()) % HEAD_SAMPLE_EVERY == 0:
        return "sampled"
    return "dropped"


class TestSwarmGroundTruth:
    def test_recorder_matches_full_record_across_64_clients(self):
        memory = InMemorySink()
        recorder = FlightRecorder(
            slow_threshold_s=SLOW_THRESHOLD_S,
            head_sample_every=HEAD_SAMPLE_EVERY,
            keep_last=4096,
            max_traces=4096,
        )
        with use_tracer(Tracer(sinks=[memory], keep_last=1)):
            result = run_swarm(
                clients=64,
                rounds=1,
                op_seconds=0.002,
                batch_linger_s=0.05,
                replay=False,
                flight_recorder=recorder,
            )
        assert result.workloads == 64

        by_trace: dict[str, list] = {}
        for span in memory.spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        roots = [
            s for s in memory.spans
            if s.parent_id is None and s.name == "client.workload"
        ]
        assert len(roots) == 64

        # the recorder saw exactly what the unbounded sink saw
        stats = recorder.stats()
        assert stats["spans_seen"] == len(memory.spans)
        assert stats["span_overflow"] == 0
        assert stats["evicted_traces"] == 0

        expected = {
            trace_id: expected_decision(spans)
            for trace_id, spans in by_trace.items()
        }
        actual = {
            t["trace_id"]: t["decision"]
            for t in recorder.kept_traces(limit=None)
        }
        assert actual == {
            trace_id: decision
            for trace_id, decision in expected.items()
            if decision != "dropped"
        }

        # the tail-sampling contract: no slow/errored/shed trace lost
        must_keep = {
            trace_id
            for trace_id, decision in expected.items()
            if decision in ("shed", "error", "slow")
        }
        assert must_keep <= set(actual)
        assert must_keep, "the swarm produced no slow traces to protect"

        # per-decision tallies line up with the ground truth
        from collections import Counter

        tallies = Counter(expected.values())
        for decision in ("shed", "error", "slow", "sampled", "dropped"):
            assert stats["decisions"][decision] == tallies.get(decision, 0)

        # the swarm result carried the same picture out
        assert result.recorder_stats["spans_seen"] == stats["spans_seen"]
