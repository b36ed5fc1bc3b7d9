"""Observability overhead gate: tracing must be free when disabled.

The default tracer is a no-op (``repro.obs.trace.NoopTracer``); every
instrumented hot path pays only one shared-singleton context-manager
entry per span.  Rather than an A/B wall-clock diff (noisy at benchmark
scale), the gate is computed from first principles:

1. run the swarm under the default no-op tracer and take its wall time,
2. run the same swarm under an enabled in-memory tracer to count how
   many spans the run actually emits,
3. microbenchmark the no-op span path to get a per-span cost,

then assert ``spans x per_span_cost`` — the total instrumentation cost
the no-op run paid — stays under 3% of the measured wall time.

``test_obs_recorder_overhead`` counts the *always-on* plane instead of
projecting its cost: on a ``stream_tcp``-shaped swarm (one tenant over
the binary transport, background service, default plane) the spans the
recorder ingests and the traces it finalizes per workload, the entries
the plane's tracer keeps in a ring (none: the recorder's per-trace
buffers are the only span store) and the ``ProfileReport``s built (none:
profiles come only from an explicit ``Tracer``).  Every count is exact,
so a new span site or a second store shows up as a failing
``vc_exact_`` row.  What the plane costs in CPU is measured, not
projected, by ``benchmarks/obs_cost.py`` (alternating plane-on /
plane-off pairs of the unmodified end-to-end harness).
"""

import time

from conftest import report

import repro.service.telemetry as telemetry
from repro.experiments.swarm import run_swarm
from repro.obs.plane import FlightRecorder
from repro.obs.profile import ProfileReport
from repro.obs.sinks import InMemorySink
from repro.obs.trace import NoopTracer, Tracer, get_tracer, use_tracer

CLIENTS = 4
ROUNDS = 3
OP_SECONDS = 0.01

MICROBENCH_ITERS = 20_000
OVERHEAD_BUDGET = 0.03
STREAM_ROUNDS = 8


def _noop_span_cost() -> float:
    """Per-span seconds of the disabled path (context-manager + lookup)."""
    tracer = NoopTracer()
    begin = time.perf_counter()
    for _ in range(MICROBENCH_ITERS):
        with tracer.span("bench.noop", vertex="abcdef012345", cache_hit=False):
            pass
    return (time.perf_counter() - begin) / MICROBENCH_ITERS


def test_obs_overhead(benchmark):
    def run():
        # recorder off: this leg measures the dark default-tracer path
        return run_swarm(
            clients=CLIENTS,
            rounds=ROUNDS,
            op_seconds=OP_SECONDS,
            replay=False,
            flight_recorder=False,
        )

    # 1) wall time under the default no-op tracer
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = result.wall_seconds

    # 2) span census under an enabled tracer
    memory = InMemorySink()
    with use_tracer(Tracer(sinks=[memory])):
        traced = run()
    spans = memory.spans
    by_name: dict[str, int] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1

    # 3) projected cost the no-op run paid for those span sites
    per_span = _noop_span_cost()
    projected = len(spans) * per_span
    ratio = projected / wall

    report(
        f"Obs overhead: {len(spans)} spans x {per_span * 1e9:.0f}ns noop "
        f"= {projected * 1e3:.3f}ms over {wall:.2f}s wall "
        f"({ratio * 100:.3f}% <= {OVERHEAD_BUDGET * 100:.0f}%)",
        f"  spans by name: {dict(sorted(by_name.items()))}",
    )

    assert result.stats.commits_total == CLIENTS * ROUNDS
    assert ratio < OVERHEAD_BUDGET

    # the traced run must cover every instrumented subsystem
    assert by_name["client.workload"] == CLIENTS * ROUNDS
    assert by_name["service.commit"] == CLIENTS * ROUNDS
    assert {"reuse.plan", "executor.execute", "service.merge_batch"} <= set(by_name)

    # machine-independent counters for check_regression.py: span volume is
    # a proxy for instrumentation creep on the hot paths
    benchmark.extra_info["vc_exact_obs_workload_spans"] = by_name["client.workload"]
    benchmark.extra_info["vc_exact_obs_commit_spans"] = by_name["service.commit"]
    benchmark.extra_info["vc_obs_spans_total"] = len(spans)
    assert traced.stats.commits_total == CLIENTS * ROUNDS


def test_obs_recorder_overhead(benchmark, monkeypatch):
    """What the always-on plane records per workload, counted exactly."""
    recorder = FlightRecorder(
        slow_threshold_s=0.0, head_sample_every=0, keep_last=1024, max_traces=1024
    )

    def run():
        return run_swarm(
            clients=CLIENTS,
            rounds=ROUNDS,
            op_seconds=OP_SECONDS,
            replay=False,
            flight_recorder=recorder,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.recorder_stats  # snapshot taken before service.stop()
    assert result.stats.commits_total == CLIENTS * ROUNDS

    # at slow_threshold 0 the tail keeps everything: nothing may drop,
    # and every client workload trace must be retained by name
    assert stats["decisions"]["dropped"] == 0
    workload_traces = [
        t for t in recorder.kept_traces(limit=None) if t["root"] == "client.workload"
    ]
    assert len(workload_traces) == CLIENTS * ROUNDS

    # the stream_tcp shape with the default plane: one tenant, so every
    # plan sees the previous merge and the counts do not depend on timing
    plane_tracers = []
    profiles = []
    install, from_trace = telemetry.install_recorder, ProfileReport.from_trace

    def installing(plane_recorder):
        install(plane_recorder)
        plane_tracers.append(get_tracer())

    def profiling(*args, **kwargs):
        profiles.append(args)
        return from_trace(*args, **kwargs)

    monkeypatch.setattr(telemetry, "install_recorder", installing)
    monkeypatch.setattr(ProfileReport, "from_trace", profiling)
    stream = run_swarm(
        clients=1,
        rounds=STREAM_ROUNDS,
        op_seconds=OP_SECONDS,
        batch_linger_s=0.0,
        replay=False,
        transport="tcp",
    )
    [plane_tracer] = plane_tracers
    ring = len(plane_tracer.finished_spans())
    streamed = stream.recorder_stats
    spans_per_workload = streamed["spans_seen"] / stream.workloads
    traces_per_workload = streamed["traces_total"] / stream.workloads

    report(
        f"Recorder volume, stream_tcp shape ({stream.workloads} workloads): "
        f"{spans_per_workload:.2f} spans and {traces_per_workload:.2f} traces "
        f"per workload, {ring} ring entries, {len(profiles)} profiles built",
        f"  keep-everything swarm decisions: {stats['decisions']}",
    )
    assert stream.workloads == STREAM_ROUNDS
    assert streamed["buffered_traces"] == 0
    assert ring == 0 and profiles == []

    benchmark.extra_info["vc_exact_obs_recorder_workload_traces"] = len(
        workload_traces
    )
    benchmark.extra_info["vc_exact_obs_recorder_dropped"] = stats["decisions"][
        "dropped"
    ]
    benchmark.extra_info["vc_obs_recorder_spans_seen"] = stats["spans_seen"]
    benchmark.extra_info["vc_exact_obs_stream_spans_per_workload"] = spans_per_workload
    benchmark.extra_info["vc_exact_obs_stream_traces_per_workload"] = (
        traces_per_workload
    )
    benchmark.extra_info["vc_exact_obs_plane_ring_entries"] = ring
    benchmark.extra_info["vc_exact_obs_plane_profiles_built"] = len(profiles)
