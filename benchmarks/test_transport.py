"""Binary transport — wire-byte accounting and the 64-client swarm.

Not a figure from the paper: the paper's system ships subgraphs between
clients and the EG server but does not specify a wire format.  This
benchmark gates the transport subsystem (``repro.transport``) on
machine-independent outcomes:

* the zero-copy columnar codec must shed >= 5x wire bytes against the
  JSON fallback on the steady-state exchange (the same source columns
  crossing the wire on every commit — binary ships bytes once, then
  dedup references), recorded as exact encoded-size counters;
* a swarm routed over TCP must converge to the *same* EG as a
  sequential replay, bit for bit;
* codec time must not show up in the top-5 self-time spans of a traced
  run — serialization is off the critical path;
* a served request costs the server **one** thread hand-off: pool
  submissions per request over a fixed sequence, counted at
  ``ThreadPoolExecutor.submit``.

Encoded sizes are pure functions of the (seeded) inputs, so the
``vc_exact_transport_*`` counters gate exactly regardless of host speed.
The swarm half scales: 64 clients at full scale, 16 under
``REPRO_SCALE < 0.75`` (counters are recorded for the 16-client shape
that CI runs).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conftest import FULL_SCALE, report

from repro.client.executor import VirtualCostModel
from repro.dataframe import DataFrame
from repro.experiments.swarm import run_swarm, swarm_script, swarm_sources
from repro.materialization.simple import MaterializeAll
from repro.obs.profile import ProfileReport
from repro.obs.sinks import InMemorySink
from repro.obs.trace import Tracer, use_tracer
from repro.service import EGService
from repro.transport import AsyncTransportServer, TransportServiceClient
from repro.transport.codec import (
    BinaryWireCodec,
    ColumnLedger,
    JsonWireCodec,
    encoded_size,
)
from repro.transport.wire import encode_payload

#: fixed regardless of REPRO_SCALE — encoded sizes feed exact counters
ROWS = 4096
COLUMNS = 6
REPEAT_COMMITS = 4
CODEC_SPANS = {"transport.encode", "transport.decode"}


def _commit_message(seed: int = 97) -> dict:
    """A commit-shaped message tree: column-heavy, lineage ids attached."""
    rng = np.random.default_rng(seed)
    frame = DataFrame(
        {f"c{i}": rng.standard_normal(ROWS) for i in range(COLUMNS)}
    )
    return {
        "op": "commit",
        "session_id": "s1",
        "label": "bench",
        "workload": {"payload": encode_payload(frame)},
    }


def test_transport_wire_bytes(benchmark):
    message = _commit_message()

    def run():
        json_codec = JsonWireCodec()
        cold_binary = BinaryWireCodec()  # no ledger: every ship is full
        warm_binary = BinaryWireCodec(ColumnLedger())
        single_json = encoded_size(json_codec.encode(message))
        single_binary = encoded_size(cold_binary.encode(message))
        repeat_json = sum(
            encoded_size(json_codec.encode(message)) for _ in range(REPEAT_COMMITS)
        )
        repeat_binary = sum(
            encoded_size(warm_binary.encode(message)) for _ in range(REPEAT_COMMITS)
        )
        return single_json, single_binary, repeat_json, repeat_binary

    single_json, single_binary, repeat_json, repeat_binary = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    single_ratio = single_json / single_binary
    repeat_ratio = repeat_json / repeat_binary

    report(
        f"Transport codec: {COLUMNS}x{ROWS} float64 commit "
        f"json={single_json}B binary={single_binary}B ({single_ratio:.2f}x)",
        f"  {REPEAT_COMMITS} repeat commits: json={repeat_json}B "
        f"binary={repeat_binary}B ({repeat_ratio:.2f}x, dedup refs after ship #1)",
    )

    # cold binary already beats JSON; the dedup steady state is the gate
    assert single_ratio > 2.0
    assert repeat_ratio >= 5.0

    # encoded sizes are pure functions of the seeded input — exact gate
    benchmark.extra_info["vc_exact_transport_json_bytes"] = single_json
    benchmark.extra_info["vc_exact_transport_binary_bytes"] = single_binary
    benchmark.extra_info["vc_exact_transport_repeat_json_bytes"] = repeat_json
    benchmark.extra_info["vc_exact_transport_repeat_binary_bytes"] = repeat_binary


def test_transport_swarm(benchmark):
    clients = 64 if FULL_SCALE else 16

    def run():
        return run_swarm(
            clients=clients,
            rounds=2,
            op_seconds=0.01,
            replay=True,
            transport="tcp",
        )

    memory = InMemorySink()
    with use_tracer(Tracer(sinks=[memory])):
        result = benchmark.pedantic(run, rounds=1, iterations=1)

    wire = result.wire_stats
    profile = ProfileReport.from_spans(memory.spans, top_k=5)
    top5 = [entry.name for entry in profile.top(5)]
    codec_self_s = sum(
        entry.self_s
        for entry in ProfileReport.from_spans(memory.spans, top_k=64).entries
        if entry.name in CODEC_SPANS
    )

    report(
        f"Transport swarm: {result.clients} clients x {result.rounds} rounds "
        f"over tcp/binary -> {result.workloads} commits "
        f"in {result.wall_seconds:.2f}s replay_identical={result.fingerprint_match}",
        f"  wire: {wire['bytes_in']:.0f}B in / {wire['bytes_out']:.0f}B out, "
        f"{wire['requests']:.0f} requests, dedup_refs={wire['dedup_refs']:.0f} "
        f"saved={wire['dedup_bytes_saved']:.0f}B shed={wire['shed']:.0f}",
        f"  profile top-5 by self time: {top5} "
        f"(codec self={codec_self_s * 1e3:.1f}ms)",
    )

    # the concurrent tcp run converges to the sequential replay's EG
    assert result.fingerprint_match is True
    assert result.stats.commits_total == clients * 2
    # column dedup engaged: repeat source ships became references
    assert wire["dedup_refs"] > 0
    # serialization is off the critical path
    assert not CODEC_SPANS & set(top5)

    # the EG the swarm converges to is deterministic for the 16-client
    # shape CI runs; at full scale (64 clients) the counters are simply
    # not recorded — check_regression.py notes them as missing
    if clients == 16:
        benchmark.extra_info["vc_exact_transport_eg_vertices"] = result.eg_vertices
        benchmark.extra_info["vc_exact_transport_eg_edges"] = result.eg_edges
        benchmark.extra_info["vc_exact_transport_eg_materialized"] = (
            result.eg_materialized
        )


def test_transport_one_hop(benchmark, monkeypatch):
    """Every thread hand-off the server makes to serve a fixed request
    sequence (session ops, pings, two plan/commit round trips that ship
    payloads both ways, stats), per request it served."""
    submits = []
    real_submit = ThreadPoolExecutor.submit

    def counting_submit(pool, fn, /, *args, **kwargs):
        if pool._thread_name_prefix.startswith("eg-transport"):
            submits.append(pool._thread_name_prefix)
        return real_submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)

    def run():
        submits.clear()
        with EGService(MaterializeAll()) as service:
            with AsyncTransportServer(service) as server:
                with TransportServiceClient(
                    *server.address, name="hop", cost_model=VirtualCostModel()
                ) as client:
                    for _ in range(4):
                        client.ping()
                    for round_index in range(2):
                        client.run_script(
                            swarm_script(0, round_index, 0.0), swarm_sources()
                        )
                    client.stats()
                return server.wire_stats()["requests"], len(submits)

    requests, submitted = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        f"Transport one hop: {requests:.0f} requests served with "
        f"{submitted} pool submissions ({submitted / requests:.2f} per request)"
    )
    assert requests == 11  # open, 4 pings, 2 x (plan, commit), stats, close
    benchmark.extra_info["vc_exact_transport_pool_submits_per_request"] = (
        submitted / requests
    )
