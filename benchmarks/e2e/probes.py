"""Layer probes: micro-benchmarks run on the state a workload produced.

Each probe times one public function of one layer at least
:data:`ITERATIONS` times on inputs taken from the traced run — its last
executed DAGs, its final Experiment Graph — and reports the median, so an
end-to-end shift can be localised to a layer without a profiler.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.eg.graph import ExperimentGraph
from repro.eg.updater import Updater
from repro.materialization import MaterializeAll
from repro.reuse import LinearReuse
from repro.shard import route_workload
from repro.storage import TieredArtifactStore
from repro.transport.codec import BinaryWireCodec, ColumnLedger
from repro.transport.wire import encode_workload, sanitize_tree

__all__ = ["ITERATIONS", "run_probes", "ping_rtt_us"]

ITERATIONS = 200


def _median_seconds(
    call: Callable[[Any], Any], prepare: Callable[[int], Any] | None = None
) -> float:
    """Median wall seconds of ``call(i)`` over :data:`ITERATIONS` calls;
    ``prepare(i)`` runs untimed before each and its result is passed on."""
    samples = []
    for index in range(ITERATIONS):
        argument = prepare(index) if prepare is not None else index
        started = time.perf_counter()
        call(argument)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def ping_rtt_us(pool: Any) -> float:
    """Idle ``ping`` round trip: the frame + dispatch floor of a request."""
    pool.request({"op": "ping"})  # dial outside the timed calls
    return 1e6 * _median_seconds(lambda _index: pool.request({"op": "ping"}))


def _commit_message(dag: Any) -> dict[str, Any]:
    """The commit request a transport client would send for ``dag``."""
    workload = encode_workload(dag, include_payloads=True)
    # the Kaggle scripts carry estimators in operation parameters and model
    # metadata, which have no wire form; ship their repr, as the debug ops do
    for vertex in workload["v"]:
        vertex["m"] = sanitize_tree(vertex["m"])
    for edge in workload["e"]:
        if edge["op"] is not None:
            edge["op"]["p"] = sanitize_tree(edge["op"]["p"])
    return {"op": "commit", "session_id": "probe", "label": "", "workload": workload}


def _codec_probes(executed: Sequence[Any]) -> dict[str, float]:
    """``BinaryWireCodec`` on commit messages of the captured DAGs: encode
    and decode with a cold ledger, encode again with a warmed one."""
    messages = [_commit_message(dag) for dag in executed]
    bodies = [
        b"".join(bytes(part) for part in BinaryWireCodec(ColumnLedger()).encode(message))
        for message in messages
    ]
    mean_mb = sum(len(body) for body in bodies) / len(bodies) / 1e6

    def pick(items: Sequence[Any]) -> Callable[[int], Any]:
        return lambda index: items[index % len(items)]

    cold = _median_seconds(
        lambda message: BinaryWireCodec(ColumnLedger()).encode(message), pick(messages)
    )
    decode = _median_seconds(
        lambda body: BinaryWireCodec(ColumnLedger()).decode(memoryview(body)), pick(bodies)
    )
    warm_codec = BinaryWireCodec(ColumnLedger())
    for message in messages:
        warm_codec.encode(message)
    warm = _median_seconds(warm_codec.encode, pick(messages))
    return {
        "transport.encode_mb_s": mean_mb / cold,
        "transport.decode_mb_s": mean_mb / decode,
        # logical megabytes a second: the bytes a cold ledger would ship
        "transport.encode_repeat_mb_s": mean_mb / warm,
    }


def _store_probes(executed: Sequence[Any], directory: Path) -> dict[str, float]:
    """put / hot get / cold get of the captured payloads on a fresh tiered store."""
    payloads = [
        vertex.data
        for dag in executed
        for vertex in dag.artifact_vertices()
        if vertex.computed and not vertex.is_source and vertex.data is not None
    ]
    store = TieredArtifactStore(hot_budget_bytes=None, directory=directory)
    put = _median_seconds(
        lambda index: store.put(f"probe-{index}", payloads[index % len(payloads)])
    )
    hot = _median_seconds(lambda index: store.get(f"probe-{index}"))
    for index in range(ITERATIONS):
        store.demote(f"probe-{index}")
    cold = _median_seconds(lambda index: store.get(f"probe-{index}"))
    return {
        "storage.probe_put_us": 1e6 * put,
        "storage.probe_get_hot_us": 1e6 * hot,
        "storage.probe_get_cold_us": 1e6 * cold,
    }


def run_probes(
    executed: Sequence[Any],
    fresh_dags: Sequence[Callable[[], Any]],
    final_eg: ExperimentGraph,
    directory: Path,
) -> dict[str, float]:
    """All probes but the ping (which needs the live server).

    ``executed`` are executed workload DAGs with payloads attached;
    ``fresh_dags`` build parsed-and-pruned, not yet executed DAGs of the
    same scripts (what a planner sees).
    """
    results = _codec_probes(executed)
    results.update(_store_probes(executed, directory))

    planner = LinearReuse()
    plan_seconds = _median_seconds(
        lambda dag: planner.plan(dag, final_eg),
        lambda index: fresh_dags[index % len(fresh_dags)](),
    )
    mean_vertices = statistics.mean(dag.num_vertices for dag in executed)
    results["reuse.plan_us_per_vertex"] = 1e6 * plan_seconds / mean_vertices

    total_vertices = sum(dag.num_vertices for dag in executed)
    update_seconds = _median_seconds(
        lambda updater: updater.update_batch(executed),
        lambda _index: Updater(ExperimentGraph(), MaterializeAll()),
    )
    results["eg.update_batch_us_per_vertex"] = 1e6 * update_seconds / total_vertices

    route_seconds = _median_seconds(
        lambda index: route_workload(executed[index % len(executed)], 2)
    )
    results["shard.route_us"] = 1e6 * route_seconds
    return results
