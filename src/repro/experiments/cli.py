"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig5 --apps 2000
    python -m repro.experiments fig9d --workloads 50
    python -m repro.experiments all --apps 1000 --pipelines 200

Each subcommand regenerates one table/figure and prints the series the
paper reports.  Sizes default to laptop scale; raise ``--apps`` /
``--pipelines`` for longer, smoother runs.

Beyond the figures, three live-operations commands talk to a running
transport server (they are excluded from ``all``)::

    python -m repro.experiments serve --port 7821 --shards 2 --seed-workloads 4
    python -m repro.experiments metrics --addr 127.0.0.1:7821
    python -m repro.experiments inspect --addr 127.0.0.1:7821 --perfetto-out t.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from ..obs import ChromeTraceSink, NoopTracer, Tracer, set_tracer
from ..workloads.home_credit import generate_home_credit
from ..workloads.openml import generate_credit_g, sample_pipeline_specs
from ..workloads.synthetic_dag import SyntheticDAGConfig
from . import figures
from .runner import scaled_budget

__all__ = ["main"]


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _run_table1(sources, _args) -> None:
    _print("Table 1: Kaggle workload inventory")
    _print(f"{'ID':>3} {'N':>5} {'S (MB)':>9}  Description")
    for row in figures.table1(sources):
        _print(
            f"{row.workload_id:>3} {row.n_artifacts:>5} "
            f"{row.size_bytes / 1e6:>9.1f}  {row.description}"
        )


def _run_fig4(sources, args) -> None:
    total = figures.total_artifact_bytes(sources)
    result = figures.fig4_repeated_runs(sources, scaled_budget(args.budget_gb, total))
    _print("Figure 4: repeated executions (seconds)")
    for workload_id, systems in result.times.items():
        for system, runs in systems.items():
            _print(f"  W{workload_id} {system:>3}: run1={runs[0]:.3f} run2={runs[1]:.3f}")


def _run_fig5(sources, args) -> None:
    total = figures.total_artifact_bytes(sources)
    result = figures.fig5_sequence(sources, scaled_budget(args.budget_gb, total))
    _print("Figure 5: cumulative run-time (seconds)")
    for system, curve in result.cumulative.items():
        _print(f"  {system:>3}: " + " ".join(f"{v:7.2f}" for v in curve))


def _run_fig67(sources, _args) -> None:
    total = figures.total_artifact_bytes(sources)
    result = figures.fig6_fig7_materialization(sources, total)
    _print("Figure 6: real materialized size (MB) after the last workload")
    for strategy in ("SA", "HM", "HL", "ALL"):
        row = [result.stored_sizes[strategy][b][-1] / 1e6 for b in result.budgets_gb]
        _print(f"  {strategy:>4}: " + " ".join(f"{v:7.1f}" for v in row))
    _print("Figure 7a: total run-time (seconds)")
    for strategy in ("SA", "HM", "HL", "ALL"):
        row = [result.total_times[strategy][b] for b in result.budgets_gb]
        _print(f"  {strategy:>4}: " + " ".join(f"{v:7.2f}" for v in row))
    _print("Figure 7b: final speedup vs KG")
    for label, (strategy, budget) in {
        "SA-8": ("SA", 8.0),
        "SA-16": ("SA", 16.0),
        "HL-8": ("HL", 8.0),
        "HL-16": ("HL", 16.0),
        "ALL": ("ALL", 8.0),
    }.items():
        _print(f"  {label:>6}: {result.speedup_curve(strategy, budget)[-1]:.2f}x")


def _run_fig8(credit, args) -> None:
    specs = sample_pipeline_specs(args.pipelines, seed=7)
    result = figures.fig8a_model_benchmarking(specs, credit, budget_bytes=10_000_000)
    _print("Figure 8a: model benchmarking (final cumulative seconds)")
    _print(f"  CO : {result.cumulative_co[-1]:.2f}")
    _print(f"  OML: {result.cumulative_oml[-1]:.2f}")
    sweep = figures.fig8b_alpha_sweep(
        sample_pipeline_specs(max(20, args.pipelines // 2), seed=7), credit
    )
    _print("Figure 8b: final delta to alpha=1 (seconds)")
    for alpha in sweep.alphas:
        _print(f"  alpha={alpha:4.2f}: {sweep.delta_vs_alpha1(alpha)[-1]:+.3f}")


def _run_fig9(sources, args) -> None:
    total = figures.total_artifact_bytes(sources)
    result = figures.fig9_reuse_comparison(sources, scaled_budget(args.budget_gb, total))
    _print("Figure 9a/9b: cumulative run-time after W8 (seconds)")
    for materializer in ("HM", "SA"):
        for reuser in ("LN", "HL", "ALL_M", "ALL_C"):
            final = result.cumulative[materializer][reuser][-1]
            _print(f"  {materializer}/{reuser:>5}: {final:7.2f}")
    _print("Figure 9c: final speedup vs ALL_C (SA)")
    for reuser in ("LN", "HL", "ALL_M"):
        _print(f"  {reuser:>5}: {result.speedup_vs_all_c('SA', reuser)[-1]:.2f}x")


def _run_fig9d(_sources, args) -> None:
    config = SyntheticDAGConfig()
    result = figures.fig9d_reuse_overhead(n_workloads=args.workloads, config=config)
    _print(
        f"Figure 9d over {args.workloads} workloads: LN "
        f"{result.cumulative_ln[-1]:.2f}s vs HL {result.cumulative_hl[-1]:.2f}s "
        f"({result.final_ratio:.0f}x)"
    )


def _run_fig10(credit, args) -> None:
    specs = sample_pipeline_specs(args.pipelines, seed=7)
    result = figures.fig10_warmstarting(specs, credit, budget_bytes=10_000_000)
    _print("Figure 10: warmstarting (final cumulative seconds)")
    _print(f"  OML : {result.cumulative_oml[-1]:.2f}")
    _print(f"  CO-W: {result.cumulative_co_without[-1]:.2f}")
    _print(f"  CO+W: {result.cumulative_co_with[-1]:.2f}")
    _print(f"  cumulative accuracy delta: {result.cumulative_delta_accuracy[-1]:+.3f}")


def _print_recorder(label: str, recorder: dict | None) -> None:
    """The flight recorder's counters (its ``stats()``), when it is on."""
    if recorder:
        decisions = recorder.get("decisions") or {}
        _print(
            f"  {label}: {recorder.get('spans_seen', 0)} spans, "
            f"{recorder.get('kept_retained', 0)} traces retained ("
            + ", ".join(f"{name}={count}" for name, count in decisions.items())
            + ")"
        )


def _run_swarm(_sources, args) -> None:
    from ..storage import TieredArtifactStore
    from .swarm import run_swarm

    # a small hot budget forces real demotions/promotions under
    # concurrency, so traced runs show the tiered store's spans; byte
    # accounting (store_bytes, fingerprints) is tier-independent.  Shard
    # workers own one store per partition, so the override is theirs
    store = (
        TieredArtifactStore(hot_budget_bytes=args.hot_budget_bytes)
        if args.shards == 1
        else None
    )
    result = run_swarm(
        clients=args.clients,
        rounds=args.rounds,
        store=store,
        shards=args.shards,
        transport=None if args.transport == "inproc" else args.transport,
    )
    stats = result.stats
    shard_note = (
        f" across {result.shards} shard worker processes" if result.shards > 1 else ""
    )
    transport_note = " over tcp/binary" if result.transport == "tcp" else ""
    _print(
        f"Swarm: {result.clients} concurrent clients x {result.rounds} workloads "
        f"({result.workloads} commits in {result.wall_seconds:.2f}s, "
        f"{result.throughput:.1f}/s{shard_note}{transport_note}; "
        f"merge linger {result.batch_linger_s * 1e3:.0f}ms)"
    )
    if result.transport == "tcp":
        wire = result.wire_stats
        client_wire = result.client_wire_stats
        _print(
            f"  wire: {wire.get('bytes_in', 0):.0f} B in / "
            f"{wire.get('bytes_out', 0):.0f} B out over "
            f"{wire.get('frames_in', 0):.0f}+{wire.get('frames_out', 0):.0f} frames; "
            f"inflight peak {wire.get('inflight_peak', 0):.0f}"
        )
        _print(
            f"  dedup: {wire.get('dedup_refs', 0):.0f} server + "
            f"{client_wire.get('dedup_refs_sent', 0)} client column refs "
            f"({wire.get('dedup_bytes_saved', 0):.0f} + "
            f"{client_wire.get('dedup_bytes_saved', 0)} B saved); "
            f"pool retries {client_wire.get('retries', 0)}"
        )
    _print(
        f"  merge batches: {stats.batches} "
        f"(mean size {stats.mean_batch_size:.2f}, max {stats.max_batch_size})"
    )
    _print(
        f"  reuse: {stats.reuse_hits_total}/{stats.plans_total} plans hit the EG "
        f"({stats.reuse_hit_rate:.0%}); retries {stats.retries_total}, "
        f"overload rejections {stats.overload_rejections}"
    )
    _print(
        f"  request latency: p50 {stats.request_p50_s * 1e3:.1f}ms "
        f"p99 {stats.request_p99_s * 1e3:.1f}ms"
    )
    _print(
        f"  incremental merge: {stats.publish_dirty_vertices} dirty vertices over "
        f"{stats.publishes} publishes (mean {stats.mean_dirty_per_publish:.1f}/publish); "
        f"plan cache {stats.plan_cache_hits}/{stats.plan_cache_hits + stats.plan_cache_misses} "
        f"hits ({stats.plan_cache_hit_rate:.0%})"
    )
    if result.shard_stats:
        _print(
            f"  cross-shard: {result.stub_edges} edge stubs; per-shard stats:"
        )
        _print(
            f"    {'shard':>5} {'merged':>7} {'dirty/publish':>14} "
            f"{'cache-hit':>10} {'queue':>6} {'peak':>5}"
        )
        for index, shard in enumerate(result.shard_stats):
            _print(
                f"    {index:>5} {shard.merged_workloads:>7} "
                f"{shard.mean_dirty_per_publish:>14.1f} "
                f"{shard.plan_cache_hit_rate:>10.0%} "
                f"{shard.queue_depth:>6} {shard.queue_peak:>5}"
            )
    _print_recorder("flight recorder", result.recorder_stats)
    if args.metrics_out:
        Path(args.metrics_out).write_text(result.metrics_text)
        _print(f"  metrics written to {args.metrics_out}")
    _print(
        f"  final EG: {result.eg_vertices} vertices, {result.eg_edges} edges, "
        f"{result.eg_materialized} materialized, {result.store_bytes} store bytes"
    )
    match = result.fingerprint_match
    _print(f"  sequential commit-order replay identical: {match}")
    if match is False:
        raise SystemExit("swarm EG diverged from the sequential replay")


def _require_addr(args) -> tuple[str, int]:
    if not args.addr:
        raise SystemExit(f"{args.experiment} needs --addr HOST:PORT")
    host, sep, port = args.addr.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--addr must be HOST:PORT, got {args.addr!r}")
    return host or "127.0.0.1", int(port)


def _run_metrics(_sources, args) -> None:
    """One-shot scrape of a live server's metrics registry."""
    from ..transport import TransportConnection

    host, port = _require_addr(args)
    with TransportConnection(host, port) as connection:
        if args.format == "json":
            snapshot = connection.request({"op": "metrics", "format": "json"})
            text = json.dumps(snapshot["metrics"], indent=2, sort_keys=True)
        else:
            text = connection.request({"op": "metrics", "format": "text"})["text"]
    if args.metrics_out:
        Path(args.metrics_out).write_text(text)
        _print(f"metrics written to {args.metrics_out}")
    else:
        _print(text.rstrip("\n"))


def _run_inspect(_sources, args) -> None:
    """Live introspection: health, SLO burns, kept traces, slow spans."""
    from ..obs import perfetto_document
    from ..transport import TransportConnection

    host, port = _require_addr(args)
    with TransportConnection(host, port) as connection:
        health = connection.request({"op": "health"})["health"]
        message: dict[str, Any] = {
            "op": "debug",
            "traces": args.traces,
            "spans": args.spans,
        }
        if args.trace_id:
            message["trace_id"] = args.trace_id
        debug = connection.request(message)["debug"]
        trace_id = args.trace_id
        trace_spans = debug.get("trace")
        if args.perfetto_out and trace_spans is None:
            kept = debug.get("recent_traces") or []
            if not kept:
                raise SystemExit(
                    "no kept traces to export; generate traffic or lower the "
                    "server's slow threshold"
                )
            trace_id = kept[0]["trace_id"]
            trace_spans = connection.request({**message, "trace_id": trace_id})[
                "debug"
            ]["trace"]

    queue = health.get("queue") or {}
    _print(
        f"health: {health.get('status')} (service version {health.get('version')}, "
        f"{health.get('open_sessions', 0)} open sessions)"
    )
    _print(
        f"  queue: depth {queue.get('depth', 0)}/{queue.get('capacity', 0)} "
        f"(peak {queue.get('peak', 0)}, headroom {queue.get('headroom', 0)})"
    )
    for shard in health.get("shards") or ():
        shard_queue = shard.get("queue") or {}
        _print(
            f"    shard {shard.get('shard')}: {shard.get('status')} "
            f"queue {shard_queue.get('depth', 0)}/{shard_queue.get('capacity', 0)}"
        )
    _print_recorder("recorder", debug.get("recorder") or health.get("recorder"))
    for name, slo in sorted((health.get("slo") or {}).items()):
        _print(
            f"  slo {name}: objective {slo.get('objective')}, "
            f"firing {slo.get('firing') or 'none'}"
        )
    alerts = debug.get("alerts") or []
    if alerts:
        _print(f"  alert journal ({len(alerts)} transitions):")
        for alert in alerts[-args.traces :]:
            _print(
                f"    {alert.get('state'):>8} {alert.get('slo')} "
                f"[{alert.get('severity')}] burn {alert.get('burn_short', 0):.2f}/"
                f"{alert.get('burn_long', 0):.2f}"
            )
    kept = debug.get("recent_traces") or []
    _print(f"  kept traces ({len(kept)} shown, newest first):")
    for trace in kept:
        _print(
            f"    {trace.get('trace_id')} {trace.get('decision'):>7} "
            f"{trace.get('duration_s', 0) * 1e3:8.1f}ms "
            f"{trace.get('spans', 0):>3} spans  {trace.get('root')}"
        )
    slowest = debug.get("slowest_spans") or []
    if slowest:
        _print("  slowest spans by self-time:")
        for span in slowest:
            _print(
                f"    {span.get('self_s', 0) * 1e3:8.1f}ms self "
                f"({span.get('duration_s', 0) * 1e3:8.1f}ms total) "
                f"{span.get('name')}  [{span.get('decision')}]"
            )
    if args.perfetto_out and trace_spans is not None:
        Path(args.perfetto_out).write_text(
            json.dumps(perfetto_document(trace_spans))
        )
        _print(f"  perfetto trace {trace_id} written to {args.perfetto_out}")


def _run_serve(_sources, args) -> None:
    """Stand up a live transport server (for the inspect/metrics smoke)."""
    from ..client.executor import VirtualCostModel
    from ..obs import FlightRecorder
    from ..transport import AsyncTransportServer, TransportServiceClient
    from .swarm import build_service, swarm_family

    recorder = FlightRecorder(slow_threshold_s=args.slow_threshold_ms / 1000.0)
    shards = args.shards
    service = build_service(shards, flight_recorder=recorder)
    server = AsyncTransportServer(service, host=args.host, port=args.port)
    host, port = server.start()
    topology = f"{shards} shard worker processes" if shards > 1 else "1 shard"
    _print(
        f"serving on {host}:{port} ({topology}, "
        f"slow threshold {args.slow_threshold_ms:g}ms, "
        f"duration {args.duration:g}s)"
    )
    sys.stdout.flush()
    try:
        if args.seed_workloads:
            script_for, sources = swarm_family(shards, 0.002)
            with TransportServiceClient(
                host, port, name="seed", cost_model=VirtualCostModel()
            ) as client:
                for index in range(args.seed_workloads):
                    client.run_script(
                        script_for(index, index % 3), sources, label=f"seed:{index}"
                    )
            _print(f"seeded {args.seed_workloads} workloads")
            sys.stdout.flush()
        deadline = (
            time.monotonic() + args.duration if args.duration > 0 else None
        )
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.stop()
    _print("server stopped")


_KAGGLE_EXPERIMENTS = {
    "table1": _run_table1,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig67,
    "fig7": _run_fig67,
    "fig9": _run_fig9,
}
_OPENML_EXPERIMENTS = {"fig8": _run_fig8, "fig10": _run_fig10}
_STANDALONE = {"fig9d": _run_fig9d, "swarm": _run_swarm}
#: live-operations commands against a running server; never part of "all"
_LIVE = {"metrics": _run_metrics, "inspect": _run_inspect, "serve": _run_serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__
    )
    choices = sorted(
        {**_KAGGLE_EXPERIMENTS, **_OPENML_EXPERIMENTS, **_STANDALONE, **_LIVE, "all": None}
    )
    parser.add_argument("experiment", choices=choices)
    parser.add_argument("--apps", type=int, default=1000, help="Home Credit applications")
    parser.add_argument("--pipelines", type=int, default=100, help="OpenML pipelines")
    parser.add_argument("--workloads", type=int, default=20, help="fig9d synthetic workloads")
    parser.add_argument("--budget-gb", type=float, default=16.0, help="paper-scale budget")
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent tenants in the swarm experiment"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="workloads per tenant in the swarm experiment"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "EG shards for swarm/serve (>1 hosts each shard in its own worker "
            "process behind the binary transport)"
        ),
    )
    parser.add_argument(
        "--transport",
        choices=("inproc", "tcp"),
        default="inproc",
        help="how swarm tenants reach the service (tcp = async binary transport)",
    )
    parser.add_argument(
        "--hot-budget-bytes",
        type=float,
        default=8192,
        help="swarm store's RAM budget (small values exercise the cold tier)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run (open in Perfetto)",
    )
    parser.add_argument(
        "--addr",
        default=None,
        metavar="HOST:PORT",
        help="live server address for the metrics/inspect commands",
    )
    parser.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="metrics command output: Prometheus text or a JSON snapshot",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics render to a file (metrics and swarm commands)",
    )
    parser.add_argument(
        "--traces", type=int, default=16, help="inspect: kept traces to show"
    )
    parser.add_argument(
        "--spans", type=int, default=10, help="inspect: slowest spans to show"
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        help="inspect: fetch this kept trace's full span list",
    )
    parser.add_argument(
        "--perfetto-out",
        default=None,
        metavar="PATH",
        help="inspect: write a kept trace as Chrome trace-event JSON",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="serve: bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="serve: seconds to stay up (0 = until interrupted)",
    )
    parser.add_argument(
        "--seed-workloads",
        type=int,
        default=0,
        help="serve: commit this many synthetic workloads at startup",
    )
    parser.add_argument(
        "--slow-threshold-ms",
        type=float,
        default=0.0,
        help=(
            "serve: flight-recorder slow threshold; 0 keeps every "
            "finished trace (handy for smoke tests)"
        ),
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = Tracer(sinks=[ChromeTraceSink(args.trace_out)])
        set_tracer(tracer)
    try:
        wanted = (
            list({**_KAGGLE_EXPERIMENTS, **_OPENML_EXPERIMENTS, **_STANDALONE})
            if args.experiment == "all"
            else [args.experiment]
        )
        kaggle_sources = None
        credit_sources = None
        for name in wanted:
            if name in _KAGGLE_EXPERIMENTS:
                if kaggle_sources is None:
                    kaggle_sources = generate_home_credit(n_applications=args.apps, seed=args.seed)
                _KAGGLE_EXPERIMENTS[name](kaggle_sources, args)
            elif name in _OPENML_EXPERIMENTS:
                if credit_sources is None:
                    credit_sources = generate_credit_g(n_rows=1000, seed=31)
                _OPENML_EXPERIMENTS[name](credit_sources, args)
            elif name in _LIVE:
                _LIVE[name](None, args)
            else:
                _STANDALONE[name](None, args)
    finally:
        if tracer is not None:
            set_tracer(NoopTracer())
            tracer.close()
            _print(f"trace written to {args.trace_out}")
    return 0
