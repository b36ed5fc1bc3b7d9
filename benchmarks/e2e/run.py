"""One benchmark run: one workload, one seed, a fixed amount of work.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--seconds`` sets the run length: it is turned into a script count at the
workload's nominal rate (``harness.NOMINAL_WPS``), so every run of a
workload does the same work.  ``--trace 0`` sets the workload up and drives
it :data:`REPEATS` times (``--repeats``), each for its share of that work,
checks every repeat's output, and reports the end-to-end metrics (medians
over the repeats; see :func:`end_to_end` for the latency percentiles).
``--trace 1`` drives half the work untraced and half with the harness's
spans and timing proxies in place, runs the layer probes on the state that
leaves behind, writes the spans as a Chrome trace under ``results/``, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are read at the reference machine speed (see
:mod:`speed`); ``--detail`` keeps the raw readings next to them.

The run reads and writes only inside the checkout (scratch space is
``benchmarks/e2e/.work/``, removed on exit), stops every server and worker
process it starts and waits for each to end (``harness.reap_children``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

#: untraced repeats of a run, each on fresh state
REPEATS = {"kaggle_first": 3, "kaggle_repeat": 4, "stream_tcp": 3, "stream_mproc": 3}
#: workloads whose every repeat gets inputs of its own, made from a seed
#: derived from ``--seed``.  What SA materializes under a *binding* budget
#: depends on the data (sizes, model qualities) and every merge reloads all
#: of it, so the speed of ``kaggle_repeat``'s warm EG is a property of the
#: data set: one seed read 23 scripts/s on every repeat of every run, another
#: 33-38, and ten runs on ten seeds spread by 0.10-0.18.  The median over
#: repeats on four data sets does not follow one of them.
_INPUTS_PER_REPEAT = ("kaggle_repeat",)
_SEED_STRIDE = 1_000_003
#: a percentile is read per repeat only if this many samples lie beyond it
_SAMPLES_BEYOND = 10
_MISSING_PROGRAM = 2
#: end-to-end metrics that are times (divided by the machine's slowdown) or
#: rates (multiplied by it); memory and byte ratios are read as they are
_TIMES = ("workload_p50_ms", "workload_tail_ms", "cpu_ms_per_workload", "setup_s")
_RATES = ("throughput_wps",)


def at_reference_speed(values: dict[str, float], slowdown: float) -> dict[str, float]:
    """``values`` as they would read on a machine of the reference speed."""
    scaled = dict(values)
    for key in _TIMES:
        if key in scaled:
            scaled[key] /= slowdown
    for key in _RATES:
        if key in scaled:
            scaled[key] *= slowdown
    return scaled


def _halves(samples: list[float]) -> list[float]:
    """Mean probe reading of the first and of the second half of a region."""
    middle = max(1, len(samples) // 2)
    return [statistics.fmean(samples[:middle]), statistics.fmean(samples[middle:] or samples)]


def run_repeat(
    name: str,
    inputs: Any,
    inputs_s: float,
    scripts: int,
    workdir: Path,
    log: Any = None,
) -> dict[str, Any]:
    """Set up, drive ``scripts`` scripts, stop, check; the repeat's values.

    ``setup_s`` is ``inputs_s`` (what making ``inputs`` took) plus this
    repeat's own set-up.  With ``log`` the traced topology is built and the live workload
    is returned too: the caller reads the layers from it, then tears it down.
    """
    import numpy as np

    from harness import make_workload, process_peak_rss_mb, settle_memory
    from metrics import TAIL_PERCENTILE
    from speed import SpeedProbe

    workdir.mkdir(parents=True, exist_ok=True)
    settle_memory()
    result: dict[str, Any] = {}
    workload = make_workload(name, inputs, workdir, log)
    try:
        setup_probe, probe = SpeedProbe(), SpeedProbe()
        started = time.perf_counter()
        workload.setup(setup_probe)
        setup_s = time.perf_counter() - started
        if log is not None:
            log.spans.clear()  # set-up traffic is not part of the traced drive
        drive = workload.drive(scripts, probe)
        peak_rss_mb = process_peak_rss_mb() + sum(
            process_peak_rss_mb(pid) for pid in workload.worker_pids()
        )
        if log is not None:
            from probes import ping_rtt_us

            with workload.ping_pool() as pool:
                result["ping_rtt_us"] = ping_rtt_us(pool)
        workload.finish()
        result["problems"] = workload.check(drive)
        if not drive.latencies:
            raise RuntimeError(f"no script completed: {result['problems'][:3]}")
        latencies_ms = 1000.0 * np.asarray(drive.latencies)
        raw = {
            "throughput_wps": len(drive.latencies) / drive.wall_s,
            "workload_p50_ms": float(np.percentile(latencies_ms, 50)),
            "workload_tail_ms": float(np.percentile(latencies_ms, TAIL_PERCENTILE[name])),
            "cpu_ms_per_workload": 1000.0 * drive.cpu_s / len(drive.latencies),
            "peak_rss_mb": peak_rss_mb,
            "store_amplification": workload.store_amplification(),
        }
        result.update(
            drive=drive,
            raw={**raw, "setup_s": setup_s},
            values={
                **at_reference_speed(raw, probe.slowdown),
                "setup_s": inputs_s + setup_s / setup_probe.slowdown,
            },
            slowdown=probe.slowdown,
            kernel_ms=_halves(probe.samples),
        )
    except BaseException:
        workload.teardown()
        raise
    if log is not None:
        result["workload"] = workload
    else:
        workload.teardown()
    return result


def end_to_end(name: str, repeats: list[dict[str, Any]]) -> dict[str, float]:
    """The run's end-to-end metrics: the median of its repeats' values.

    Where a repeat has too few round trips for its own tail (fewer than
    :data:`_SAMPLES_BEYOND` beyond the percentile: the ``kaggle_*`` loops),
    the two latency percentiles are taken over the pooled round trips
    instead.  Pooling is the exception because one repeat that met a busy
    host owns the pooled tail (p95 of ``stream_mproc``: 29 / 18 / 18 ms per
    repeat read 21.7 pooled), while the median of three shrugs it off."""
    import numpy as np

    from metrics import TAIL_PERCENTILE

    values = {
        key: statistics.median(repeat["values"][key] for repeat in repeats)
        for key in repeats[0]["values"]
    }
    fewest = min(len(repeat["drive"].latencies) for repeat in repeats)
    if fewest * (100 - TAIL_PERCENTILE[name]) / 100.0 < _SAMPLES_BEYOND:
        pooled = np.concatenate(
            [
                np.asarray(repeat["drive"].latencies) * (1000.0 / repeat["slowdown"])
                for repeat in repeats
            ]
        )
        values["workload_p50_ms"] = float(np.percentile(pooled, 50))
        values["workload_tail_ms"] = float(np.percentile(pooled, TAIL_PERCENTILE[name]))
    return values


def make_inputs(name: str, seed: int) -> tuple[Any, float]:
    """The workload's inputs made from ``seed``, and the seconds that took
    at the reference machine speed."""
    from harness import prepare_inputs
    from speed import SpeedProbe

    probe = SpeedProbe()
    started = time.perf_counter()
    inputs = prepare_inputs(name, seed, probe)
    return inputs, (time.perf_counter() - started) / probe.slowdown


def traced_run(
    name: str, seed: int, inputs: Any, inputs_s: float, scripts: int, workdir: Path
) -> dict[str, Any]:
    """Half the work untraced, half traced; per-layer metrics and shares."""
    from layers import layer_metrics, layer_shares
    from probes import run_probes
    from tracing import SpanLog

    untraced = run_repeat(name, inputs, inputs_s, scripts // 2, workdir / "untraced")
    log = SpanLog()
    traced = run_repeat(name, inputs, inputs_s, scripts // 2, workdir / "traced", log)
    workload = traced.pop("workload")
    try:
        shares = layer_shares(log)
        trace_path = HERE / "results" / f"trace_{name}_seed{seed}.json"
        log.write_chrome_trace(trace_path)
        executed = [dag for client in workload.traced_clients for dag in client.captured]
        probes = run_probes(
            executed, workload.fresh_dags(), workload.final_eg, workdir / "probe-store"
        )
        probes["transport.ping_rtt_us"] = traced["ping_rtt_us"]
        values = layer_metrics(workload, log, traced, untraced, probes)
    finally:
        workload.teardown()
    return {
        "repeats": [untraced, traced],
        "per_layer": values,
        "layer_shares": shares,
        "spans": len(log.spans),
        "trace_file": str(trace_path.relative_to(HERE.parents[1])),
    }


def _environment(seed: int) -> dict[str, Any]:
    import numpy

    from speed import REFERENCE_KERNEL_MS

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "reference_kernel_ms": REFERENCE_KERNEL_MS,
    }


def _plain(repeat: dict[str, Any]) -> dict[str, Any]:
    """JSON form of one repeat."""
    drive = repeat["drive"]
    return {
        "values": repeat["values"],
        "raw": repeat["raw"],
        "slowdown": repeat["slowdown"],
        "kernel_ms": repeat["kernel_ms"],
        "attempted": drive.attempted,
        "raised": drive.raised,
        "refused": drive.refused,
        "wall_s": drive.wall_s,
        "problems": repeat["problems"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, help="untraced repeats (default: REPEATS)")
    parser.add_argument("--detail", type=Path, help="also write the full result here")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401 - the program under test
    except ImportError as error:
        print(f"the program is not in this checkout: {error}", file=sys.stderr)
        return _MISSING_PROGRAM
    from harness import NOMINAL_WPS, reap_children
    from metrics import END_TO_END, PER_LAYER

    # a terminated run leaves through the ``finally`` below, like any other
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # keep every temporary file of the program and its workers in the checkout
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        inputs, inputs_s = make_inputs(args.workload, args.seed)
        outcome: dict[str, Any] = {"inputs_s": inputs_s}
        scripts = round(args.seconds * NOMINAL_WPS[args.workload])
        n_repeats = args.repeats or REPEATS[args.workload]
        if args.trace:
            outcome.update(
                traced_run(args.workload, args.seed, inputs, inputs_s, scripts, workdir)
            )
            repeats = outcome["repeats"]
            values, catalogue = outcome["per_layer"], PER_LAYER
        else:
            repeats = []
            for index in range(n_repeats):
                if index and args.workload in _INPUTS_PER_REPEAT:
                    inputs, inputs_s = make_inputs(
                        args.workload, args.seed + index * _SEED_STRIDE
                    )
                repeats.append(
                    run_repeat(
                        args.workload,
                        inputs,
                        inputs_s,
                        scripts // n_repeats,
                        workdir / f"r{index}",
                    )
                )
            outcome["repeats"] = repeats
            values = end_to_end(args.workload, repeats)
            catalogue = END_TO_END
    finally:
        reap_children()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [problem for repeat in repeats for problem in repeat["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(repeat["drive"].attempted for repeat in repeats),
        "failed": sum(repeat["drive"].failed for repeat in repeats),
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in catalogue
        },
    }

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for metric in catalogue:
        print(f"{metric.name:<42} {values[metric.name]:>16.6g} {metric.unit}")
    for layer, share in outcome.get("layer_shares", {}).items():
        print(f"share of traced round trip: {layer:<16} {100 * share:6.2f} %")
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    if args.detail is not None:
        detail = {
            **result,
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "environment": _environment(args.seed),
            **{key: value for key, value in outcome.items() if key != "repeats"},
            "repeats": [_plain(repeat) for repeat in repeats],
        }
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
