#!/usr/bin/env python3
"""What the always-on telemetry plane costs, measured: plane on vs off, in pairs.

    python3 benchmarks/obs_cost.py [--workload stream_tcp] [--seeds 1-10] [--seconds 12]

Per seed, the unmodified ``benchmarks/e2e/run.py`` runs twice, each in a
fresh process: once as it is — a background service runs its flight
recorder by default — and once with the plane off.  For
the off side this file, like ``thread_cpu.py``, only imports the harness:
it rebinds ``TelemetryPlane`` so that the default ``flight_recorder=None``
means off, exactly what ``EGService(flight_recorder=False)`` does; the
program gains no switch.  Which side runs first alternates per seed.

Prints every pair, then per end-to-end metric the medians, the on side's
interquartile range, in how many pairs the plane-off run was better, and
the plane's cost: how much worse the on median is than the off median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


def _plane_off() -> None:
    from repro.service.telemetry import TelemetryPlane

    init = TelemetryPlane.__init__

    def dark(self: Any, registry: Any, flight_recorder: Any, *args: Any, **kwargs: Any) -> None:
        off = False if flight_recorder is None else flight_recorder
        init(self, registry, off, *args, **kwargs)

    TelemetryPlane.__init__ = dark  # type: ignore[method-assign]


def _child(plane: str, run_args: list[str]) -> int:
    sys.path.insert(0, str(HERE / "e2e"))
    sys.path.insert(0, str(HERE.parent / "src"))
    if plane == "off":
        _plane_off()
    import run

    return run.main(run_args)


def _one(plane: str, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    command = [
        sys.executable, __file__, "--child", plane, "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"plane {plane}, seed {seed}: incorrect run {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return _child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="stream_tcp")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE / "e2e"))
    from metrics import END_TO_END

    pairs = []
    for index, seed in enumerate(_seeds(args.seeds)):
        order = ("on", "off") if index % 2 == 0 else ("off", "on")
        pair = {plane: _one(plane, args.workload, seed, args.seconds) for plane in order}
        pairs.append(pair)
        cpu = {plane: pair[plane]["cpu_ms_per_workload"] for plane in ("on", "off")}
        print(f"seed {seed:>3}: cpu_ms_per_workload on {cpu['on']:.3f}  off {cpu['off']:.3f}")

    print(f"\n{args.workload}, {len(pairs)} pairs")
    print(f"{'metric':<22}{'on':>10}{'off':>10}{'on IQR':>10}{'off better':>12}{'plane cost':>12}")
    for metric in END_TO_END:
        on = [pair["on"][metric.name] for pair in pairs]
        off = [pair["off"][metric.name] for pair in pairs]
        sign = 1.0 if metric.better == "lower" else -1.0
        better = sum(sign * (b - a) < 0 for a, b in zip(on, off))
        median_on, median_off = statistics.median(on), statistics.median(off)
        q1, q3 = _quartiles(on) if len(on) > 1 else (median_on, median_on)
        cost = sign * (median_on - median_off) / median_off if median_off else 0.0
        print(
            f"{metric.name:<22}{median_on:>10.4g}{median_off:>10.4g}{q3 - q1:>10.3g}"
            f"{f'{better}/{len(pairs)}':>12}{cost:>+12.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
