"""The whole benchmark in one command, written to one result file.

    python -m benchmarks.e2e --seed N --out FILE [--quick]

Runs every workload of ``BENCHMARK.json`` through :mod:`run` — once
untraced for the end-to-end metrics, once traced for the per-layer ones —
each in a process of its own (so one workload's memory peak is not the
next one's), prints every metric by name and unit, and writes the result
(environment, per-repeat values raw and at reference speed, speed-probe
readings, layer shares) to
``FILE``.  ``--quick`` is a smoke run: ~3 s and one repeat per workload,
stamped ``"comparable": false`` and refused by :mod:`compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
QUICK_SECONDS = 3


def run_once(
    workload: str, seed: int, seconds: float, trace: int, repeats: int | None
) -> dict[str, Any]:
    """One :mod:`run` invocation in its own process; its ``--detail`` record."""
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".suite-") as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--detail", str(detail),
        ]  # fmt: skip
        if repeats is not None:
            command += ["--repeats", str(repeats)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        # the metric table; the closing JSON line is for the driver
        sys.stdout.writelines(
            line for line in completed.stdout.splitlines(keepends=True) if line[0] != "{"
        )
        if not detail.exists():
            sys.stderr.write(completed.stderr)
            raise RuntimeError(f"{workload} (trace={trace}) produced no result")
        return json.loads(detail.read_text())


def stream_budget(per_layer: dict[str, Any]) -> dict[str, float]:
    """Where a stream workload's mean round trip goes, in ms per script.

    The client-side rows are span means; the server-side rows split the
    two request round trips with the service's own means, and what is
    left of them — frames, codec, dispatch, thread hand-offs, the wire —
    is ``transport``.  Rows sum to the traced round trip.
    """

    def ms(name: str) -> float:
        return per_layer[name]["value"]

    plan_call = ms("service.plan_ms") + ms("reuse.plan_ms")
    commit_call = ms("service.commit_ms")
    if ms("shard.plan_ms"):  # coordinator topology: workers only report means
        plan_rtt, commit_rtt = ms("shard.plan_ms"), ms("shard.commit_ms")
        commit_call = ms("service.queue_wait_ms") + ms("shard.worker_merge_ms")
    else:
        plan_rtt, commit_rtt = ms("transport.plan_rtt_ms"), ms("transport.commit_rtt_ms")
    merge = commit_call - ms("service.queue_wait_ms")
    return {
        "client (parse, prune, execute)": ms("client.parse_ms")
        + ms("client.prune_ms")
        + ms("client.execute_ms"),
        "transport.wire_encode": ms("transport.wire_encode_ms"),
        "service.plan (incl. reuse)": plan_call,
        "service.queue_wait": ms("service.queue_wait_ms"),
        "service.merge (incl. select, store)": merge,
        "transport / shard hop (remainder)": plan_rtt + commit_rtt - plan_call - commit_call,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    repeats = 1 if args.quick else None
    result: dict[str, Any] = {
        "benchmark": spec["paths"][0],
        "comparable": not args.quick,
        "seconds": seconds,
        "workloads": {},
    }
    correct = True
    for entry in spec["workloads"]:
        name = entry["name"]
        untraced = run_once(name, args.seed, seconds, 0, repeats)
        traced = run_once(name, args.seed, seconds, 1, None)
        result["environment"] = untraced["environment"]
        correct = correct and untraced["correct"] and traced["correct"]
        record = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": untraced["metrics"],
            "repeats": untraced["repeats"],
            "inputs_s": untraced["inputs_s"],
            "per_layer": traced["metrics"],
            "layer_shares": traced["layer_shares"],
            "traced_repeats": traced["repeats"],
            "trace_file": traced["trace_file"],
        }
        if name.startswith("stream"):
            record["round_trip_budget_ms"] = stream_budget(traced["metrics"])
        result["workloads"][name] = record

    for name, record in result["workloads"].items():
        for row, value in record.get("round_trip_budget_ms", {}).items():
            print(f"{name} round trip: {row:<38} {value:9.3f} ms")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out} ({'all output checks passed' if correct else 'OUTPUT CHECKS FAILED'})")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
