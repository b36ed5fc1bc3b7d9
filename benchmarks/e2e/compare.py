"""Compare two result files of the suite, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, each side's
per-repeat values, the bound from ``BENCHMARK.json`` and a verdict —

* ``worse`` / ``better``: B differs from A by more than the bound;
* ``same``: it does not;
* ``unresolved``: the spread of A's own repeats is wider than the bound,
  so a difference of that size proves nothing — unless every repeat of B
  sits on one side of every repeat of A, which decides it.

Exits 1 on any ``worse``, 2 when a file is a ``--quick`` smoke result.
Also flags every repeat during which the speed probe's kernel ran more
than 10 % apart in the first and the second half: the machine changed
speed under the measurement, so its reading is the less trustworthy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SPEED_DRIFT = 0.10


def verdict(
    a: float, b: float, a_repeats: list[float], b_repeats: list[float],
    better: str, bound: float,
) -> str:  # fmt: skip
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b - a) / abs(a) if a else 0.0
    spread = (max(a_repeats) - min(a_repeats)) / abs(a) if a else 0.0
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a_repeats for y in b_repeats):
            return "better"
        if all(sign * (y - x) < 0 for x in a_repeats for y in b_repeats):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[dict]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = []
            for result in (a, b):
                record = result["workloads"][workload]
                sides.append(
                    (
                        record["end_to_end"][name]["value"],
                        [repeat["values"][name] for repeat in record["repeats"]],
                    )
                )
            (a_value, a_repeats), (b_value, b_repeats) = sides
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": a_value,
                    "b": b_value,
                    "a_repeats": a_repeats,
                    "b_repeats": b_repeats,
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a_value, b_value, a_repeats, b_repeats,
                        metric["better"], metric["bound"],
                    ),  # fmt: skip
                }
            )
    return rows


def speed_flags(result: dict[str, Any], side: str) -> list[str]:
    flags = []
    for workload, record in result["workloads"].items():
        for index, repeat in enumerate(record["repeats"]):
            first, second = repeat["kernel_ms"]
            if abs(second - first) / first > SPEED_DRIFT:
                flags.append(
                    f"{side} {workload} repeat {index}: probe kernel "
                    f"{first:.3f} ms in the first half, {second:.3f} ms in the second"
                )
    return flags


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    for path, result in zip(paths, (a, b)):
        if not result.get("comparable", False):
            print(f"{path} is a --quick smoke result: not comparable", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def cells(values: list[float]) -> str:
        return "[" + " ".join(f"{value:.4g}" for value in values) + "]"

    rows = compare(a, b, spec)
    print(
        f"{'workload':<14}{'metric':<22}{'A':>11}{'B':>11}  {'bound':>5}  "
        f"{'verdict':<11}A repeats / B repeats"
    )
    for row in rows:
        print(
            f"{row['workload']:<14}{row['metric']:<22}{row['a']:>11.4g}{row['b']:>11.4g}"
            f"  {row['bound']:>5.2f}  {row['verdict']:<11}"
            f"{cells(row['a_repeats'])} / {cells(row['b_repeats'])}"
        )
    for flag in speed_flags(a, "A") + speed_flags(b, "B"):
        print(f"noisy: {flag}")
    counts = {
        name: sum(1 for row in rows if row["verdict"] == name)
        for name in ("better", "same", "worse", "unresolved")
    }
    print(" ".join(f"{name}={count}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
