#!/usr/bin/env python3
"""The end-to-end trajectory as a table: one row per (PR, workload).

    python3 benchmarks/bench_table.py                    # print the table
    python3 benchmarks/bench_table.py --update README.md # rewrite it in place

Every PR commits one ``BENCH_<n>.json`` at the repository root, written by
the unmodified harness (``python -m benchmarks.e2e --seed <n> --out
BENCH_<n>.json``; ``benchmarks/e2e/results/`` holds the one file that
predates the directory being frozen).  This renders their ``end_to_end``
sections — the seven metrics ``BENCHMARK.json`` declares, at the
reference machine speed — as the markdown table between the
``bench-table`` markers of the README.  One run per file: it shows the
trajectory; a claim needs the alternating pairs of EXPERIMENTS.md, and
``benchmarks/e2e/compare.py`` gives the verdict between two files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
START, END = "<!-- bench-table:start -->", "<!-- bench-table:end -->"


def bench_files() -> list[tuple[int, Path]]:
    found = [*ROOT.glob("BENCH_*.json"), *ROOT.glob("benchmarks/e2e/results/BENCH_*.json")]
    numbered = [(int(re.fullmatch(r"BENCH_(\d+)", path.stem)[1]), path) for path in found]
    return sorted(numbered)


def render() -> str:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(metric["name"], metric["unit"]) for metric in declared["end_to_end"]]
    workloads = [workload["name"] for workload in declared["workloads"]]
    header = ["PR", "workload", *(f"`{name}` ({unit})" for name, unit in metrics)]
    rows = [header, ["---"] * 2 + ["---:"] * len(metrics)]
    for number, path in bench_files():
        document = json.loads(path.read_text())
        if not document.get("comparable", True):
            continue  # a --quick smoke run
        for workload in workloads:
            result = document["workloads"].get(workload)
            if result is None:
                continue
            values = result["end_to_end"]
            mark = "" if result["correct"] and not result["failed"] else " ✗"
            rows.append(
                [str(number), f"`{workload}`{mark}"]
                + [f"{values[name]['value']:.3g}" for name, _unit in metrics]
            )
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", type=Path, help="rewrite the marked block of this file")
    args = parser.parse_args(argv)
    table = render()
    if args.update is None:
        print(table)
        return 0
    text = args.update.read_text()
    if START not in text or END not in text:
        print(f"{args.update} has no {START} … {END} block", file=sys.stderr)
        return 1
    before, rest = text.split(START, 1)
    _old, after = rest.split(END, 1)
    args.update.write_text(f"{before}{START}\n{table}\n{END}{after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
