"""Smoke test of the benchmark itself; run explicitly, not by tier-1:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs the self-tests and the ``--quick`` suite (about two minutes), then
validates the result against ``BENCHMARK.json``: every named metric is
present for every workload with the unit the catalogue gives it, every
output check passed, and ``compare.py`` refuses the smoke result.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*command: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *command], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


def test_catalogue_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        import metrics
    finally:
        sys.path.remove(str(HERE))
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ] == SPEC["end_to_end"]
    assert [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ] == SPEC["per_layer"]
    assert set(metrics.TAIL_PERCENTILE) == {w["name"] for w in SPEC["workloads"]}


def test_selftests():
    completed = _run(str(HERE / "selftest.py"))
    assert completed.returncode == 0, completed.stdout + completed.stderr


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    completed = _run("-m", "benchmarks.e2e", "--quick", "--seed", "5", "--out", str(out))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return out


def test_quick_suite_reports_every_metric(quick_result):
    result = json.loads(quick_result.read_text())
    assert result["comparable"] is False
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, record in result["workloads"].items():
        assert record["correct"], name
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        for kind in ("end_to_end", "per_layer"):
            reported = record[kind]
            assert list(reported) == [m["name"] for m in SPEC[kind]], (name, kind)
            for metric in SPEC[kind]:
                assert reported[metric["name"]]["unit"] == metric["unit"], metric
        for metric in SPEC["end_to_end"]:
            assert record["end_to_end"][metric["name"]]["value"] > 0, (name, metric)
        assert 0.0 <= record["per_layer"]["obs.unattributed_ratio"]["value"] <= 0.10
        assert (ROOT / record["trace_file"]).exists()


def test_compare_refuses_quick_results(quick_result):
    completed = _run(str(HERE / "compare.py"), str(quick_result), str(quick_result))
    assert completed.returncode == 2
    assert "not comparable" in completed.stderr
