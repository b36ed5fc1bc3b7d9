"""``benchmarks/reach.py``: the function-entry trace behind dead-path audits."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REACH = ROOT / "benchmarks" / "reach.py"


def test_report_lists_the_sibling_but_not_the_called_function(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = "from repro.graph.dag import source_vertex_id; source_vertex_id('a')"
    run = [sys.executable, str(REACH), "run", "--out", str(tmp_path), "--"]
    subprocess.run([*run, sys.executable, "-c", script], env=env, check=True)
    assert list(tmp_path.glob("reach-*.json"))
    report = subprocess.run(
        [sys.executable, str(REACH), "report", str(tmp_path)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    lines = report.splitlines()
    never = {line.split()[-1] for line in lines if "graph/dag.py:" in line}
    assert "derived_vertex_id" in never
    assert "source_vertex_id" not in never
    assert "graph/dag.py" in report
