"""The README's end-to-end trajectory table is generated, not edited."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_table", ROOT / "benchmarks" / "bench_table.py"
)
bench_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_table)


def test_readme_table_equals_the_rendered_bench_files():
    text = (ROOT / "README.md").read_text()
    block = text.split(bench_table.START, 1)[1].split(bench_table.END, 1)[0]
    assert block.strip("\n") == bench_table.render(), (
        "README.md's bench-table block is stale: run "
        "`python3 benchmarks/bench_table.py --update README.md`"
    )
