"""What the frozen end-to-end harness uses of the program still exists.

``benchmarks/e2e/`` is frozen (``BENCHMARK.json`` ``paths``) and the driver
benchmarks every PR with it, but tier-1 does not run its two-minute smoke.
A deletion PR that removes a name the harness imports, or a ``ServiceStats``
field it subscripts, would only find out there.  This walks the harness's
AST instead: every ``from repro… import name`` must resolve and every
literal key read off ``stats[...]`` must be a ``ServiceStats`` field.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

from repro.service.stats import ServiceStats

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text()) for path in sorted(HARNESS.glob("*.py"))
    }


def test_every_repro_import_of_the_harness_resolves():
    missing = []
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "repro" and not (node.module or "").startswith("repro."):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                try:  # a submodule not yet imported by its package
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    missing.append(
                        f"{filename}:{node.lineno} {node.module}.{alias.name}"
                    )
    assert not missing, f"the frozen harness imports names that are gone: {missing}"


def test_every_stats_key_the_harness_reads_is_a_service_stats_field():
    fields = {field.name for field in dataclasses.fields(ServiceStats)}
    trees = _trees()
    read = set()
    for filename in ("layers.py", "harness.py"):
        for node in ast.walk(trees[filename]):
            if not isinstance(node, ast.Subscript):
                continue
            target = node.value
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            key = node.slice
            if name == "stats" and isinstance(key, ast.Constant):
                read.add(key.value)
    assert read, "the harness no longer subscripts stats[...]; retarget this test"
    assert read <= fields, f"stats keys that are no ServiceStats field: {read - fields}"
