"""The ML substrate is exactly what the workloads train.

The paper's optimizer treats operations and models as black boxes, so
``repro.ml`` exists only to give the reproduced workloads something to
train.  This test recomputes, from the AST, the set of ``repro.ml``
definitions a running path can reach and fails naming anything beyond it.

* **Roots** — every name a module of ``src/repro/`` outside ``ml/``, an
  example or a benchmark imports from ``repro.ml`` (or a submodule).
* **Edges** — every name a reached definition loads that resolves to
  another ``repro.ml`` definition (base classes, defaults, helpers,
  function-level imports).

An estimator nothing trains is deleted with its tests, not kept "for
completeness"; add the workload that needs it first.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
ML = SRC / "repro" / "ml"

Definition = tuple[str, str]  # (module, name)


def _package(path: Path) -> str:
    """The package a file's relative imports start from ("" outside ``src/``)."""
    return ".".join(path.relative_to(SRC).parent.parts) if SRC in path.parents else ""


def _import_target(node: ast.ImportFrom, package: str) -> str:
    """Absolute module an ``ImportFrom`` inside ``package`` names."""
    if not node.level:
        return node.module or ""
    parts = package.split(".")
    base = parts[: len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _ml_imports(tree: ast.AST, package: str) -> list[Definition]:
    """``(module, name)`` for every from-import of a ``repro.ml`` module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _import_target(node, package)
            if target == "repro.ml" or target.startswith("repro.ml."):
                found.extend((target, alias.name) for alias in node.names)
    return found


class _Substrate:
    """Every ``repro.ml`` module's top-level definitions and imports, and
    the package's ``__all__``."""

    def __init__(self) -> None:
        self.definitions: dict[Definition, ast.AST] = {}
        self.imported: dict[Definition, str] = {}  # (module, name) -> source module
        self.exported: list[str] = []
        for path in sorted(ML.glob("*.py")):
            module = "repro.ml" if path.stem == "__init__" else f"repro.ml.{path.stem}"
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.definitions[(module, node.name)] = node
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if not isinstance(target, ast.Name):
                            continue
                        if target.id != "__all__":
                            self.definitions[(module, target.id)] = node.value
                        elif module == "repro.ml":
                            self.exported = list(ast.literal_eval(node.value))
            for source, name in _ml_imports(tree, "repro.ml"):
                self.imported[(module, name)] = source

    def resolve(self, module: str, name: str) -> Definition | None:
        """Follow re-exports from ``module`` to the defining module."""
        while (module, name) not in self.definitions:
            if (module, name) not in self.imported:
                return None
            module = self.imported[(module, name)]
        return module, name

    def closure(self, roots: set[Definition]) -> set[Definition]:
        reached: set[Definition] = set()
        frontier = list(roots)
        while frontier:
            definition = frontier.pop()
            if definition in reached:
                continue
            reached.add(definition)
            module = definition[0]
            for node in ast.walk(self.definitions[definition]):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded = self.resolve(module, node.id)
                    if loaded is not None:
                        frontier.append(loaded)
        return reached


def _root_files() -> list[Path]:
    outside_ml = [p for p in (SRC / "repro").rglob("*.py") if ML not in p.parents]
    return [
        *outside_ml,
        *(REPO / "examples").glob("*.py"),
        *(REPO / "benchmarks").rglob("*.py"),
    ]


def _roots(substrate: _Substrate) -> set[Definition]:
    roots: set[Definition] = set()
    for path in _root_files():
        text = path.read_text()
        if "ml" not in text:
            continue  # cannot import repro.ml; parsing all of src/ is most of a second
        for module, name in _ml_imports(ast.parse(text), _package(path)):
            definition = substrate.resolve(module, name)
            assert definition is not None, f"{path}: {module}.{name} does not exist"
            roots.add(definition)
    return roots


def test_every_ml_definition_is_reached_by_a_running_path():
    substrate = _Substrate()
    reached = substrate.closure(_roots(substrate))

    unreached = sorted(
        f"{module}.{name}" for module, name in set(substrate.definitions) - reached
    )
    assert not unreached, (
        "repro.ml definitions no workload, example or benchmark reaches "
        f"(delete them with their tests): {unreached}"
    )

    exported = set(substrate.exported)
    dangling = sorted(
        name for name in exported if substrate.resolve("repro.ml", name) not in reached
    )
    assert not dangling, f"repro.ml.__all__ entries nothing reaches: {dangling}"
    imported_by_init = {
        name for module, name in substrate.imported if module == "repro.ml"
    }
    assert imported_by_init == exported, (
        f"repro.ml imports and __all__ disagree: {sorted(imported_by_init ^ exported)}"
    )
