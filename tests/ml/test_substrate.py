"""The ML substrate is exactly what the workloads train, and the workload
API is exactly what the workloads write.

The paper's optimizer treats operations and models as black boxes, so
``repro.ml`` exists only to give the reproduced workloads something to
train.  The first test recomputes, from the AST, the set of ``repro.ml``
definitions a running path can reach and fails naming anything beyond it.

* **Roots** — every name a module of ``src/repro/`` outside ``ml/``, an
  example or a benchmark imports from ``repro.ml`` (or a submodule).
* **Edges** — every name a reached definition loads that resolves to
  another ``repro.ml`` definition (base classes, defaults, helpers,
  function-level imports).

The second does the same for the workload API (paper Section 4.2): the
generic ``Node.add`` plus the shortcuts the workloads call.  It matches
by attribute name, which can keep a method alive by a name collision but
never deletes one, so its roots are only the code that writes workloads:

* a public method of the ``client/api.py`` node classes is reached if
  ``workloads/``, ``experiments/``, ``server/``, ``automl/``, an example
  or a benchmark loads its name;
* an operation class of ``client/ops.py`` is reached from a reached
  definition, or by an import from outside ``client/``;
* a public ``DataFrame`` method is reached from a reached definition, or
  by any module, example or benchmark outside ``client/`` and
  ``dataframe/`` that loads its name.

An estimator nothing trains, or a shortcut nothing calls, is deleted with
its tests, not kept "for completeness"; add the workload that needs it
first.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterable

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
ML = SRC / "repro" / "ml"
CLIENT = SRC / "repro" / "client"
DATAFRAME = SRC / "repro" / "dataframe"

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


def _imports(tree: ast.AST, package: str, prefix: str) -> list[Definition]:
    """``(module, name)`` for every from-import of ``prefix`` or a submodule."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _import_target(node, package)
            if target == prefix or target.startswith(prefix + "."):
                found.extend((target, alias.name) for alias in node.names)
    return found


def _closure(roots: Iterable, edges: Callable[..., Iterable]) -> set:
    """Everything reachable from ``roots`` along ``edges``."""
    reached: set = set()
    frontier = list(roots)
    while frontier:
        definition = frontier.pop()
        if definition in reached:
            continue
        reached.add(definition)
        frontier.extend(edges(definition))
    return reached


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
            for source, name in _imports(tree, "repro.ml", "repro.ml"):
                self.imported[(module, name)] = source

    def resolve(self, module: str, name: str) -> Definition | None:
        """Follow re-exports from ``module`` to the defining module."""
        while (module, name) not in self.definitions:
            if (module, name) not in self.imported:
                return None
            module = self.imported[(module, name)]
        return module, name

    def closure(self, roots: set[Definition]) -> set[Definition]:
        def edges(definition: Definition) -> Iterable[Definition]:
            for node in ast.walk(self.definitions[definition]):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded = self.resolve(definition[0], node.id)
                    if loaded is not None:
                        yield loaded

        return _closure(roots, edges)


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
        for module, name in _imports(ast.parse(text), _package(path), "repro.ml"):
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


# ----------------------------------------------------------------------
# The workload API
# ----------------------------------------------------------------------
NODE_CLASSES = ("Workspace", "Node", "DatasetNode", "ModelNode", "AggregateNode")
WORKLOAD_DIRS = [
    SRC / "repro" / package
    for package in ("workloads", "experiments", "server", "automl")
]

Member = tuple[str, str]  # (class or module, name)


def _loads(tree: ast.AST) -> set[str]:
    """Every name and attribute name ``tree`` loads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class _Api:
    """The members of the node classes and ``DataFrame``, and the top-level
    definitions of ``client/api.py``, ``client/ops.py`` and
    ``dataframe/frame.py``."""

    def __init__(self) -> None:
        self.bodies: dict[Member, ast.AST] = {}
        modules = {
            "api": (CLIENT / "api.py", NODE_CLASSES),
            "ops": (CLIENT / "ops.py", ()),
            "frame": (DATAFRAME / "frame.py", ("DataFrame",)),
        }
        for module, (path, classes) in modules.items():
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef) and node.name in classes:
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef):
                            self.bodies[(node.name, member.name)] = member
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.bodies[(module, node.name)] = node
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id != "__all__":
                            self.bodies[(module, target.id)] = node.value

    def members(self, owners: Iterable[str]) -> set[Member]:
        return {member for member in self.bodies if member[0] in owners}

    def gated(self) -> set[Member]:
        """Public node and frame methods, and the operation classes."""
        methods = self.members((*NODE_CLASSES, "DataFrame"))
        operations = {
            member
            for member in self.members(("ops",))
            if isinstance(self.bodies[member], ast.ClassDef)
        }
        return {m for m in methods if _is_public(m[1])} | operations

    def closure(self, roots: set[Member]) -> set[Member]:
        """Node methods are reached only from the roots; everything else
        also from a reached body that loads its name."""
        reachable = self.bodies.keys() - self.members(NODE_CLASSES)

        def edges(member: Member) -> Iterable[Member]:
            loaded = _loads(self.bodies[member])
            return (other for other in reachable if other[1] in loaded)

        return _closure(roots, edges)


def _api_roots(api: _Api) -> set[Member]:
    """Node methods a workload loads by name, frame methods any module
    outside ``client/`` and ``dataframe/`` loads by name, operations
    imported from outside ``client/``, and every private member."""
    written: set[str] = set()
    loaded_anywhere: set[str] = set()
    imported_operations: set[str] = set()
    files = [
        *(SRC / "repro").rglob("*.py"),
        *(REPO / "examples").glob("*.py"),
        *(REPO / "benchmarks").rglob("*.py"),
    ]
    for path in files:
        if CLIENT in path.parents or DATAFRAME in path.parents:
            continue
        text = path.read_text()
        tree = ast.parse(text)
        loaded = _loads(tree)
        loaded_anywhere |= loaded
        if SRC not in path.parents or any(d in path.parents for d in WORKLOAD_DIRS):
            written |= loaded
        if "client" not in text:
            continue  # imports nothing from repro.client
        imported = {name for _, name in _imports(tree, _package(path), "repro.client")}
        imported_operations |= loaded if "ops" in imported else imported
    reached_by = {"ops": imported_operations, "DataFrame": loaded_anywhere}
    reached_by.update(dict.fromkeys(NODE_CLASSES, written))
    return {
        (owner, name)
        for owner, name in api.bodies
        if owner in reached_by
        and (name in reached_by[owner] or not _is_public(name))
    }


def test_every_workload_api_method_is_written_by_a_workload():
    api = _Api()
    reached = api.closure(_api_roots(api))
    unreached = sorted(f"{owner}.{name}" for owner, name in api.gated() - reached)
    assert not unreached, (
        "workload API methods, operations and DataFrame methods no workload, "
        f"example or benchmark reaches (delete them with their tests): {unreached}"
    )
