"""Every option of the scale-out layers has a caller that sets it.

The knob counterpart of the workload-API gate in ``tests/ml/test_substrate.py``.
A defaulted parameter that only tests pass is configuration space nobody
runs: every workload, CLI path and example gets the default, yet the
code keeps a branch for the other values and the docs describe them.
This walks the AST instead of running anything.

* **Scope** — the ``__init__`` written in every public class (not a
  dataclass's generated one) and every public module-level function of
  ``src/repro/{service,transport,shard,server}/``,
  ``src/repro/reuse/warmstart.py`` and ``src/repro/experiments/swarm.py``.
* **Rule** — each parameter with a default is passed by at least one call
  in ``src/`` (outside the callable's own definition), ``benchmarks/`` or
  ``examples/``: by keyword, by position, or as a key of a dict literal
  the calling function splats with ``**``.  Calls match by callee name;
  ``super().__init__`` counts for the base classes.  A call that only
  forwards the caller's own option (``f(x=x)`` inside a gated callable)
  sets it only if something sets the caller's.

An option nothing sets becomes the constant it always was.  The few that
stay anyway are in :data:`ALLOWED`, each with its reason; an entry whose
option a caller does set is stale and fails too.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Iterable, Iterator

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

SCOPE = [
    *(
        path
        for layer in ("service", "transport", "shard", "server")
        for path in sorted((PACKAGE / layer).glob("*.py"))
    ),
    PACKAGE / "reuse" / "warmstart.py",
    PACKAGE / "experiments" / "swarm.py",
]

#: options kept with no caller outside ``tests/``: ``Callable.param``,
#: ``*.param`` for any callable
ALLOWED = {
    # addresses: every deployment names its own
    "*.host",
    "*.port",
    # the pool's reconnect schedule is deployment tuning; the reconnect
    # tests shrink it to run in milliseconds
    "ConnectionPool.connect_attempts",
    "ConnectionPool.backoff_base_s",
    "ConnectionPool.backoff_max_s",
    # the reference cross-check the maintained selection is tested against
    "EGService.debug_cross_check",
    # the shard fault seam (checkpoint a worker every N commits) until a
    # write-ahead log replaces it
    "ProcessShardCoordinator.checkpoint_every",
    # leaves together with the plan cache itself
    "EGService.plan_cache_size",
}

Option = tuple[str, str]  # (callable, parameter)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


class _Gated:
    """The defaulted parameters in scope, and where each is defined."""

    def __init__(self) -> None:
        self.options: dict[Option, str] = {}  # option -> "file:line"
        self.positions: dict[str, list[str]] = {}  # callable -> positional names
        #: (file, line) of each gated body -> the callable it defines
        self.bodies: dict[tuple[Path, int], str] = {}
        for path in SCOPE:
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef) and _is_public(node.name):
                    self._add(node.name, node, path, method=False)
                elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                    for member in node.body:
                        if (
                            isinstance(member, ast.FunctionDef)
                            and member.name == "__init__"
                        ):
                            self._add(node.name, member, path, method=True)

    def _add(
        self, name: str, function: ast.FunctionDef, path: Path, method: bool
    ) -> None:
        args = function.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        if method:
            positional = positional[1:]
        self.positions[name] = positional
        self.bodies[(path, function.lineno)] = name
        where = f"{path.relative_to(REPO)}:{function.lineno}"
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for param in defaulted:
            self.options[(name, param)] = where


def _caller_files() -> Iterator[Path]:
    yield from sorted(SRC.rglob("*.py"))
    yield from sorted((REPO / "benchmarks").rglob("*.py"))
    yield from sorted((REPO / "examples").glob("*.py"))


def _splatted(scope: ast.AST, value: ast.expr) -> dict[str, ast.expr]:
    """Key -> value of the dict literal(s) ``**value`` splats: the literal
    itself, or those assigned to the name within the calling function."""
    literals: list[ast.Dict] = []
    if isinstance(value, ast.Dict):
        literals.append(value)
    elif isinstance(value, ast.Name):
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Dict):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == value.id for t in targets):
                literals.append(node.value)
    return {
        key.value: item
        for literal in literals
        for key, item in zip(literal.keys, literal.values)
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


class _Calls(ast.NodeVisitor):
    """What every call in one file passes.

    ``passes`` gains ``(option, forwarded)``: ``forwarded`` is the calling
    callable's own option when the value is just that parameter (it then
    sets the option only if something sets the caller's), else None."""

    def __init__(
        self, gated: _Gated, path: Path, passes: list[tuple[Option, Option | None]]
    ) -> None:
        self.gated = gated
        self.path = path
        self.passes = passes
        self.classes: list[ast.ClassDef] = []
        self.functions: list[ast.FunctionDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions.append(node)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _callees(self, call: ast.Call) -> list[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return [func.id]
        if not isinstance(func, ast.Attribute):
            return []
        if (
            func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.classes
        ):
            return [
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in self.classes[-1].bases
            ]
        return [func.attr]

    def _forwarded(self, caller: str | None, value: ast.expr) -> Option | None:
        if caller is not None and isinstance(value, ast.Name):
            if (caller, value.id) in self.gated.options:
                return (caller, value.id)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        enclosing = [
            self.gated.bodies.get((self.path, f.lineno)) for f in self.functions
        ]
        caller = next((name for name in reversed(enclosing) if name), None)
        for callee in self._callees(node):
            if callee not in self.gated.positions or callee in enclosing:
                continue  # a call inside its own definition sets nothing
            given: list[tuple[str, ast.expr]] = []
            if not any(isinstance(a, ast.Starred) for a in node.args):
                given.extend(zip(self.gated.positions[callee], node.args))
            scope = self.functions[-1] if self.functions else node
            for keyword in node.keywords:
                if keyword.arg is not None:
                    given.append((keyword.arg, keyword.value))
                else:
                    given.extend(_splatted(scope, keyword.value).items())
            self.passes.extend(
                ((callee, name), self._forwarded(caller, value))
                for name, value in given
            )
        self.generic_visit(node)


class _Audit:
    """Which options in scope some caller sets, and which are allowed."""

    def __init__(self) -> None:
        self.gated = gated = _Gated()
        passes: list[tuple[Option, Option | None]] = []
        for path in _caller_files():
            _Calls(gated, path, passes).visit(ast.parse(path.read_text()))
        self.allowed = {
            option
            for option in gated.options
            if f"{option[0]}.{option[1]}" in ALLOWED or f"*.{option[1]}" in ALLOWED
        }
        # an option is set by a call that passes a value of its own, or
        # that forwards an option which is itself set (or allowed)
        passed = {option for option, forwarded in passes if forwarded is None}
        grown = True
        while grown:
            before = len(passed)
            passed |= {
                option
                for option, forwarded in passes
                if forwarded in passed or forwarded in self.allowed
            }
            grown = len(passed) > before
        self.passed = passed


@functools.cache
def _audit() -> _Audit:
    """One walk of every caller, shared by both tests."""
    return _Audit()


def _named(audit: _Audit, options: Iterable[Option]) -> list[str]:
    return [
        f"{audit.gated.options[option]} {option[0]}.{option[1]}"
        for option in sorted(options)
    ]


def test_every_defaulted_parameter_in_scope_is_set_by_a_caller():
    audit = _audit()
    assert audit.gated.options, "the gate found no options: is SCOPE right?"
    unset = audit.gated.options.keys() - audit.passed - audit.allowed
    assert not unset, (
        "defaulted parameters no caller outside tests/ sets (make each the "
        "constant it always is, or allow-list it with a reason): "
        f"{_named(audit, unset)}"
    )


def test_every_allowlist_entry_is_needed():
    audit = _audit()
    params = {param for _, param in audit.gated.options}
    stale = sorted(
        entry
        for entry in ALLOWED
        if (
            entry[2:] not in params
            if entry.startswith("*.")
            else tuple(entry.split(".", 1)) not in audit.gated.options
        )
    )
    assert not stale, f"allow-list entries that name no option: {stale}"
    set_anyway = {
        option
        for option in audit.allowed & audit.passed
        if f"{option[0]}.{option[1]}" in ALLOWED
    }
    assert not set_anyway, (
        "allow-listed options a caller sets (drop the entry): "
        f"{_named(audit, set_anyway)}"
    )
    assert len(ALLOWED) <= 10
