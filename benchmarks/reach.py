#!/usr/bin/env python3
"""Which functions of ``src/repro`` a set of commands ever enters.

    python3 benchmarks/reach.py run --out DIR -- CMD [ARG ...]
    python3 benchmarks/reach.py report DIR [DIR ...]

``run`` executes ``CMD`` with a generated ``sitecustomize`` first on
``PYTHONPATH``.  Every Python process the command starts — spawned shard
workers and transport servers included, since they inherit the
environment — records each ``src/repro`` code object it enters
(``sys.setprofile`` / ``threading.setprofile``, one set insertion per code
object) and writes ``DIR/reach-<pid>-<ns>.json`` at exit and once a second
while it runs, so a killed worker loses at most its last second.  Run it
once per command, all into the same ``DIR`` or one each::

    python3 benchmarks/reach.py run --out /tmp/reach -- \\
        env PYTHONPATH=src python3 -m repro.experiments swarm

``report`` walks ``src/repro`` with :mod:`ast` and prints, per module, how
many lines of functions no recorded process entered, then every such
function, largest first.  A function counts as entered when a code object
with its file and first line ran (decorated functions start at their
first decorator, as in ``co_firstlineno``).

pytest-benchmark pauses profilers inside the measured call: trace
benchmarks with ``--benchmark-disable``, or the timed bodies read as
never entered.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: written into a temporary directory that ``run`` puts first on PYTHONPATH
_SITECUSTOMIZE = '''\
import atexit
import json
import os
import sys
import threading
import time

_ROOT = {root!r} + os.sep
_OUT = {out!r}
_PATH = os.path.join(_OUT, "reach-%d-%d.json" % (os.getpid(), time.time_ns()))
_seen = set()
_files = {{}}
_entered = set()
_dump_lock = threading.Lock()


def _profile(frame, event, _arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    name = code.co_filename
    relative = _files.get(name, False)
    if relative is False:
        path = os.path.abspath(name)
        relative = _files[name] = path[len(_ROOT):] if path.startswith(_ROOT) else None
    if relative is not None:
        qualname = getattr(code, "co_qualname", code.co_name)
        _entered.add((relative, code.co_firstlineno, qualname))


def _dump():
    with _dump_lock:
        entered = sorted(list(_entered))
        temporary = _PATH + ".tmp"
        with open(temporary, "w") as handle:
            json.dump({{"argv": sys.argv, "entered": entered}}, handle)
        os.replace(temporary, _PATH)


def _dump_every_second():
    while True:
        time.sleep(1.0)
        _dump()


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
threading.Thread(target=_dump_every_second, name="reach-dump", daemon=True).start()
'''


def run(out: Path, command: list[str]) -> int:
    """Run ``command`` under the recorder; returns its exit status."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="reach-site-") as site:
        Path(site, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(root=str(ROOT), out=str(out))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (site, env.get("PYTHONPATH", "")) if part
        )
        return subprocess.call(command, env=env)


def defined_functions(root: Path = ROOT) -> list[tuple[str, int, str, int]]:
    """Every function under ``root``: (module, first line, qualname, lines)."""
    found = []

    def walk(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append((module, first, qualname, child.end_lineno - first + 1))
                walk(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(root.rglob("*.py")):
        module = str(path.relative_to(root))
        walk(ast.parse(path.read_text(), str(path)), module, "")
    return found


def report(directories: list[Path]) -> str:
    entered: set[tuple[str, int]] = set()
    processes = 0
    for directory in directories:
        for dump in sorted(directory.glob("reach-*.json")):
            processes += 1
            for module, line, _qualname in json.loads(dump.read_text())["entered"]:
                entered.add((module, line))
    functions = defined_functions()
    never = [f for f in functions if (f[0], f[1]) not in entered]
    per_module: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for module, *_ in functions:
        per_module[module][0] += 1
    for module, _line, _qualname, lines in never:
        per_module[module][1] += 1
        per_module[module][2] += lines

    out = [
        f"{processes} processes entered {len(functions) - len(never)} of "
        f"{len(functions)} functions; {len(never)} never entered "
        f"({sum(f[3] for f in never)} lines)",
        "",
        f"{'never-entered lines':>19} {'functions':>9} {'never':>5}  module",
    ]
    for module, (total, count, lines) in sorted(
        per_module.items(), key=lambda item: (-item[1][2], item[0])
    ):
        if count:
            out.append(f"{lines:>19} {total:>9} {count:>5}  {module}")
    out += ["", f"{'lines':>5}  function"]
    for module, line, qualname, lines in sorted(never, key=lambda f: (-f[3], f[:2])):
        out.append(f"{lines:>5}  {module}:{line} {qualname}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run a command under the recorder")
    run_parser.add_argument("--out", type=Path, required=True)
    run_parser.add_argument("cmd", nargs=argparse.REMAINDER)
    report_parser = commands.add_parser("report", help="functions never entered")
    report_parser.add_argument("dirs", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
        if not command:
            parser.error("run needs a command after --")
        return run(args.out, command)
    print(report(args.dirs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
