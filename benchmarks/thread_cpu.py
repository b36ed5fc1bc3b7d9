#!/usr/bin/env python3
"""Who spends the CPU of a workload: CPU ms per workload, by thread.

    python3 benchmarks/thread_cpu.py WORKLOAD [--seed 1] [--seconds 12] [--stages]

``WORKLOAD`` is any of the harness's: ``kaggle_first``, ``kaggle_repeat``,
``stream_tcp`` or ``stream_mproc``.  Wall-time attribution under a
saturated GIL blames whoever waits; this reads who *ran*.  One repeat of
the workload goes through the unmodified ``benchmarks/e2e`` harness
(which this file only imports),
and ``/proc/self/task/*/stat`` is read before and after the drive:
``utime + stime`` per kernel thread, mapped to :mod:`threading` names by
``native_id`` and summed per thread group (``eg-transport-work_3`` →
``eg-transport-work``).  Threads that start and end with the drive — the
tenants, and the harness's speed probe — are in neither reading (or only
as a kernel task whose Python thread is already gone): they are the
process's CPU minus the named survivors.  Worker processes
(``stream_mproc``) are one row: their process CPU.

``--stages`` additionally wraps the hot functions of the request path
and the client's training kernels with ``time.thread_time()`` —
inclusive CPU and calls per workload, in this process only
(``update_batch`` contains ``select``, an ensemble's ``fit`` contains its
trees' ``_presort``, split searches, ``_partition`` and predictions, and a
split search contains ``_sorted_columns``).  The round trip's stages are
among them: ``parse_workload``, ``prune_workload``, ``Executor.execute``
and ``EGService.commit``, which contains the merge's
``UtilityMaterializer.greedy`` (when the budget binds) and
``VersionedExperimentGraph.publish``.  ``Executor.execute`` is split
into recompute (``Executor._compute_vertex``) and load
(``Executor._load_vertex``, which contains the tiered store's cold read
``TieredArtifactStore._stage_cold_read``), and recomputes are counted per
workload by operation name and by vertex (the five most frequent of each
are printed): a stored artifact that is recomputed on every pass shows
there.  The wrappers cost CPU
themselves, so read the thread table from a run without them.

Like the harness's own times, every number is read at the reference
machine speed: divided by the slowdown its speed probe measured during the
drive (printed; this box changes speed by 1.5× within minutes).  ``/proc``
counts in clock ticks (10 ms): keep ``--seconds`` at 12 or more.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_RESIDUAL = "tenants (ended with the drive)"


def thread_cpu_s() -> dict[str, float]:
    """CPU seconds so far of every live Python thread, by thread group."""
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    groups: dict[str, float] = defaultdict(float)
    for task in Path("/proc/self/task").iterdir():
        try:
            stat = (task / "stat").read_text()
        except OSError:
            continue  # the thread ended while we were listing
        name = names.get(int(task.name))
        if name is None:
            continue  # ending, or not Python's: left to the residual
        # the comm field may contain spaces: the numbers follow its ")"
        fields = stat.rsplit(")", 1)[1].split()
        cpu_s = (int(fields[11]) + int(fields[12])) * _TICK_S  # utime + stime
        groups[re.sub(r"[-_]\d+$", "", name)] += cpu_s
    return dict(groups)


# ----------------------------------------------------------------------
# --stages: thread_time() around the request path's hot functions
# ----------------------------------------------------------------------
class StageClock:
    def __init__(self) -> None:
        self.cpu_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: recomputes by (operation name, vertex id prefix)
        self.recomputes: dict[tuple[str, str], int] = defaultdict(int)
        self._lock = threading.Lock()

    def timed(self, stage: str, function: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.thread_time()
            try:
                return function(*args, **kwargs)
            finally:
                spent = time.thread_time() - started
                with self._lock:
                    self.cpu_s[stage] += spent
                    self.calls[stage] += 1

        return wrapper

    def wrap_method(self, cls: type, name: str) -> None:
        setattr(cls, name, self.timed(f"{cls.__name__}.{name}", getattr(cls, name)))

    def count_recomputes(self, cls: type, name: str) -> None:
        """Count calls of ``cls.name(self, workload, vertex_id, ...)`` by the
        operation that produces ``vertex_id``."""
        function = getattr(cls, name)

        def wrapper(owner: Any, workload: Any, vertex_id: str, *args: Any) -> Any:
            operation = workload.incoming_operation(vertex_id).name
            with self._lock:
                self.recomputes[operation, vertex_id[:8]] += 1
            return function(owner, workload, vertex_id, *args)

        setattr(cls, name, wrapper)

    def wrap_function(self, function: Callable) -> None:
        """Rebind ``function`` in every loaded module that imported it by name."""
        wrapper = self.timed(function.__name__, function)
        for module in list(sys.modules.values()):
            for attribute, value in list(getattr(module, "__dict__", {}).items()):
                if value is function:
                    setattr(module, attribute, wrapper)

    def take(self) -> tuple[dict[str, float], dict[str, int], dict[str, dict[str, int]]]:
        """What accumulated since the last call, and start over."""
        recomputes: dict[str, dict[str, int]] = {"by_operation": {}, "by_vertex": {}}
        with self._lock:
            for (operation, vertex), count in self.recomputes.items():
                by_operation = recomputes["by_operation"]
                by_operation[operation] = by_operation.get(operation, 0) + count
                recomputes["by_vertex"][f"{operation} {vertex}"] = count
            taken = dict(self.cpu_s), dict(self.calls), recomputes
            for counts in (self.cpu_s, self.calls, self.recomputes):
                counts.clear()
        return taken


def install_stages() -> StageClock:
    from repro.client.executor import Executor
    from repro.client.parser import parse_workload
    from repro.dataframe import DataFrame
    from repro.eg.updater import Updater
    from repro.graph.pruning import prune_workload
    from repro.materialization.base import UtilityMaterializer
    from repro.materialization.storage_aware import StorageAwareMaterializer
    from repro.ml.ensemble import GradientBoostingClassifier, RandomForestClassifier
    from repro.ml.tree import (
        DecisionTreeClassifier,
        DecisionTreeRegressor,
        _best_split_gini,
        _best_split_mse,
        _partition,
        _presort,
        _sorted_columns,
    )
    from repro.service.core import EGService
    from repro.service.versioned import VersionedExperimentGraph
    from repro.storage import TieredArtifactStore
    from repro.transport import wire
    from repro.transport.codec import BinaryWireCodec

    clock = StageClock()
    clock.wrap_function(parse_workload)
    clock.wrap_function(prune_workload)
    clock.wrap_method(Executor, "execute")
    clock.wrap_method(Executor, "_compute_vertex")
    clock.count_recomputes(Executor, "_compute_vertex")
    clock.wrap_method(Executor, "_load_vertex")
    clock.wrap_method(TieredArtifactStore, "_stage_cold_read")
    clock.wrap_method(EGService, "commit")
    clock.wrap_method(UtilityMaterializer, "greedy")
    clock.wrap_method(VersionedExperimentGraph, "publish")
    clock.wrap_function(wire.encode_workload)
    clock.wrap_function(wire.decode_workload)
    clock.wrap_function(wire.decode_results)
    clock.wrap_function(wire.encode_results)
    clock.wrap_function(wire.encode_plan_reply)
    clock.wrap_method(BinaryWireCodec, "encode")
    clock.wrap_method(BinaryWireCodec, "decode")
    clock.wrap_method(EGService, "plan")
    clock.wrap_method(Updater, "update_batch")
    clock.wrap_method(StorageAwareMaterializer, "select")
    for kernel in (_presort, _best_split_gini, _best_split_mse, _sorted_columns):
        clock.wrap_function(kernel)
    clock.wrap_function(_partition)
    for tree in (DecisionTreeClassifier, DecisionTreeRegressor):
        clock.wrap_method(tree, "predict")
    clock.wrap_method(DecisionTreeClassifier, "predict_proba")
    clock.wrap_method(DataFrame, "groupby_agg")
    clock.wrap_method(RandomForestClassifier, "fit")
    clock.wrap_method(GradientBoostingClassifier, "fit")
    return clock


# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, stages: bool) -> dict[str, Any]:
    from harness import NOMINAL_WPS, make_workload, prepare_inputs, reap_children
    from run import REPEATS
    from speed import SpeedProbe

    scripts = round(seconds * NOMINAL_WPS[name]) // REPEATS[name]
    clock = install_stages() if stages else None
    inputs = prepare_inputs(name, seed, SpeedProbe())
    with tempfile.TemporaryDirectory(prefix="thread-cpu-") as workdir:
        # the program and its workers keep their temporary files in there
        tempfile.tempdir = os.environ["TMPDIR"] = workdir
        workload = make_workload(name, inputs, Path(workdir) / "r0", None)
        try:
            workload.setup(SpeedProbe())
            if clock is not None:
                clock.take()  # set-up traffic is not part of the drive
            probe = SpeedProbe()
            before, process_before = thread_cpu_s(), time.process_time()
            drive = workload.drive(scripts, probe)
            after, process_after = thread_cpu_s(), time.process_time()
            # before the output check replays every script in this process
            stage_cpu_s, stage_calls, recomputes = (
                clock.take() if clock is not None else ({}, {}, {})
            )
            workload.finish()
            problems = workload.check(drive)
        finally:
            workload.teardown()
            reap_children()
            tempfile.tempdir = None
    done = len(drive.latencies)
    to_ms = 1000.0 / (done * probe.slowdown)  # per workload, at reference speed
    per_workload = {
        group: (cpu_s - before.get(group, 0.0)) * to_ms for group, cpu_s in after.items()
    }
    process_ms = (process_after - process_before) * to_ms
    per_workload[_RESIDUAL] = process_ms - sum(per_workload.values())
    if drive.worker_cpu_s:
        per_workload["worker processes"] = drive.worker_cpu_s * to_ms
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scripts": done,
        "correct": not problems and not drive.failed,
        "machine_slowdown": probe.slowdown,
        "throughput_wps": probe.slowdown * done / drive.wall_s,
        "thread_cpu_ms_per_workload": per_workload,
    }
    if clock is not None:
        result["stage_cpu_ms_per_workload"] = {
            stage: cpu_s * to_ms for stage, cpu_s in stage_cpu_s.items()
        }
        result["stage_calls_per_workload"] = {
            stage: calls / done for stage, calls in stage_calls.items()
        }
        result["recomputes_per_workload"] = {
            key: {name: count / done for name, count in counts.items()}
            for key, counts in recomputes.items()
        }
    return result


def render(result: dict[str, Any]) -> str:
    threads = result["thread_cpu_ms_per_workload"]
    total = sum(threads.values())
    lines = [
        f"{result['workload']} seed {result['seed']}: {result['scripts']} scripts, "
        f"{result['throughput_wps']:.1f} workloads/s, correct={result['correct']} "
        f"(machine slowdown {result['machine_slowdown']:.2f}, divided out)",
        "",
        f"{'thread group':<34}{'CPU ms/workload':>16}{'share':>8}",
    ]
    for group, cpu_ms in sorted(threads.items(), key=lambda item: -item[1]):
        if cpu_ms >= 0.005:
            lines.append(f"{group:<34}{cpu_ms:>16.2f}{cpu_ms / total:>8.0%}")
    lines.append(f"{'total':<34}{total:>16.2f}")
    transport = sum(
        cpu_ms for group, cpu_ms in threads.items()
        if group in ("eg-transport-loop", "eg-transport-work", "eg-transport-codec")
    )
    lines.append(f"{'server transport threads':<34}{transport:>16.2f}{transport / total:>8.0%}")
    if "stage_cpu_ms_per_workload" in result:
        lines += ["", f"{'stage (inclusive)':<34}{'CPU ms/workload':>16}{'calls':>8}"]
        calls = result["stage_calls_per_workload"]
        for stage, cpu_ms in sorted(
            result["stage_cpu_ms_per_workload"].items(), key=lambda item: -item[1]
        ):
            lines.append(f"{stage:<34}{cpu_ms:>16.3f}{calls[stage]:>8.2f}")
        for key, title in (("by_operation", "operation"), ("by_vertex", "vertex")):
            counts = result["recomputes_per_workload"].get(key, {})
            lines += ["", f"{'recomputed ' + title + ' (top 5)':<34}{'per workload':>16}"]
            for name, count in sorted(counts.items(), key=lambda item: -item[1])[:5]:
                lines.append(f"{name:<34}{count:>16.3f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "workload", choices=("kaggle_first", "kaggle_repeat", "stream_tcp", "stream_mproc")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--stages", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.stages)
    print(render(result))
    print(json.dumps(result))  # last line, for scripts
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
