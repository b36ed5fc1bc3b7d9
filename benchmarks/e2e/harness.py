"""The four workloads: set-up, closed-loop drive, output checks, tear-down.

Every workload is a closed loop — a tenant waits for a script's result
before sending the next — and runs the program at its constructor
defaults (``batch_linger_s=0``, ``queue_capacity=64``, default flight
recorder); only the materializer, store and budget named per workload are
chosen here.  Untraced drives go through the program's own clients
(``CollaborativeOptimizer``, ``TransportServiceClient``, ``ServiceClient``).
A traced drive builds the same topology with the timing proxies of
:mod:`tracing` injected and walks the five client steps itself
(:class:`TracedClient`), so each call into a layer gets a span.
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.client.api import Workspace
from repro.client.executor import ExecutionReport, VirtualCostModel
from repro.client.parser import parse_workload
from repro.dataframe import DataFrame
from repro.eg.storage import DedupArtifactStore, LoadCostModel
from repro.experiments.swarm import eg_fingerprint
from repro.graph.operations import TrainOperation
from repro.graph.pruning import prune_workload
from repro.materialization import MaterializeAll, StorageAwareMaterializer
from repro.ml.base import BaseEstimator
from repro.reuse import LinearReuse
from repro.server import CollaborativeOptimizer
from repro.service import (
    EGService,
    RetryPolicy,
    ServiceClient,
    ServiceOverloadedError,
)
from repro.shard import ProcessShardCoordinator, balanced_source_names
from repro.shard.persistence import load_partitioned_eg
from repro.storage import TieredArtifactStore, TieredLoadCostModel
from repro.transport import (
    AsyncTransportServer,
    ConnectionPool,
    TransportServiceClient,
)
from repro.workloads.home_credit import generate_home_credit
from repro.workloads.kaggle import KAGGLE_WORKLOADS

from ops import make_source
from speed import SpeedProbe
from streams import ScriptSpec, generate_stream, to_script
from tracing import (
    CAPTURED_DAGS,
    ServiceChannel,
    SpanLog,
    TimedMaterializer,
    TimedPool,
    TimedReuse,
    TimedService,
    TimedStore,
    TracedClient,
    WireChannel,
)

__all__ = [
    "WORKLOADS",
    "Drive",
    "prepare_inputs",
    "make_workload",
    "replay_matches",
    "reap_children",
]

WORKLOADS = {
    "kaggle_first": (
        "Write path: the 8 Kaggle scripts on a fresh EG, inline optimizer, binding SA "
        "budget, tiered store. Compute, store.put, demotion and materialization work; "
        "transport and shards idle."
    ),
    "kaggle_repeat": (
        "Read path of the same layers: the 8 scripts looped on a warm EG. Reuse planning "
        "and mostly-cold store.get replace compute, so a store change can move this "
        "opposite to kaggle_first."
    ),
    "stream_tcp": (
        "Server path: 2 tenants stream repeat/modify/fresh scripts over the binary "
        "transport to a background EGService. Wire, commit queue and merge on a growing "
        "EG dominate; compute is small."
    ),
    "stream_mproc": (
        "Shard path: the same stream over 2 lineage groups with cross-group joins via a "
        "2-worker ProcessShardCoordinator. Routing, submit lock and worker hop dominate; "
        "SA and tenant transport idle."
    ),
}

# ---- sizing ----------------------------------------------------------------
# Shapes are the issue's; counts are set so that the set-ups, timed repeats
# and output checks of any workload end within ~30 s on a 2-core box (the
# driver's budget per run), not by changing what runs.
#
# A drive does a fixed number of scripts, not a fixed time: with a growing EG
# a time-bound loop would let a faster build do more work, end on a larger
# graph and so report a worse median and a higher memory peak than a slower
# one.  ``--seconds`` is turned into a script count at these nominal rates
# (scripts a second on the reference box), so it still sets the run length.
NOMINAL_WPS = {
    "kaggle_first": 4.0,
    "kaggle_repeat": 18.0,
    "stream_tcp": 80.0,
    "stream_mproc": 100.0,
}
KAGGLE_APPLICATIONS = 600
#: binding SA budget and hot-tier budget, fixed in bytes: 16/130 and 5 % of
#: the ~11.2 MB artifact volume the 8 scripts produce at 600 applications
SA_BUDGET_BYTES = 1_376_000
HOT_BUDGET_BYTES = 559_000
#: a budget SA never reaches on the stream workloads
UNBOUNDED_BUDGET_BYTES = float(1 << 40)
STREAM_SCRIPTS = 6000
TENANTS = 2
JOIN_SHARE = 0.15
QUALITY_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Process accounting (Linux /proc; the driver and its shard workers)
# ----------------------------------------------------------------------
def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids() -> list[int]:
    """Processes, running or ended but not waited for, whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # ended while we were looking
            if int(fields[1]) == me:
                pids.append(int(entry.name))
    return pids


def reap_children() -> None:
    """Stop, and wait for, every process this one started.

    The shard workers are stopped by their coordinator, but the ``spawn``
    context they come from also starts :mod:`multiprocessing`'s resource
    tracker, which lives until every holder of its pipe — this process and
    each worker — has closed it, and is never waited for: where nothing
    adopts and reaps orphans it outlived the run as a zombie.  So: kill and
    wait for any worker still about (a run that failed or was terminated
    half-way through a stop), close the tracker's pipe and wait for it, then
    sweep once more for whatever is left.
    """
    import signal
    from multiprocessing import resource_tracker

    def end(pids: list[int]) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    end([pid for pid in child_pids() if pid != tracker_pid])
    if tracker_pid is not None:
        try:
            tracker._stop()  # closes the pipe, then waitpid()s the tracker
        except (OSError, AttributeError):
            pass
    end(child_pids())


def settle_memory() -> None:
    """Start a repeat from the memory state the first one started from.

    An earlier repeat's EG and payloads left uncollected slow the next one
    down, and the heap they (and the replay check's second EG) leave behind
    stays resident — the second and third repeat of ``stream_tcp`` peaked
    80 MB above the first.  So: collect, hand free heap back to the system
    (glibc's ``malloc_trim``; skipped on another libc) and restart the
    process's peak-RSS watermark (left running where ``/proc`` is
    read-only: a repeat's peak then includes the ones before it).
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def _accumulate(total: dict[str, float], part: Mapping[str, Any], sign: int = 1) -> None:
    """``total += sign * part`` over the numeric entries of a counter dict."""
    for key, value in part.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + sign * value


def counter_total(snapshot: Mapping[str, Any], name: str) -> float:
    """Sum of a counter's series in a ``metrics_snapshot()``."""
    series = snapshot.get(name, {}).get("series", ())
    return float(sum(entry["value"] for entry in series))


def _pruned(workspace: Workspace) -> Any:
    prune_workload(workspace.dag)
    return workspace.dag


# ----------------------------------------------------------------------
# Results of one timed phase
# ----------------------------------------------------------------------
@dataclass
class Drive:
    """What one timed phase measured."""

    #: round-trip seconds of every script that completed
    latencies: list[float] = field(default_factory=list)
    raised: int = 0
    #: refused by backpressure after the client's retry policy gave up
    refused: int = 0
    #: seconds of the timed phase (single-client loops: sum of round trips,
    #: the harness's checks between them are excluded)
    wall_s: float = 0.0
    #: CPU seconds of the driver plus worker processes over the same phase
    cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    #: executor counters summed over completed scripts
    executed_vertices: int = 0
    loaded_vertices: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    @property
    def failed(self) -> int:
        return self.raised + self.refused

    def record(self, report: ExecutionReport, seconds: float) -> None:
        self.latencies.append(seconds)
        self.executed_vertices += report.executed_vertices
        self.loaded_vertices += report.loaded_vertices


# ----------------------------------------------------------------------
# kaggle_first / kaggle_repeat
# ----------------------------------------------------------------------
class _EagerRecorder(Workspace):
    """Eager workspace that keeps what a lazy run reports: the terminal
    payloads in marking order and every trained model's quality."""

    def __init__(self) -> None:
        super().__init__(eager=True)
        self.terminals: list[tuple[Any, float | None]] = []
        self.qualities: list[float] = []
        self._quality_of: dict[int, float] = {}

    def _apply(self, operation: Any, inputs: Any) -> Any:
        node = super()._apply(operation, inputs)
        if isinstance(operation, TrainOperation):
            payloads = [parent.payload for parent in inputs]
            score = operation.score(
                node.payload, payloads[0] if len(payloads) == 1 else payloads
            )
            if score is not None:
                self._quality_of[id(node)] = score
                self.qualities.append(score)
        return node

    def mark_terminal(self, node: Any) -> None:
        self.terminals.append((node.payload, self._quality_of.get(id(node))))


def same_output(got: Any, want: Any) -> bool:
    """Output equality: frames by ``DataFrame.__eq__``, scores to 1e-9."""
    if isinstance(want, DataFrame):
        return isinstance(got, DataFrame) and got == want
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same_output(got[key], want[key]) for key in want)
        )
    if isinstance(want, (float, np.floating)):
        if not isinstance(got, (float, np.floating)):
            return False
        return abs(got - want) <= QUALITY_TOLERANCE or (got != got and want != want)
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and bool(
            np.allclose(got, want, equal_nan=True)
        )
    if isinstance(want, BaseEstimator):
        # fitted state is compared through the model's quality score
        return type(got) is type(want) and repr(got) == repr(want)
    return bool(got == want)


@dataclass
class KaggleInputs:
    """Seeded Home Credit tables and, per script, one eager reference run."""

    sources: Mapping[str, Any]
    reference: dict[int, _EagerRecorder]

    @classmethod
    def prepare(cls, seed: int, probe: SpeedProbe) -> "KaggleInputs":
        sources = generate_home_credit(n_applications=KAGGLE_APPLICATIONS, seed=seed)
        reference = {}
        for workload_id, script in KAGGLE_WORKLOADS.items():
            probe.sample()
            reference[workload_id] = _EagerRecorder()
            script(reference[workload_id], sources)
        probe.sample()
        return cls(sources, reference)


class KaggleWorkload:
    """The paper's Figure 5 sequence through an inline optimizer."""

    def __init__(
        self, name: str, inputs: KaggleInputs, workdir: Path, log: SpanLog | None
    ):
        self.name = name
        self.sources = inputs.sources
        self.reference = inputs.reference
        self.workdir = workdir
        self.log = log
        self.warm = name == "kaggle_repeat"
        self.problems: list[str] = []
        self.amplifications: list[float] = []
        self.optimizer: CollaborativeOptimizer | None = None
        self._stores = 0
        self.channels: list[ServiceChannel] = []
        self.traced_clients: list[TracedClient] = []
        #: service / store counters summed over every EG the drive used
        self.stats: dict[str, float] = {}
        self.store_counters: dict[str, float] = {}
        self.metrics: list[dict[str, Any]] = []

    # -- set-up ---------------------------------------------------------
    def setup(self, probe: SpeedProbe) -> None:
        """A fresh EG; ``kaggle_repeat`` warms it with one pass."""
        probe.sample()
        self._new_optimizer()
        if self.warm:
            for workload_id, script in KAGGLE_WORKLOADS.items():
                self._check(workload_id, self._run(script, f"warm:{workload_id}"))
                probe.sample()
            # the drive's counters start here, not at the warm pass
            self._count(sign=-1)

    def _new_optimizer(self) -> None:
        """Fresh EG: binding SA budget over a tiered store with a small hot tier."""
        self._drop_optimizer()
        self._stores += 1
        load_costs = TieredLoadCostModel.default()
        materializer: Any = StorageAwareMaterializer(
            SA_BUDGET_BYTES, load_cost_model=load_costs
        )
        reuse: Any = LinearReuse(load_costs)
        store: Any = TieredArtifactStore(
            HOT_BUDGET_BYTES, directory=self.workdir / f"cold-{self._stores}"
        )
        if self.log is not None:
            materializer = TimedMaterializer(materializer, self.log)
            reuse = TimedReuse(reuse, self.log)
            store = TimedStore(store, self.log)
        self.optimizer = CollaborativeOptimizer(
            materializer, reuse_algorithm=reuse, store=store, load_cost_model=load_costs
        )
        if self.log is not None:
            service = TimedService(self.optimizer.service, self.log, "service")
            session = self.optimizer.service.open_session("traced")
            channel = ServiceChannel(service, session.session_id, RetryPolicy())
            self.channels.append(channel)
            self.traced_clients = [
                TracedClient(
                    self.log, self.optimizer.executor, self.optimizer.cost_model, channel
                )
            ]

    def _count(self, sign: int = 1) -> None:
        """Add (or, for a baseline, subtract) the live EG's counters."""
        service = self.optimizer.service
        _accumulate(self.stats, asdict(service.stats()), sign)
        _accumulate(self.store_counters, service.store_statistics(), sign)

    def _drop_optimizer(self) -> None:
        if self.optimizer is not None:
            self.optimizer.service.stop()
            self.optimizer = None
            shutil.rmtree(self.workdir / f"cold-{self._stores}", ignore_errors=True)

    # -- drive ----------------------------------------------------------
    def _run(self, script: Callable, label: str) -> ExecutionReport:
        if self.traced_clients:
            return self.traced_clients[0].run_script(script, self.sources, label)
        return self.optimizer.run_script(script, self.sources)

    def drive(self, scripts: int, probe: SpeedProbe) -> Drive:
        """``scripts`` round trips, in whole passes over the 8 scripts.

        ``kaggle_first`` starts every pass on a fresh EG.  Only round trips
        are timed: building the next EG, checking outputs and sampling the
        machine's speed happen between them, outside the timed phase.
        """
        drive = Drive()
        probe.sample()
        for passes in range(max(1, round(scripts / len(KAGGLE_WORKLOADS)))):
            if not self.warm and passes:
                self._count()
                self._new_optimizer()
            for workload_id, script in KAGGLE_WORKLOADS.items():
                label = f"{passes}:{workload_id}"
                cpu_started = time.process_time()
                started = time.perf_counter()
                try:
                    report = self._run(script, label)
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    drive.raised += 1
                    self.problems.append(f"script {label} raised {error!r}")
                    report = None
                elapsed = time.perf_counter() - started
                drive.wall_s += elapsed
                drive.cpu_s += time.process_time() - cpu_started
                if report is not None:
                    drive.record(report, elapsed)
                    self._check(workload_id, report)
                probe.sample()
            eg = self.optimizer.eg
            self.amplifications.append(
                eg.store.total_bytes / eg.materialized_artifact_bytes(include_sources=True)
            )
        return drive

    # -- output check ---------------------------------------------------
    def _check(self, workload_id: int, report: ExecutionReport) -> None:
        """Every terminal payload / model quality equals the eager run's."""
        want = self.reference[workload_id]
        got = list(report.terminal_values.items())
        if len(got) != len(want.terminals):
            self.problems.append(
                f"w{workload_id}: {len(got)} terminals, eager run has {len(want.terminals)}"
            )
            return
        eg = self.optimizer.eg
        for (vertex_id, payload), (expected, quality) in zip(got, want.terminals):
            if not same_output(payload, expected):
                self.problems.append(f"w{workload_id}: terminal {vertex_id[:12]} differs")
            if quality is not None and (
                abs(eg.vertex(vertex_id).quality - quality) > QUALITY_TOLERANCE
            ):
                self.problems.append(f"w{workload_id}: quality of {vertex_id[:12]} differs")
        for vertex_id, quality in report.model_qualities.items():
            if not any(abs(quality - q) <= QUALITY_TOLERANCE for q in want.qualities):
                self.problems.append(
                    f"w{workload_id}: model {vertex_id[:12]} scored {quality!r}, "
                    "no eager model did"
                )

    def finish(self) -> None:
        """Nothing runs in the background; the last EG stays for the probes."""
        self._count()
        self.metrics.append(self.optimizer.service.metrics_snapshot())

    def check(self, drive: Drive) -> list[str]:
        return list(self.problems)

    def store_amplification(self) -> float:
        return statistics.median(self.amplifications)

    def worker_pids(self) -> list[int]:
        return []

    def teardown(self) -> None:
        self._drop_optimizer()

    # -- read surfaces of the traced run --------------------------------
    @property
    def final_eg(self) -> Any:
        return self.optimizer.eg

    @property
    def physical_bytes(self) -> int:
        return self.optimizer.eg.store.total_bytes

    @property
    def retries(self) -> int:
        return sum(channel.retries for channel in self.channels)

    def budget_fill_ratio(self) -> float:
        """Stored bytes charged to the SA budget (sources are outside it)."""
        eg = self.optimizer.eg
        source_bytes = eg.materialized_artifact_bytes(
            include_sources=True
        ) - eg.materialized_artifact_bytes()
        return (self.physical_bytes - source_bytes) / SA_BUDGET_BYTES

    def surface_metrics(self, scripts: int) -> dict[str, float]:
        return {}

    @contextmanager
    def ping_pool(self) -> Iterator[ConnectionPool]:
        """A transport server put in front of the inline service, to ping."""
        server = AsyncTransportServer(self.optimizer.service)
        host, port = server.start()
        try:
            with ConnectionPool(host, port, size=1) as pool:
                yield pool
        finally:
            server.stop()

    def fresh_dags(self) -> list[Callable[[], Any]]:
        return [
            lambda script=script: _pruned(parse_workload(script, self.sources))
            for script in KAGGLE_WORKLOADS.values()
        ]


# ----------------------------------------------------------------------
# stream_tcp / stream_mproc
# ----------------------------------------------------------------------
def replay_matches(
    eg: Any,
    labels: list[str],
    stream: list[ScriptSpec],
    source_names: list[str],
    sources: Mapping[str, Any],
    make_optimizer: Callable[[], CollaborativeOptimizer],
) -> bool:
    """Is ``eg`` bit-identical to a sequential replay of the commit log?"""
    replay = make_optimizer()
    for label in labels:
        replay.run_script(to_script(stream[int(label)], source_names), sources)
    return eg_fingerprint(replay.eg) == eg_fingerprint(eg)


@dataclass
class StreamInputs:
    """Seeded source frames and the script stream over them."""

    source_names: list[str]
    sources: Mapping[str, Any]
    stream: list[ScriptSpec]

    @classmethod
    def prepare(cls, seed: int, sharded: bool, probe: SpeedProbe) -> "StreamInputs":
        probe.sample()
        groups = 2 if sharded else 1
        names = (
            balanced_source_names(groups, groups, prefix="stream")
            if sharded
            else ["stream"]
        )
        sources = {
            name: make_source(seed * 31 + group) for group, name in enumerate(names)
        }
        stream = generate_stream(
            seed, STREAM_SCRIPTS, groups=groups, join_share=JOIN_SHARE if sharded else 0.0
        )
        return cls(names, sources, stream)


class StreamWorkload:
    """Two tenants streaming repeat / modify / fresh scripts at a service."""

    def __init__(
        self, name: str, inputs: StreamInputs, workdir: Path, log: SpanLog | None
    ):
        self.name = name
        self.source_names = inputs.source_names
        self.sources = inputs.sources
        self.stream = inputs.stream
        self.workdir = workdir
        self.log = log
        self.sharded = name == "stream_mproc"
        self.service: Any = None
        self.server: Any = None
        self.raw_pool: Any = None
        self.channels: list[Any] = []
        self.final_eg: Any = None
        self.stopped = False
        self.drive_problems: list[str] = []

    # -- set-up ---------------------------------------------------------
    def setup(self, probe: SpeedProbe) -> None:
        """Start the service (and server or workers) and open the sessions."""
        with probe.background():
            if self.sharded:
                self._start_coordinator()
            else:
                self._start_tcp()

    def _start_tcp(self) -> None:
        load_costs = LoadCostModel.in_memory()
        materializer: Any = StorageAwareMaterializer(UNBOUNDED_BUDGET_BYTES)
        reuse: Any = LinearReuse(load_costs)
        store: Any = DedupArtifactStore()
        if self.log is not None:
            materializer = TimedMaterializer(materializer, self.log)
            reuse = TimedReuse(reuse, self.log)
            store = TimedStore(store, self.log)
        self.service = EGService(
            materializer, reuse_algorithm=reuse, store=store, background=True
        )
        served: Any = self.service
        if self.log is not None:
            served = TimedService(self.service, self.log, "service")
        self.server = AsyncTransportServer(served)
        host, port = self.server.start()
        self.raw_pool = ConnectionPool(host, port, size=TENANTS, codec="binary")
        pool = self.raw_pool if self.log is None else TimedPool(self.raw_pool, self.log)
        self.clients = [
            TransportServiceClient(
                name=f"tenant-{index}", cost_model=VirtualCostModel(), pool=pool
            )
            for index in range(TENANTS)
        ]
        self.runners: list[Any] = list(self.clients)
        if self.log is not None:
            self.channels = [WireChannel(client, self.log) for client in self.clients]
            self.runners = [
                TracedClient(self.log, client.executor, client.cost_model, channel)
                for client, channel in zip(self.clients, self.channels)
            ]

    def _start_coordinator(self) -> None:
        reuse: Any = LinearReuse(TieredLoadCostModel.default())
        if self.log is not None:
            reuse = TimedReuse(reuse, self.log)
        self.service = ProcessShardCoordinator(
            2, reuse_algorithm=reuse, persist_dir=self.workdir / "shards"
        )
        self.clients = [
            ServiceClient(
                self.service, name=f"tenant-{index}", cost_model=VirtualCostModel()
            )
            for index in range(TENANTS)
        ]
        self.runners = list(self.clients)
        if self.log is not None:
            timed = TimedService(self.service, self.log, "shard")
            self.channels = [
                ServiceChannel(timed, client.session_id, client.retry_policy)
                for client in self.clients
            ]
            self.runners = [
                TracedClient(self.log, client.executor, client.cost_model, channel)
                for client, channel in zip(self.clients, self.channels)
            ]

    # -- drive ----------------------------------------------------------
    def script_for(self, position: int) -> Callable:
        return to_script(self.stream[position], self.source_names)

    def run_position(self, index: int, position: int) -> ExecutionReport:
        """Tenant ``index`` runs the stream's script ``position`` to its ack."""
        return self.runners[index].run_script(
            self.script_for(position), self.sources, label=str(position)
        )

    def drive(self, scripts: int, probe: SpeedProbe) -> Drive:
        """The first ``scripts`` of the stream; tenant ``i`` runs ``i, i+T, …``."""
        if scripts > len(self.stream):
            raise ValueError(f"the stream has {len(self.stream)} scripts, not {scripts}")
        drive = Drive()
        lock = threading.Lock()

        def tenant(index: int) -> None:
            for position in range(index, scripts, TENANTS):
                started = time.perf_counter()
                try:
                    report = self.run_position(index, position)
                except ServiceOverloadedError:
                    with lock:
                        drive.refused += 1
                    continue
                except Exception as error:  # noqa: BLE001 - counted as a failure
                    with lock:
                        drive.raised += 1
                        self.drive_problems.append(f"script {position} raised {error!r}")
                    continue
                elapsed = time.perf_counter() - started
                with lock:
                    drive.record(report, elapsed)

        threads = [
            threading.Thread(target=tenant, args=(index,), name=f"tenant-{index}")
            for index in range(TENANTS)
        ]
        pids = self.worker_pids()
        workers_before = sum(process_cpu_s(pid) for pid in pids)
        cpu_started = time.process_time()
        started = time.perf_counter()
        with probe.background():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            drive.wall_s = time.perf_counter() - started
        drive.worker_cpu_s = sum(process_cpu_s(pid) for pid in pids) - workers_before
        drive.cpu_s = time.process_time() - cpu_started + drive.worker_cpu_s
        return drive

    def worker_pids(self) -> list[int]:
        if not self.sharded or self.stopped:
            return []
        return [worker.process.pid for worker in self.service.workers]

    # -- tear-down and output check -------------------------------------
    def finish(self) -> None:
        """Close sessions, read the last counters, stop servers and workers."""
        for client in self.clients:
            client.close()
        recorder = self.service.flight_recorder
        self.recorder_spans = recorder.stats()["spans_seen"] if recorder else 0
        if self.sharded:
            self.worker_merge_ms = statistics.mean(
                1000.0 * stats.mean_merge_seconds for stats in self.service.shard_stats()
            )
            self.metrics = [self.service.metrics_snapshot()]
            self.stats = asdict(self.service.stats())
            self.stub_edges = self.service.partitioned.stub_count
            # Every commit was acknowledged before the drive returned, so
            # there is nothing to drain — and draining can wait out its full
            # 60 s timeout: the coordinator's reply hook may run before
            # submit_update counts the commit in flight, which leaks one
            # inflight slot for good (seen about once in three 4 s drives).
            # check() proves no commit was lost.
            self.service.stop(drain=False)
            partitioned = load_partitioned_eg(self.service.persist_dir)
            self.final_eg = partitioned.flatten()
            self.physical_bytes = sum(
                partition.store.total_bytes for partition in partitioned.partitions
            )
        else:
            self.client_wire = self.raw_pool.wire_stats()
            self.raw_pool.close()
            self.server_wire = self.server.wire_stats()
            self.server.stop()
            self.metrics = [self.service.metrics_snapshot()]
            self.service.stop()
            self.stats = asdict(self.service.stats())
            self.final_eg = self.service.eg
            self.physical_bytes = self.final_eg.store.total_bytes
        self.store_counters = self.final_eg.store.statistics()
        self.stopped = True

    def replay_optimizer(self) -> CollaborativeOptimizer:
        if self.sharded:
            return CollaborativeOptimizer(MaterializeAll(), cost_model=VirtualCostModel())
        return CollaborativeOptimizer(
            StorageAwareMaterializer(UNBOUNDED_BUDGET_BYTES),
            store=DedupArtifactStore(),
            cost_model=VirtualCostModel(),
        )

    def committed_labels(self) -> list[str]:
        return [record.label for record in self.service.commit_log()]

    def check(self, drive: Drive) -> list[str]:
        """The final EG equals a sequential replay of the commit log, and
        every script that did not fail was merged."""
        problems = list(self.drive_problems)
        labels = self.committed_labels()
        if len(labels) != drive.attempted - drive.failed:
            problems.append(
                f"{len(labels)} commits merged, "
                f"{drive.attempted - drive.failed} scripts completed"
            )
        if not replay_matches(
            self.final_eg,
            labels,
            self.stream,
            self.source_names,
            self.sources,
            self.replay_optimizer,
        ):
            problems.append("final EG differs from the sequential replay of the commit log")
        return problems

    def store_amplification(self) -> float:
        return self.physical_bytes / self.final_eg.materialized_artifact_bytes(
            include_sources=True
        )

    def teardown(self) -> None:
        if not self.stopped:
            if self.raw_pool is not None:
                self.raw_pool.close()
            if self.server is not None:
                self.server.stop()
            if self.service is not None:
                # a run that got here failed: nothing is worth waiting for
                self.service.stop(drain=False)
            self.stopped = True
        shutil.rmtree(self.workdir / "shards", ignore_errors=True)

    # -- read surfaces of the traced run --------------------------------
    @property
    def traced_clients(self) -> list[TracedClient]:
        return self.runners if self.log is not None else []

    @property
    def retries(self) -> int:
        return sum(channel.retries for channel in self.channels)

    def budget_fill_ratio(self) -> float:
        if self.sharded:
            return 0.0  # workers materialize everything: there is no budget
        return self.physical_bytes / UNBOUNDED_BUDGET_BYTES

    def surface_metrics(self, scripts: int) -> dict[str, float]:
        """``transport.*`` / ``shard.*`` / ``obs.*`` values read from the
        servers' counters rather than from spans."""
        values = {"obs.recorder_spans": float(self.recorder_spans)}
        if self.sharded:
            # the coordinator-to-worker hop, from the workers' own servers
            snapshot = self.metrics[0]
            wire = counter_total(snapshot, "repro_transport_wire_bytes_total")
            saved = counter_total(snapshot, "repro_transport_dedup_bytes_saved_total")
            commits = max(1.0, self.stats["commits_total"])
            values.update(
                {
                    "transport.shed_total": counter_total(
                        snapshot, "repro_transport_shed_total"
                    ),
                    "shard.cross_shard_ratio": counter_total(
                        snapshot, "repro_shard_cross_shard_commits_total"
                    )
                    / commits,
                    "shard.remote_planned_loads": counter_total(
                        snapshot, "repro_shard_remote_planned_loads_total"
                    ),
                    "shard.stub_edges": float(self.stub_edges),
                    "shard.worker_merge_ms": self.worker_merge_ms,
                }
            )
        else:
            wire = self.server_wire["bytes_in"] + self.server_wire["bytes_out"]
            saved = (
                self.server_wire["dedup_bytes_saved"]
                + self.client_wire["dedup_bytes_saved"]
            )
            values["transport.shed_total"] = float(self.server_wire["shed"])
            values["transport.pool_retries"] = float(self.client_wire["retries"])
        values["transport.wire_bytes_per_workload"] = wire / scripts
        values["transport.dedup_ref_ratio"] = saved / (saved + wire) if wire else 0.0
        return values

    @contextmanager
    def ping_pool(self) -> Iterator[ConnectionPool]:
        """The tenants' pool, or a connection to shard worker 0."""
        if not self.sharded:
            yield self.raw_pool
            return
        worker = self.service.workers[0]
        with ConnectionPool(worker.host, worker.port, size=1) as pool:
            yield pool

    def fresh_dags(self) -> list[Callable[[], Any]]:
        return [
            lambda label=label: _pruned(
                parse_workload(
                    to_script(self.stream[int(label)], self.source_names),
                    self.sources,
                    cost_model=VirtualCostModel(),
                )
            )
            for label in self.committed_labels()[-CAPTURED_DAGS:]
        ]


def prepare_inputs(name: str, seed: int, probe: SpeedProbe) -> Any:
    """Everything a workload derives from the seed, made once per run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {sorted(WORKLOADS)}")
    if name.startswith("kaggle"):
        return KaggleInputs.prepare(seed, probe)
    return StreamInputs.prepare(seed, name == "stream_mproc", probe)


def make_workload(name: str, inputs: Any, workdir: Path, log: SpanLog | None) -> Any:
    cls = KaggleWorkload if isinstance(inputs, KaggleInputs) else StreamWorkload
    return cls(name, inputs, workdir, log)
