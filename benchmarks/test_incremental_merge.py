"""Incremental merge path vs full-copy/full-recompute (perf gate).

Not a figure from the paper: this gates the service's incremental merge
machinery.  Two identical worlds replay the same merge cycles — a seeded
~5k-vertex EG receiving batches of 8 small extension workloads — one
through the fast path (installed ``UtilityIndex`` + copy-on-write
``publish(dirty_vertices=...)``), one through the historical slow path
(full ``recreation_costs``/``potentials`` recompute + full snapshot
copy).  The contract: both worlds end bit-identical (``eg_fingerprint``),
the dirty set stays proportional to the batch rather than the EG, and the
fast path is at least 5x quicker per merge cycle at full scale.  A third
world runs SA under a budget it never reaches: like HM's, its ``select``
scores per merge what the batch dirtied, not the EG.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import FULL_SCALE, report, scaled

from repro.dataframe import DataFrame
from repro.eg.graph import ExperimentGraph
from repro.eg.storage import SimpleArtifactStore
from repro.eg.updater import Updater
from repro.eg.utility_index import UtilityIndex
from repro.experiments.swarm import eg_fingerprint
from repro.graph.artifacts import ArtifactMeta, ArtifactType
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization import HeuristicMaterializer, StorageAwareMaterializer
from repro.service.versioned import VersionedExperimentGraph

N_CHAINS = scaled(50, minimum=8)
DEPTH = scaled(100, minimum=12)
BATCH_SIZE = 8
PREFIX = 10  # extension workloads branch off after this many chain steps
TIMED_ROUNDS = 3


class Step(DataOperation):
    def __init__(self, tag: str):
        super().__init__("inc-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def _frame() -> DataFrame:
    return DataFrame({"x": np.arange(4.0)})


def _mark_model(vertex, quality: float) -> None:
    vertex.meta = ArtifactMeta(
        artifact_type=ArtifactType.MODEL, quality=quality, model_type="Fake"
    )
    vertex.artifact_type = ArtifactType.MODEL


def seed_workload(chain: int) -> WorkloadDAG:
    """One deep chain: source -> DEPTH steps, a scored model at the tip."""
    dag = WorkloadDAG()
    current = dag.add_source(f"chain{chain}", payload=_frame())
    for level in range(DEPTH):
        current = dag.add_operation([current], Step(f"{chain}:{level}"))
        dag.vertex(current).record_result(_frame(), compute_time=0.001 * (level + 1))
    _mark_model(dag.vertex(current), quality=0.5 + chain / (4 * N_CHAINS))
    dag.mark_terminal(current)
    return dag


def extension_workload(chain: int, round_index: int) -> WorkloadDAG:
    """A small follow-up: reuse the chain's first PREFIX steps, branch off.

    Compute times of the reused prefix match the seed exactly, so the
    merge dirties only the prefix bookkeeping (frequency/last_seen) plus
    the handful of genuinely new branch vertices — never the whole EG.
    """
    dag = WorkloadDAG()
    current = dag.add_source(f"chain{chain}", payload=_frame())
    for level in range(PREFIX):
        current = dag.add_operation([current], Step(f"{chain}:{level}"))
        dag.vertex(current).record_result(_frame(), compute_time=0.001 * (level + 1))
    for leaf in range(3):
        current = dag.add_operation([current], Step(f"b{round_index}:{chain}:{leaf}"))
        dag.vertex(current).record_result(_frame(), compute_time=0.002 * (leaf + 1))
    _mark_model(dag.vertex(current), quality=0.6 + (chain + round_index) / (8 * N_CHAINS))
    dag.mark_terminal(current)
    return dag


class CountingStore(SimpleArtifactStore):
    """Counts ``get``: a merge decides from meta-data and must read none."""

    gets = 0

    def get(self, vertex_id):
        self.gets += 1
        return super().get(vertex_id)


class World:
    """One EG + updater + versioned view, on either merge path."""

    def __init__(self, incremental: bool, materializer=HeuristicMaterializer):
        self.incremental = incremental
        self.eg = ExperimentGraph(CountingStore())
        self.index = UtilityIndex.install(self.eg) if incremental else None
        self.updater = Updater(self.eg, materializer(budget_bytes=1e9))
        self.updater.update_batch([seed_workload(chain) for chain in range(N_CHAINS)])
        self.versioned = VersionedExperimentGraph(eg=self.eg)
        self.updater.clear_dirty()
        self.last_dirty = 0

    def merge_cycle(self, batch: list[WorkloadDAG]) -> float:
        """One merge-worker drain: union + materialize + publish.  Seconds."""
        started = time.perf_counter()
        self.updater.update_batch(batch, evict=self.versioned.defer_unmaterialize)
        if self.incremental:
            dirty = self.updater.pending_dirty
            self.last_dirty = len(dirty)
            self.versioned.publish(dirty_vertices=set(dirty))
        else:
            self.last_dirty = len(self.updater.pending_dirty)
            self.versioned.publish()
        elapsed = time.perf_counter() - started
        self.updater.clear_dirty()
        self.versioned.flush_deferred()
        return elapsed


def test_incremental_merge(benchmark):
    def run():
        fast = World(incremental=True)
        slow = World(incremental=False)
        unbounded_sa = World(incremental=True, materializer=StorageAwareMaterializer)
        batches = [
            [extension_workload(chain, round_index) for chain in range(BATCH_SIZE)]
            for round_index in range(TIMED_ROUNDS + 1)
        ]
        # warm both worlds with an untimed round, then time the rest
        fast.merge_cycle(batches[0])
        slow.merge_cycle(batches[0])
        fast_seconds = sum(fast.merge_cycle(batch) for batch in batches[1:])
        slow_seconds = sum(slow.merge_cycle(batch) for batch in batches[1:])
        for batch in batches:
            unbounded_sa.merge_cycle(batch)
        return fast, slow, unbounded_sa, fast_seconds, slow_seconds

    fast, slow, unbounded_sa, fast_seconds, slow_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    hm, sa = fast.updater.materializer, unbounded_sa.updater.materializer
    speedup = slow_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    total = fast.eg.num_vertices
    per_cycle_fast = fast_seconds / TIMED_ROUNDS
    per_cycle_slow = slow_seconds / TIMED_ROUNDS

    report(
        f"Incremental merge: batch of {BATCH_SIZE} against a {total}-vertex EG",
        f"  fast path (COW + utility index): {per_cycle_fast * 1e3:.1f}ms/cycle",
        f"  slow path (full copy+recompute): {per_cycle_slow * 1e3:.1f}ms/cycle "
        f"-> {speedup:.1f}x",
        f"  dirty={fast.last_dirty}/{total} vertices "
        f"cost_dirty={fast.index.last_cost_dirty} "
        f"pot_dirty={fast.index.last_potential_dirty}",
        f"  select scored {hm.last_scored} (HM) / {sa.last_scored} (SA) vertices "
        f"and ranked none: routes {hm.routes} / {sa.routes}",
    )

    # both paths must produce bit-identical EGs and snapshots
    assert eg_fingerprint(fast.eg) == eg_fingerprint(slow.eg)
    with fast.versioned.acquire() as lease:
        assert eg_fingerprint(lease.eg) == eg_fingerprint(fast.eg)
    fast.index.verify()

    assert eg_fingerprint(unbounded_sa.eg) == eg_fingerprint(fast.eg)

    # the dirty set is proportional to the batch, not the graph
    assert fast.last_dirty * 4 < total
    assert fast.index.last_cost_dirty < fast.last_dirty
    # ... and so is what select looks at: the batch's dirty vertices plus
    # the 3 leaves per workload the previous batch stored (a stored flag
    # is an input of the running budget charge) — and no merge ranked anything
    for world, materializer in ((fast, hm), (unbounded_sa, sa)):
        assert materializer.last_scored <= world.last_dirty + 3 * BATCH_SIZE
        assert materializer.routes == {
            "shortcut": TIMED_ROUNDS + 2, "budget": 0, "inexact": 0
        }

    benchmark.extra_info["incmerge_speedup"] = round(speedup, 2)
    # seeding and every merge cycle of both worlds: no artifact read back
    benchmark.extra_info["vc_exact_merge_store_gets"] = (
        fast.eg.store.gets + slow.eg.store.gets + unbounded_sa.eg.store.gets
    )
    benchmark.extra_info["vc_exact_incmerge_eg_vertices"] = total
    benchmark.extra_info["vc_exact_incmerge_batch_dirty"] = fast.last_dirty
    benchmark.extra_info["vc_exact_incmerge_cost_dirty"] = fast.index.last_cost_dirty
    benchmark.extra_info["vc_exact_incmerge_hm_scored"] = hm.last_scored
    benchmark.extra_info["vc_exact_incmerge_sa_scored"] = sa.last_scored
    benchmark.extra_info["vc_exact_incmerge_pot_dirty"] = (
        fast.index.last_potential_dirty
    )

    if FULL_SCALE:
        assert speedup >= 5.0
    else:
        assert speedup > 1.0
