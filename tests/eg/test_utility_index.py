"""Tests for the incrementally maintained UtilityIndex.

The contract under test is *exact* equality: after any sequence of
``union_workload`` calls, the maintained recreation costs and potentials
must be bit-identical to a full recompute
(``math.fsum`` makes the cost sums order-independent; potentials are
``max`` chains).  The stored set must equal the flags after every way a
flag flips, and the changed ids must cover every vertex whose utility
inputs moved.
"""

import random

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.eg import Updater, load_eg, save_eg
from repro.eg.graph import ExperimentGraph
from repro.eg.utility_index import UtilityIndex, UtilityIndexDivergence
from repro.graph.artifacts import ArtifactMeta, ArtifactType
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation
from repro.materialization import MaterializeAll, MaterializeNone


class Step(DataOperation):
    def __init__(self, tag):
        super().__init__("uix-step", params={"tag": tag})

    def run(self, underlying_data):
        return underlying_data


def _frame() -> DataFrame:
    return DataFrame({"x": np.arange(4.0)})


def _mark_model(vertex, quality: float) -> None:
    vertex.meta = ArtifactMeta(
        artifact_type=ArtifactType.MODEL, quality=quality, model_type="Fake"
    )
    vertex.artifact_type = ArtifactType.MODEL


def chain_workload(
    tags: list[str],
    compute_times: list[float],
    source: str = "src",
    tip_quality: float | None = None,
) -> WorkloadDAG:
    """A linear source -> tags[0] -> ... -> tags[-1] workload."""
    dag = WorkloadDAG()
    current = dag.add_source(source, payload=_frame())
    for tag, compute_time in zip(tags, compute_times):
        current = dag.add_operation([current], Step(tag))
        dag.vertex(current).record_result(_frame(), compute_time=compute_time)
    if tip_quality is not None:
        _mark_model(dag.vertex(current), tip_quality)
    dag.mark_terminal(current)
    return dag


def random_workload(rng: random.Random) -> WorkloadDAG:
    """A randomized workload drawn from a small operation pool.

    Tags repeat across calls, so successive unions hit existing EG
    vertices with fresh compute times (retimes) and fresh model
    qualities (requalifies); whether a tag is a model is deterministic
    so a vertex id never changes artifact type between workloads.
    """
    dag = WorkloadDAG()
    source = dag.add_source(f"src{rng.randrange(2)}", payload=_frame())
    frontier = [source]
    for _ in range(rng.randrange(3, 10)):
        tag = rng.randrange(24)
        distinct = list(dict.fromkeys(frontier))
        if len(distinct) >= 2 and rng.random() < 0.25:
            inputs = rng.sample(distinct, 2)
            vertex_id = dag.add_operation(inputs, Step(f"join{tag}"))
        else:
            vertex_id = dag.add_operation([rng.choice(frontier)], Step(f"t{tag}"))
        vertex = dag.vertex(vertex_id)
        vertex.record_result(_frame(), compute_time=round(rng.uniform(0.1, 3.0), 3))
        if tag % 3 == 0:
            _mark_model(vertex, quality=round(rng.random(), 3))
        frontier.append(vertex_id)
    dag.mark_terminal(frontier[-1])
    return dag


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [7, 23, 0xC0FFEE])
    def test_batch_sequences_match_full_recompute(self, seed):
        rng = random.Random(seed)
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        for _ in range(40):
            eg.union_workload(random_workload(rng))
            # exact dict equality against the O(graph) recompute
            assert index.recreation_costs() == eg.recreation_costs()
            assert index.potentials() == eg.potentials()
            index.verify()
        assert index.deltas_applied == 40
        assert index.cross_checks_passed == 40

    def test_install_on_populated_graph(self):
        rng = random.Random(11)
        eg = ExperimentGraph()
        for _ in range(10):
            eg.union_workload(random_workload(rng))
        index = UtilityIndex.install(eg)
        assert eg.utility_index is index
        index.verify()
        eg.union_workload(random_workload(rng))
        index.verify()


class TestDirtyCones:
    def test_reused_prefix_keeps_cost_cone_small(self):
        # long chain, then a workload that reuses its prefix and adds one
        # leaf: only the leaf's costs are recomputed, not the whole EG
        tags = [f"c{i}" for i in range(30)]
        times = [1.0 + i for i in range(30)]
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        eg.union_workload(chain_workload(tags, times))
        extension = chain_workload(tags[:3] + ["leaf"], times[:3] + [5.0])
        eg.union_workload(extension)
        assert index.last_cost_dirty == 1  # just the leaf
        # potentials walk the leaf's ancestors: src + 3 prefix steps + leaf
        assert index.last_potential_dirty == 5
        assert index.last_potential_dirty < eg.num_vertices
        index.verify()

    def test_retime_propagates_to_descendants(self):
        tags = ["a", "b", "c"]
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        eg.union_workload(chain_workload(tags, [1.0, 1.0, 1.0]))
        before = dict(index.recreation_costs())
        # re-run the first step slower: every downstream cost moves
        eg.union_workload(chain_workload(tags, [4.0, 1.0, 1.0]))
        after = index.recreation_costs()
        changed = [vid for vid in before if after[vid] != before[vid]]
        assert len(changed) == 3  # a, b, c — but not the source
        index.verify()

    def test_requalify_updates_ancestor_potentials(self):
        tags = ["a", "b", "m"]
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        eg.union_workload(chain_workload(tags, [1.0, 1.0, 1.0], tip_quality=0.4))
        assert all(p == 0.4 for p in index.potentials().values())
        eg.union_workload(chain_workload(tags, [1.0, 1.0, 1.0], tip_quality=0.9))
        assert all(p == 0.9 for p in index.potentials().values())
        index.verify()


class TestDeltaReporting:
    def test_union_reports_changes_against_prior_state(self):
        eg = ExperimentGraph()
        first = eg.union_workload(
            chain_workload(["a", "b"], [1.0, 2.0], tip_quality=0.5)
        )
        assert len(first.new_vertices) == 3  # source + 2 steps
        assert len(first.new_edges) == 2
        assert not first.touched
        second = eg.union_workload(
            chain_workload(["a", "b", "c"], [1.5, 2.0, 3.0], tip_quality=0.8)
        )
        assert len(second.new_vertices) == 1
        assert len(second.touched) == 3
        retimed = set(second.compute_time_changes)
        assert len(retimed) == 1  # only "a" changed compute time
        assert second.compute_time_changes[retimed.pop()] == 1.0
        # "b" lost its model quality? no — its quality never changed; the
        # old tip "b" was requalified from 0.5 to 0 only if the new meta
        # cleared it, which the union's merge rule forbids
        assert all(old == 0.5 for old in second.quality_changes.values())
        # dirty set covers everything either pass touched
        assert second.dirty_vertices() == set(second.new_vertices) | second.touched

    def test_uninstall_detaches(self):
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        index.uninstall()
        assert eg.utility_index is None
        eg.union_workload(chain_workload(["a"], [1.0]))
        assert index.deltas_applied == 0


class TestVerify:
    def test_verify_catches_behind_the_back_mutation(self):
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        eg.union_workload(chain_workload(["a", "b"], [1.0, 2.0]))
        index.verify()
        tip = next(
            v.vertex_id for v in eg.artifact_vertices() if not v.is_source
        )
        eg.vertex(tip).compute_time = 99.0  # not via union_workload
        with pytest.raises(UtilityIndexDivergence):
            index.verify()


def _flagged(eg: ExperimentGraph) -> set:
    return eg.materialized_ids() - eg.source_ids


def _utility_inputs_of(eg: ExperimentGraph) -> dict:
    costs, pots = eg.recreation_costs(), eg.potentials()
    return {
        v.vertex_id: (v.frequency, v.size, costs[v.vertex_id], pots[v.vertex_id], v.materialized)
        for v in eg.vertices()
    }


class TestStoredSet:
    def test_follows_materialize_deselect_and_deferred_eviction(self):
        rng = random.Random(5)
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        keep_all = Updater(eg, MaterializeAll())
        for _ in range(4):
            keep_all.update(random_workload(rng))
        assert index.stored and index.stored == _flagged(eg)
        assert eg.stored_ids() is index.stored
        assert not index.stored & eg.source_ids

        victim = sorted(index.stored)[0]
        eg.unmaterialize(victim)
        assert victim not in index.stored
        # a deferred eviction flips the flag and leaves the content behind
        report = Updater(eg, MaterializeNone()).update_batch(
            [random_workload(rng)], evict=lambda vertex_id: 0
        )
        assert report.evicted and index.stored == set() == _flagged(eg)
        assert all(vertex_id in eg.store for vertex_id in report.evicted)
        index.verify()

    def test_built_at_install_on_a_reopened_graph(self, tmp_path):
        rng = random.Random(9)
        eg = ExperimentGraph()
        updater = Updater(eg, MaterializeAll())
        for _ in range(3):
            updater.update(random_workload(rng))
        assert eg.utility_index is None and eg.stored_ids() == _flagged(eg)
        save_eg(eg, tmp_path / "eg")
        reopened = load_eg(tmp_path / "eg")
        index = UtilityIndex.install(reopened)
        assert index.stored == _flagged(eg) != set()
        index.verify()

    def test_verify_catches_a_flag_set_by_hand(self):
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        Updater(eg, MaterializeAll()).update(chain_workload(["a", "b"], [1.0, 2.0]))
        index.verify()
        eg.vertex(sorted(index.stored)[0]).materialized = False  # not via deselect
        with pytest.raises(UtilityIndexDivergence, match="stored set"):
            index.verify()


class TestChangedIds:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_drain_covers_every_vertex_whose_inputs_moved(self, seed):
        rng = random.Random(seed)
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        updater = Updater(eg, MaterializeAll())
        assert index.drain_changed() == set()
        for merge in range(25):
            before = _utility_inputs_of(eg)
            # alternate: stored-flag flips reach the set too
            updater.materializer = MaterializeNone() if merge % 5 == 4 else MaterializeAll()
            updater.update(random_workload(rng))
            after = _utility_inputs_of(eg)
            moved = {vid for vid in after if before.get(vid) != after[vid]}
            drained = index.drain_changed()
            assert moved <= drained
            assert index.drains == merge + 2
        assert index.drain_changed() == set()

    def test_a_repeat_that_only_bumps_frequencies_is_reported(self):
        eg = ExperimentGraph()
        index = UtilityIndex.install(eg)
        eg.union_workload(chain_workload(["a", "b"], [1.0, 2.0]))
        index.drain_changed()
        delta = eg.union_workload(chain_workload(["a", "b"], [1.0, 2.0]))
        # no cone moved, yet f — an input of r_cs — did, on all three
        assert index.last_cost_dirty == 0 and index.last_potential_dirty == 0
        assert index.drain_changed() == delta.touched and len(delta.touched) == 3
        assert index.last_changed == 3
