"""Property-based tests (hypothesis) for core data structures and invariants.

The heavyweight properties are the planner ones: on random DAGs with random
costs, the linear-time reuse plan must cost exactly what the Helix min-cut
plan costs (both are optimal), and no more than either trivial baseline.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, DataFrame, derive_column_id
from repro.eg import Updater, load_eg, save_eg
from repro.eg.graph import ExperimentGraph
from repro.eg.utility_index import UtilityIndex
from repro.experiments.swarm import eg_fingerprint
from repro.eg.storage import (
    DedupArtifactStore,
    LoadCostModel,
    SimpleArtifactStore,
    StorageTier,
)
from repro.graph.artifacts import (
    ArtifactMeta,
    ArtifactType,
    payload_footprint,
    payload_size_bytes,
)
from repro.graph.dag import WorkloadDAG
from repro.graph.operations import DataOperation, operation_hash
from repro.materialization import (
    HelixMaterializer,
    HeuristicMaterializer,
    MaterializeAll,
    MaterializeNone,
    StorageAwareMaterializer,
)
from repro.materialization.base import AvailableContent, Materializer
from repro.ml import StandardScaler, accuracy_score, roc_auc_score
from repro.reuse import AllMaterializedReuse, HelixReuse, LinearReuse, NoReuse
from repro.reuse.maxflow import FlowNetwork
from repro.storage import TieredArtifactStore, TieredLoadCostModel

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ----------------------------------------------------------------------
# DataFrame invariants
# ----------------------------------------------------------------------
column_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


@st.composite
def frames(draw):
    n_rows = draw(st.integers(min_value=1, max_value=20))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    columns = []
    for j in range(n_cols):
        values = draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        columns.append(Column(f"c{j}", np.asarray(values)))
    return DataFrame(columns)


class TestFrameProperties:
    @SETTINGS
    @given(frames())
    def test_select_all_is_identity(self, frame):
        assert frame.select(frame.columns) == frame

    @SETTINGS
    @given(frames())
    def test_projection_preserves_lineage(self, frame):
        projected = frame.select(frame.columns[:1])
        assert projected.column_ids[frame.columns[0]] == frame.column_ids[frame.columns[0]]

    @SETTINGS
    @given(frames())
    def test_concat_rows_with_self_doubles(self, frame):
        tall = DataFrame.concat_rows([frame, frame])
        assert tall.num_rows == 2 * frame.num_rows
        assert tall.columns == frame.columns

    @SETTINGS
    @given(frames())
    def test_nbytes_additive_over_columns(self, frame):
        total = sum(frame.column(c).nbytes for c in frame.columns)
        assert frame.nbytes == total

    @SETTINGS
    @given(column_values)
    def test_groupby_sum_preserves_total(self, values):
        n = len(values)
        keys = np.arange(n) % 3
        frame = DataFrame({"k": keys, "v": np.asarray(values)})
        grouped = frame.groupby_agg("k", {"v": "sum"})
        assert grouped.values("v_sum").sum() == pytest.approx(np.sum(values), rel=1e-9)


class TestLineageProperties:
    @SETTINGS
    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_derive_deterministic(self, op, col):
        assert derive_column_id(op, col) == derive_column_id(op, col)

    @SETTINGS
    @given(
        st.text(min_size=1, max_size=10),
        st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.integers(min_value=-100, max_value=100),
            max_size=4,
        ),
    )
    def test_operation_hash_param_order_free(self, name, params):
        reordered = dict(reversed(list(params.items())))
        assert operation_hash(name, params) == operation_hash(name, reordered)


# ----------------------------------------------------------------------
# Store invariants
# ----------------------------------------------------------------------
@st.composite
def overlapping_frames(draw):
    """Frames sharing lineage ids drawn from a small pool."""
    pool = [f"lineage{i}" for i in range(6)]
    n_frames = draw(st.integers(min_value=1, max_value=4))
    out = []
    for f in range(n_frames):
        ids = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        )
        columns = [Column(f"c{j}", np.zeros(8), cid) for j, cid in enumerate(ids)]
        out.append((f"vertex{f}", DataFrame(columns)))
    return out


class TestDedupStoreProperties:
    @SETTINGS
    @given(overlapping_frames())
    def test_physical_never_exceeds_logical(self, payloads):
        store = DedupArtifactStore()
        for vertex_id, frame in payloads:
            store.put(vertex_id, frame)
        logical = sum(
            frame.column(name).nbytes for _, frame in payloads for name in frame.columns
        )
        assert store.total_bytes <= logical

    @SETTINGS
    @given(overlapping_frames())
    def test_get_roundtrip(self, payloads):
        store = DedupArtifactStore()
        for vertex_id, frame in payloads:
            store.put(vertex_id, frame)
        for vertex_id, frame in payloads:
            assert store.get(vertex_id) == frame

    @SETTINGS
    @given(overlapping_frames())
    def test_remove_all_releases_everything(self, payloads):
        store = DedupArtifactStore()
        for vertex_id, frame in payloads:
            store.put(vertex_id, frame)
        for vertex_id, _ in payloads:
            store.remove(vertex_id)
        assert store.total_bytes == 0
        assert store.vertex_ids == set()


# ----------------------------------------------------------------------
# Planner optimality properties on random DAGs
# ----------------------------------------------------------------------
class _NoOp(DataOperation):
    def __init__(self, index: int):
        super().__init__("noop", params={"i": index})

    def run(self, underlying_data):
        return underlying_data


@st.composite
def planning_instances(draw):
    """Random workload DAG + EG with random costs/material flags."""
    n_nodes = draw(st.integers(min_value=3, max_value=25))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(rng_seed)
    dag = WorkloadDAG()
    ids = [dag.add_source(f"s{rng_seed}")]
    for index in range(n_nodes):
        k = int(rng.integers(1, min(3, len(ids)) + 1))
        parents = list(rng.choice(len(ids), size=k, replace=False))
        out = dag.add_operation([ids[p] for p in sorted(parents)], _NoOp(index))
        ids.append(out)
    for vertex in dag.artifact_vertices():
        if not dag.children(vertex.vertex_id):
            dag.mark_terminal(vertex.vertex_id)
    eg = ExperimentGraph()
    eg.union_workload(dag)
    for record in eg.artifact_vertices():
        if record.is_source:
            continue
        record.compute_time = float(rng.uniform(0.1, 10.0))
        record.size = int(rng.integers(1, 20))
        if rng.random() < 0.5:
            record.materialized = True
    return dag, eg


UNIT_LOAD = LoadCostModel(bandwidth_bytes_per_s=1.0, latency_s=0.0)


@st.composite
def chain_planning_instances(draw):
    """Chain-shaped instances, where the linear algorithm is exactly optimal.

    No vertex is consumed by more than one child, so the forward pass's
    per-parent cost sums cannot double-count a shared ancestor.
    """
    n_nodes = draw(st.integers(min_value=2, max_value=20))
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(rng_seed)
    dag = WorkloadDAG()
    current = dag.add_source(f"chain{rng_seed}")
    for index in range(n_nodes):
        current = dag.add_operation([current], _NoOp(index))
    dag.mark_terminal(current)
    eg = ExperimentGraph()
    eg.union_workload(dag)
    for record in eg.artifact_vertices():
        if record.is_source:
            continue
        record.compute_time = float(rng.uniform(0.1, 10.0))
        record.size = int(rng.integers(1, 20))
        if rng.random() < 0.5:
            record.materialized = True
    return dag, eg


class TestPlannerProperties:
    @SETTINGS
    @given(planning_instances())
    def test_helix_mincut_is_never_worse(self, instance):
        """The min-cut plan is globally optimal; LN is an upper bound.

        The two differ only on diamond instances where a load decision's
        benefit is double-counted by LN's forward pass (see the
        reproduction note in repro/reuse/linear.py).
        """
        dag, eg = instance
        plan_ln = LinearReuse(UNIT_LOAD).plan(dag, eg)
        plan_hl = HelixReuse(UNIT_LOAD).plan(dag, eg)
        assert plan_hl.estimated_cost <= plan_ln.estimated_cost + 1e-9

    @SETTINGS
    @given(chain_planning_instances())
    def test_linear_matches_helix_on_chains(self, instance):
        dag, eg = instance
        plan_ln = LinearReuse(UNIT_LOAD).plan(dag, eg)
        plan_hl = HelixReuse(UNIT_LOAD).plan(dag, eg)
        assert plan_ln.estimated_cost == pytest.approx(plan_hl.estimated_cost)
        assert plan_ln.loads == plan_hl.loads

    @SETTINGS
    @given(planning_instances())
    def test_helix_never_worse_than_baselines(self, instance):
        dag, eg = instance
        optimal = HelixReuse(UNIT_LOAD).plan(dag, eg)
        for baseline in (AllMaterializedReuse(UNIT_LOAD), NoReuse(UNIT_LOAD)):
            plan = baseline.plan(dag, eg)
            cost = plan.plan_cost(dag, eg, UNIT_LOAD)
            assert optimal.estimated_cost <= cost + 1e-9

    @SETTINGS
    @given(chain_planning_instances())
    def test_linear_never_worse_than_baselines_on_chains(self, instance):
        dag, eg = instance
        plan = LinearReuse(UNIT_LOAD).plan(dag, eg)
        for baseline in (AllMaterializedReuse(UNIT_LOAD), NoReuse(UNIT_LOAD)):
            cost = baseline.plan(dag, eg).plan_cost(dag, eg, UNIT_LOAD)
            assert plan.estimated_cost <= cost + 1e-9

    @SETTINGS
    @given(planning_instances())
    def test_loads_are_materialized_vertices(self, instance):
        dag, eg = instance
        plan = LinearReuse(UNIT_LOAD).plan(dag, eg)
        assert all(eg.is_materialized(v) for v in plan.loads)

    @SETTINGS
    @given(planning_instances())
    def test_execution_set_disjoint_from_loads(self, instance):
        dag, eg = instance
        plan = LinearReuse(UNIT_LOAD).plan(dag, eg)
        assert not plan.loads & plan.execution_set(dag)


# ----------------------------------------------------------------------
# Materializer budget invariants
# ----------------------------------------------------------------------
@st.composite
def materialization_instances(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    budget = draw(st.integers(min_value=0, max_value=4000))
    rng = np.random.default_rng(seed)
    dag = WorkloadDAG()
    current = dag.add_source("src", payload=DataFrame({"x": np.zeros(2)}))
    available = {}
    pool = [f"shared{i}" for i in range(5)]
    for index in range(int(rng.integers(2, 8))):
        current = dag.add_operation([current], _NoOp(index))
        ids = list(rng.choice(pool, size=int(rng.integers(1, 4)), replace=False))
        payload = DataFrame([Column(f"c{j}", np.zeros(16), cid) for j, cid in enumerate(ids)])
        dag.vertex(current).record_result(payload, compute_time=float(rng.uniform(1, 5)))
        available[current] = payload
    dag.mark_terminal(current)
    eg = ExperimentGraph()
    eg.union_workload(dag)
    return eg, available, budget


FAST_LOAD = LoadCostModel(bandwidth_bytes_per_s=1e12, latency_s=0.0)


class TestMaterializerProperties:
    @SETTINGS
    @given(materialization_instances())
    def test_hm_logical_budget_respected(self, instance):
        eg, available, budget = instance
        selected = HeuristicMaterializer(budget, load_cost_model=FAST_LOAD).select(
            eg, available
        )
        total = sum(payload_size_bytes(available[v]) for v in selected)
        assert total <= budget

    @SETTINGS
    @given(materialization_instances())
    def test_sa_physical_budget_respected(self, instance):
        eg, available, budget = instance
        selected = StorageAwareMaterializer(budget, load_cost_model=FAST_LOAD).select(
            eg, available
        )
        store = DedupArtifactStore()
        physical = sum(store.put(v, available[v]) for v in selected)
        assert physical <= budget

    @SETTINGS
    @given(materialization_instances())
    def test_sa_selects_superset_of_nothing_with_zero_budget(self, instance):
        eg, available, _budget = instance
        selected = StorageAwareMaterializer(0, load_cost_model=FAST_LOAD).select(
            eg, available
        )
        assert selected == set()

    @SETTINGS
    @given(materialization_instances())
    def test_selection_subset_of_available(self, instance):
        eg, available, budget = instance
        for strategy in (
            HeuristicMaterializer(budget, load_cost_model=FAST_LOAD),
            StorageAwareMaterializer(budget, load_cost_model=FAST_LOAD),
        ):
            assert strategy.select(eg, available) <= set(available)


# ----------------------------------------------------------------------
# Reconciling from recorded footprints decides what reloading decided
# ----------------------------------------------------------------------
class _Summarize(DataOperation):
    def __init__(self, index: int):
        super().__init__("summarize", ArtifactType.AGGREGATE, params={"i": index})

    def run(self, underlying_data):
        return underlying_data


#: lineage id -> values; one id always names the same content, and the
#: three dtypes give three different ``Column.nbytes`` (the object one is
#: the O(rows) case)
_POOL = {
    **{f"f{i}": np.full(12, float(i)) for i in range(4)},
    **{f"i{i}": np.full(12, i, dtype=np.int32) for i in range(2)},
    **{f"o{i}": np.array(["v" * (i + 1)] * 12, dtype=object) for i in range(2)},
}


def _random_payload(rng, lineage: str = ""):
    """A frame over pooled columns; ``lineage`` renames the ids, the way a
    re-run rebuilds equal content under fresh lineage ids."""
    ids = list(rng.choice(sorted(_POOL), size=int(rng.integers(1, 5)), replace=False))
    return DataFrame(
        [Column(f"c{j}", _POOL[cid], cid + lineage) for j, cid in enumerate(ids)]
    )


def _random_workload(
    seed: int, n_steps: int, computed, lineage: str = "", first_op: int = 0
) -> WorkloadDAG:
    """A random tree of ``n_steps`` operations, the same shape, vertex ids
    and payload contents for one ``(seed, first_op)``; ``computed(index)``
    says which steps carry their payload."""
    rng = np.random.default_rng(seed)
    dag = WorkloadDAG()
    vertices = [dag.add_source("src", payload=DataFrame({"x": np.zeros(12)}))]
    for index in range(n_steps):
        parent = vertices[int(rng.integers(0, len(vertices)))]
        aggregate = rng.random() < 0.2
        operation = (_Summarize if aggregate else _NoOp)(first_op + index)
        payload = (
            np.zeros(int(rng.integers(1, 40)))
            if aggregate
            else _random_payload(rng, lineage)
        )
        compute_time = float(rng.uniform(1, 5))
        vertex = dag.add_operation([parent], operation)
        if computed(index):
            dag.vertex(vertex).record_result(payload, compute_time=compute_time)
        if not aggregate:
            vertices.append(vertex)
        dag.mark_terminal(vertex)
    return dag


def _eager_reference(eg: ExperimentGraph, merged) -> dict:
    """What the updater handed materializers before footprints were
    recorded: every stored payload loaded, then the batch's on top."""
    available = {}
    for vertex_id in eg.materialized_ids():
        if not eg.vertex(vertex_id).is_source:
            available[vertex_id] = eg.load(vertex_id)
    for executed in merged:
        for vertex in executed.artifact_vertices():
            if vertex.computed and not vertex.is_source and vertex.data is not None:
                available[vertex.vertex_id] = vertex.data
    return available


def _assert_footprints_match_store(eg: ExperimentGraph) -> None:
    for vertex_id in eg.materialized_ids():
        recorded = eg.vertex(vertex_id).footprint
        assert recorded is not None
        assert recorded == payload_footprint(eg.store.get(vertex_id))


merge_seeds = st.integers(min_value=0, max_value=10_000)


class TestFootprintReconcile:
    @SETTINGS
    @given(
        merge_seeds,
        st.integers(min_value=0, max_value=1200),
        st.sampled_from([SimpleArtifactStore, DedupArtifactStore]),
    )
    def test_same_selection_as_the_eager_reference(self, seed, budget, store_type):
        rng = np.random.default_rng(seed)
        n_steps = int(rng.integers(3, 9))
        eg = ExperimentGraph(store_type())
        warm = StorageAwareMaterializer(
            int(rng.integers(100, 1200)), load_cost_model=FAST_LOAD
        )
        Updater(eg, warm).update(_random_workload(seed, n_steps, lambda i: True))

        # the batch: a modification that recomputes a random part of the
        # warm workload (equal content, fresh lineage ids) and adds to it
        recomputed = set(
            rng.choice(n_steps, size=int(rng.integers(0, n_steps)), replace=False)
        )
        batch = [
            _random_workload(
                seed,
                n_steps + 3,
                lambda i: i in recomputed or i >= n_steps,
                lineage="'",
            )
        ]
        for executed in batch:
            eg.union_workload(executed)
        in_hand = {
            v.vertex_id: v.data
            for executed in batch
            for v in executed.artifact_vertices()
            if v.computed and not v.is_source
        }
        stored = eg.materialized_ids() - eg.source_ids
        reference = _eager_reference(eg, batch)
        view = AvailableContent(eg, in_hand, stored)
        assert set(view) == set(reference) and len(view) == len(reference)
        for strategy in (
            StorageAwareMaterializer(budget, load_cost_model=FAST_LOAD),
            StorageAwareMaterializer(None, load_cost_model=FAST_LOAD),
            HeuristicMaterializer(budget, load_cost_model=FAST_LOAD),
            HelixMaterializer(budget, load_cost_model=FAST_LOAD),
            MaterializeAll(),
        ):
            assert strategy.select(eg, view) == strategy.select(eg, reference)

    @SETTINGS
    @given(merge_seeds, st.integers(min_value=200, max_value=1200))
    def test_recorded_footprint_is_the_stored_contents(self, seed, budget):
        n_steps = 6
        everything = lambda i: True  # noqa: E731
        nothing = lambda i: False  # noqa: E731
        with tempfile.TemporaryDirectory() as scratch:
            store = TieredArtifactStore(
                hot_budget_bytes=300, directory=f"{scratch}/cold"
            )
            eg = ExperimentGraph(store)
            updater = Updater(
                eg, StorageAwareMaterializer(budget, load_cost_model=FAST_LOAD)
            )
            updater.update(_random_workload(seed, n_steps, everything))
            updater.update(
                _random_workload(seed + 1, n_steps, everything, first_op=100)
            )
            # ... with most of it demoted to the cold tier
            _assert_footprints_match_store(eg)

            # kept with the EG across a save / load
            save_eg(eg, f"{scratch}/saved")
            reopened = load_eg(f"{scratch}/saved")
            assert reopened.materialized_ids() == eg.materialized_ids()
            _assert_footprints_match_store(reopened)

            # a store reopened under an EG that never recorded any: derived
            # on first use, one load each, then never again
            bare = TieredArtifactStore.open(f"{scratch}/saved/store")
            gets = []
            load = bare.get
            bare.get = lambda vertex_id: gets.append(vertex_id) or load(vertex_id)
            older = load_eg(f"{scratch}/saved")
            older.store = bare
            for vertex in older.vertices():
                vertex.footprint = None
            unbounded = Updater(
                older, StorageAwareMaterializer(None, load_cost_model=FAST_LOAD)
            )
            unbounded.update(_random_workload(seed, n_steps, nothing))
            stored = older.materialized_ids() - older.source_ids
            assert sorted(gets) == sorted(stored)
            unbounded.update(_random_workload(seed, n_steps, nothing))
            assert sorted(gets) == sorted(stored)
            bare.get = load
            for vertex_id in stored:
                assert older.vertex(vertex_id).footprint == payload_footprint(
                    bare.get(vertex_id)
                )

        # evict, then re-materialize the same ids from a re-run (equal
        # content under fresh lineage ids)
        for evict, refilled in (
            (None, "the re-run's"),
            (lambda vertex_id: 0, "the kept"),
        ):
            eg = ExperimentGraph(DedupArtifactStore())
            Updater(eg, MaterializeAll()).update(
                _random_workload(seed, n_steps, everything)
            )
            first = {v: eg.vertex(v).footprint for v in eg.materialized_ids()}
            Updater(eg, MaterializeNone()).update_batch(
                [_random_workload(seed, n_steps, nothing)], evict=evict
            )
            assert eg.materialized_ids() == eg.source_ids
            Updater(eg, MaterializeAll()).update(
                _random_workload(seed, n_steps, everything, lineage="'")
            )
            assert set(first) == eg.materialized_ids()
            for vertex_id in eg.materialized_ids() - eg.source_ids:
                # a deferred eviction left the first content in the store,
                # and the store keeps what it has on a re-put
                expected = payload_footprint(eg.store.get(vertex_id))
                assert eg.footprint(vertex_id) == expected, refilled
                if evict is not None:
                    assert expected == first[vertex_id]


# ----------------------------------------------------------------------
# Maintained utility facts decide what the greedy loop decides, over sequences
# ----------------------------------------------------------------------
#: hot-tier prices straddle the recreation costs the sequences produce, so
#: re-timed vertices flip ``load_cost < C_r``; the cold prices sit above
#: them, so under the tiered model a demotion flips it too
_NEAR_LOAD = LoadCostModel(bandwidth_bytes_per_s=1e6, latency_s=1e-4)
_NEAR_TIERED = TieredLoadCostModel(
    bandwidth_bytes_per_s=1e6,
    latency_s=1e-4,
    cold=LoadCostModel(bandwidth_bytes_per_s=2e5, latency_s=5e-4),
)
_COMPUTE_TIMES = (1e-5, 1e-4, 3e-4, 1e-3)
_HUGE_BUDGET = 10**9
#: per merge; the small ones bind after the first workload or two
_BUDGETS = {
    "none": [None] * 8,
    "huge": [_HUGE_BUDGET] * 8,
    "binding": [500] * 8,
    "crossing": [_HUGE_BUDGET, _HUGE_BUDGET, 500, 300, _HUGE_BUDGET, None, 400, _HUGE_BUDGET],
}


def _tag_frame(tag: int, extra_column: bool = False) -> DataFrame:
    """One content per tag: a dataset re-arriving under its id must match."""
    ids = [sorted(_POOL)[(tag + k) % len(_POOL)] for k in range(1 + tag % 3)]
    if extra_column:
        ids.append(sorted(_POOL)[(tag + 5) % len(_POOL)])
    return DataFrame([Column(f"c{j}", _POOL[cid], cid) for j, cid in enumerate(ids)])


def _sequence_workload(rng, computed: bool, diverge: bool) -> WorkloadDAG:
    """A random tree over 16 operation tags, so successive workloads hit
    existing vertices: re-timed, re-scored (every fourth tag is a model,
    whose size is refreshed too) or, uncomputed, only counted again.
    ``diverge`` gives one dataset other columns than its tag's."""
    dag = WorkloadDAG()
    frontier = [dag.add_source("src", payload=DataFrame({"x": np.zeros(12)}))]
    spoil = int(rng.integers(0, 3)) if diverge else -1
    for step in range(int(rng.integers(3, 8))):
        tag = int(rng.integers(0, 16))
        parent = frontier[int(rng.integers(0, len(frontier)))]
        vertex = dag.vertex(dag.add_operation([parent], _NoOp(tag)))
        if computed and tag % 4 == 0:
            # a model: often nothing but its size moves, or its score
            vertex.record_result(
                np.zeros(int(rng.integers(1, 40))),
                compute_time=_COMPUTE_TIMES[tag // 4],
            )
            vertex.artifact_type = ArtifactType.MODEL
            vertex.meta = ArtifactMeta(
                artifact_type=ArtifactType.MODEL,
                quality=round(float(rng.random()), 3) if rng.random() < 0.5 else 0.0,
                model_type="Fake",
            )
        elif computed:
            vertex.record_result(
                _tag_frame(tag, extra_column=step == spoil),
                compute_time=float(rng.choice(_COMPUTE_TIMES)),
            )
        frontier.append(vertex.vertex_id)
    dag.mark_terminal(frontier[-1])
    return dag


class _Recorded(Materializer):
    """Keeps what ``inner`` selected; a fresh ``inner`` per merge when given
    a factory, each checked against its own greedy loop."""

    def __init__(self, inner, fresh=None):
        super().__init__(inner.budget_bytes)
        self.inner, self.fresh, self.chosen = inner, fresh, None

    def select(self, eg, available):
        if self.fresh is not None:
            self.inner = self.fresh(self.inner.budget_bytes)
        self.chosen = self.inner.select(eg, available)
        if self.fresh is not None:
            assert self.chosen == self.inner.greedy(eg, available)
        return self.chosen


class TestMaintainedSelection:
    @SETTINGS
    @given(
        merge_seeds,
        st.sampled_from(sorted(_BUDGETS)),
        st.sampled_from(["SA", "HM"]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(["simple", "dedup", "tiered"]),
    )
    def test_long_lived_indexed_equals_fresh_from_scratch(
        self, seed, budgets, strategy, alpha, store_kind
    ):
        load_costs = _NEAR_TIERED if store_kind == "tiered" else _NEAR_LOAD
        strategy_type = {"SA": StorageAwareMaterializer, "HM": HeuristicMaterializer}[
            strategy
        ]

        def make(budget):
            return strategy_type(budget, alpha=alpha, load_cost_model=load_costs)

        with tempfile.TemporaryDirectory() as scratch:

            def store(world):
                if store_kind == "tiered":
                    return TieredArtifactStore(
                        hot_budget_bytes=400, directory=f"{scratch}/{world}"
                    )
                return {"simple": SimpleArtifactStore, "dedup": DedupArtifactStore}[
                    store_kind
                ]()

            maintained = ExperimentGraph(store("maintained"))
            index = UtilityIndex.install(maintained, cross_check=True)
            scratch_eg = ExperimentGraph(store("scratch"))
            long_lived = _Recorded(make(None))
            fresh = _Recorded(make(None), fresh=make)
            worlds = [
                (maintained, Updater(maintained, long_lived), long_lived),
                (scratch_eg, Updater(scratch_eg, fresh), fresh),
            ]
            for merge, budget in enumerate(_BUDGETS[budgets]):
                batch_seed = seed * 100 + merge
                reports = []
                for eg, updater, recorded in worlds:
                    rng = np.random.default_rng(batch_seed)
                    recorded.inner.budget_bytes = budget
                    # tenants' loads promote, the hot budget demotes:
                    # tiers move between merges without telling anyone
                    if store_kind == "tiered":
                        for vertex_id in sorted(eg.stored_ids()):
                            move = rng.random()
                            if move < 0.3:
                                if eg.store.tier_of(vertex_id) is StorageTier.HOT:
                                    eg.store.demote(vertex_id)
                            elif move < 0.6:
                                eg.store.get(vertex_id)
                    batch = [
                        _sequence_workload(
                            rng, computed=rng.random() < 0.7, diverge=rng.random() < 0.2
                        )
                        for _ in range(int(rng.integers(1, 3)))
                    ]
                    reports.append(updater.update_batch(batch))
                assert long_lived.chosen == fresh.chosen
                assert reports[0].evicted == reports[1].evicted
                assert reports[0].newly_materialized == reports[1].newly_materialized
                assert [type(o) for o in reports[0].outcomes] == [
                    type(o) for o in reports[1].outcomes
                ]
                assert eg_fingerprint(maintained) == eg_fingerprint(scratch_eg)
                index.verify()
            routes = long_lived.inner.routes
            assert routes["inexact"] == 0
            if budgets in ("none", "huge"):
                assert routes["budget"] == 0


# ----------------------------------------------------------------------
# Max-flow against networkx
# ----------------------------------------------------------------------
@st.composite
def flow_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=16,
        )
    )
    return n, [(u, v, c) for u, v, c in edges if u != v]


class TestMaxFlowProperties:
    @SETTINGS
    @given(flow_graphs())
    def test_matches_networkx(self, graph):
        import networkx as nx

        n, edges = graph
        ours = FlowNetwork()
        reference = nx.DiGraph()
        for u, v, c in edges:
            ours.add_edge(u, v, float(c))
        for u, v, c in edges:
            if reference.has_edge(u, v):
                reference[u][v]["capacity"] += c
            else:
                reference.add_edge(u, v, capacity=c)
        reference.add_node(0)
        reference.add_node(n - 1)
        expected = (
            nx.maximum_flow_value(reference, 0, n - 1)
            if reference.has_node(0) and reference.has_node(n - 1)
            else 0.0
        )
        assert ours.max_flow(0, n - 1) == pytest.approx(float(expected))


# ----------------------------------------------------------------------
# Metric and scaler properties
# ----------------------------------------------------------------------
class TestExtendedFrameProperties:
    @SETTINGS
    @given(frames(), st.floats(min_value=-100, max_value=100))
    def test_clip_bounds_respected(self, frame, bound):
        name = frame.columns[0]
        clipped = frame.clip_column(name, upper=bound)
        assert clipped.values(name).max() <= max(bound, frame.values(name).min())

    @SETTINGS
    @given(column_values)
    def test_multikey_groupby_preserves_sum(self, values):
        n = len(values)
        frame = DataFrame(
            {
                "k1": np.arange(n) % 2,
                "k2": np.arange(n) % 3,
                "v": np.asarray(values),
            }
        )
        grouped = frame.groupby_agg(["k1", "k2"], {"v": "sum"})
        assert grouped.values("v_sum").sum() == pytest.approx(np.sum(values), rel=1e-9)


class TestMetricProperties:
    @SETTINGS
    @given(
        st.lists(st.booleans(), min_size=4, max_size=50).filter(
            lambda labels: 0 < sum(labels) < len(labels)
        ),
        st.integers(min_value=0, max_value=1000),
    )
    def test_auc_label_flip_antisymmetry(self, labels, seed):
        y = np.asarray(labels, dtype=int)
        scores = np.random.default_rng(seed).random(len(y))
        auc = roc_auc_score(y, scores)
        flipped = roc_auc_score(1 - y, scores)
        assert auc + flipped == pytest.approx(1.0)

    @SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=50))
    def test_accuracy_of_self_is_one(self, labels):
        y = np.asarray(labels)
        assert accuracy_score(y, y) == 1.0

    @SETTINGS
    @given(frames())
    def test_standard_scaler_inverse_roundtrip(self, frame):
        X = frame.to_numpy()
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6)
