"""Incrementally maintained utility state for the Experiment Graph.

The materializer needs two graph-wide quantities per pass: recreation
costs ``C_r(v)`` and potentials ``p(v)`` (paper Section 5).  Recomputing
both from scratch is O(graph) — ~0.5 s at 12k vertices — even though a
merge batch only touches a small dirty subgraph.  :class:`UtilityIndex`
keeps ancestor sets, recreation costs and potentials maintained across
:meth:`ExperimentGraph.union_workload` calls, so each batch pays only for
the dirty forward cone (ancestor sets + costs) and the dirty backward cone
(potentials).

Beside them it keeps what a merge would otherwise scan the EG for: the
stored non-source vertices (:attr:`UtilityIndex.stored`, updated by
:meth:`ExperimentGraph.materialize` / ``deselect``) and the ids whose
frequency, size, ``C_r``, ``p`` or stored flag changed since the last
:meth:`UtilityIndex.drain_changed` — all the utility materializers re-score.

Exactness contract: the maintained values are **bit-identical** to a full
:meth:`ExperimentGraph.recreation_costs` / :meth:`potentials` recompute.
Costs use :func:`math.fsum`, which is exactly rounded and therefore
independent of summation order; potentials are ``max`` chains, which are
order-independent by construction.  :meth:`verify` asserts the contract
at runtime (the service exposes it as a debug flag).

The index relies on two EG invariants: vertices and edges are only ever
*added* (eviction flips ``materialized`` flags without deleting
vertices), and every structural mutation flows through
``union_workload``, which reports a :class:`~repro.eg.graph.GraphDelta`
to the installed index.  Mutating an indexed EG behind the index's back
(tests do this to hand-build graphs) is unsupported — install the index
after hand-construction instead.
"""

from __future__ import annotations

import math
from typing import Iterable

import networkx as nx

from .graph import ExperimentGraph, GraphDelta

__all__ = ["UtilityIndex", "UtilityIndexDivergence"]


class UtilityIndexDivergence(AssertionError):
    """The incremental index disagreed with a full recompute.

    Raised by :meth:`UtilityIndex.verify`; indicates a maintenance bug
    (or an EG mutated behind the index's back), never a float-rounding
    artifact — the contract is exact equality.
    """


class UtilityIndex:
    """Maintains recreation costs and potentials under unions.

    Install on an EG with :meth:`install`; afterwards every
    ``union_workload`` notifies the index through :meth:`apply` with the
    delta it produced.  :meth:`recreation_costs` / :meth:`potentials`
    then answer in O(1) (returning maintained dicts) instead of O(graph).
    """

    def __init__(self, eg: ExperimentGraph, cross_check: bool = False):
        self._eg = eg
        #: vertex id -> frozen/maintained set of all ancestor ids
        self._anc: dict[str, set[str]] = {}
        self._cost: dict[str, float] = {}
        self._pot: dict[str, float] = {}
        #: non-source vertex ids whose content is stored — live; do not mutate
        self.stored: set[str] = set()
        self._changed: set[str] = set()
        #: :meth:`drain_changed` calls so far — a consumer's cursor
        self.drains = 0
        #: when True, every materialization pass cross-checks against a
        #: full recompute (debug aid; O(graph) again, obviously)
        self.cross_check = cross_check
        # instrumentation for the service metrics / swarm output
        self.deltas_applied = 0
        self.last_cost_dirty = 0
        self.last_potential_dirty = 0
        #: size of ``new ∪ touched ∪ cost_dirty ∪ pot_region`` of the last delta
        self.last_changed = 0
        self.total_cost_dirty = 0
        self.total_potential_dirty = 0
        self.cross_checks_passed = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def install(cls, eg: ExperimentGraph, cross_check: bool = False) -> "UtilityIndex":
        """Build the index from the EG's current state and attach it."""
        index = cls(eg, cross_check=cross_check)
        eg.utility_index = index
        return index

    def uninstall(self) -> None:
        if self._eg.utility_index is self:
            self._eg.utility_index = None

    def _rebuild(self) -> None:
        """Full recompute of every maintained quantity (install / reset)."""
        graph = self._eg.graph
        self._anc = {}
        self._cost = {}
        self._pot = {}
        order = list(nx.topological_sort(graph))
        for vertex_id in order:
            merged: set[str] = set()
            for parent in graph.predecessors(vertex_id):
                merged |= self._anc[parent]
                merged.add(parent)
            self._anc[vertex_id] = merged
            self._cost[vertex_id] = self._cost_of(vertex_id)
        for vertex_id in reversed(order):
            self._pot[vertex_id] = self._local_potential(vertex_id)
        self.stored = self._eg.materialized_ids() - self._eg.source_ids

    # ------------------------------------------------------------------
    # Query API (mirrors ExperimentGraph.recreation_costs / potentials)
    # ------------------------------------------------------------------
    def recreation_costs(self) -> dict[str, float]:
        """Maintained C_r(v) for every vertex — do not mutate."""
        return self._cost

    def potentials(self) -> dict[str, float]:
        """Maintained p(v) for every vertex — do not mutate."""
        return self._pot

    def drain_changed(self) -> set[str]:
        """Ids whose utility inputs changed since the last drain (caller's set)."""
        changed, self._changed = self._changed, set()
        self.drains += 1
        return changed

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def note_stored(self, vertex_id: str, stored: bool) -> None:
        """``ExperimentGraph.materialize`` / ``deselect`` flipped a flag."""
        if not self._eg.vertex(vertex_id).is_source:
            (self.stored.add if stored else self.stored.discard)(vertex_id)
            self._changed.add(vertex_id)

    def apply(self, delta: GraphDelta) -> None:
        """Fold one union's delta into the maintained state.

        Cost of a delta: O(forward cone of the new/retimed vertices) for
        ancestor sets and recreation costs plus O(backward cone of the
        changed potentials) — both proportional to the dirty subgraph,
        not the EG.
        """
        graph = self._eg.graph

        # --- forward pass: ancestor sets for the structural closure ----
        seeds = set(delta.new_vertices)
        seeds.update(dst for _src, dst in delta.new_edges)
        closure = self._forward_closure(seeds)
        for vid in self._topo_order(closure):
            merged: set[str] = set()
            for parent in graph.predecessors(vid):
                merged |= self._anc[parent]
                merged.add(parent)
            self._anc[vid] = merged

        # --- recreation costs: closure plus retimed forward cones ------
        cost_dirty = set(closure)
        retimed = {
            vid
            for vid, old in delta.compute_time_changes.items()
            if self._eg.vertex(vid).compute_time != old
        }
        if retimed:
            cost_dirty |= self._forward_closure(retimed)
        for vid in cost_dirty:
            self._cost[vid] = self._cost_of(vid)

        # --- potentials: dirty region plus all its ancestors -----------
        requalified = {
            vid
            for vid, old in delta.quality_changes.items()
            if self._eg.vertex(vid).quality != old
        }
        pot_sources = closure | requalified
        pot_region = set(pot_sources)
        for vid in pot_sources:
            pot_region |= self._anc[vid]
        for vid in self._reverse_topo_order(pot_region):
            self._pot[vid] = self._local_potential(vid)

        changed = cost_dirty | pot_region
        changed.update(delta.new_vertices, delta.touched)
        self._changed |= changed
        self.deltas_applied += 1
        self.last_changed = len(changed)
        self.last_cost_dirty = len(cost_dirty)
        self.last_potential_dirty = len(pot_region)
        self.total_cost_dirty += len(cost_dirty)
        self.total_potential_dirty += len(pot_region)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Assert exact equality with a full recompute; raise on divergence."""
        full_costs = self._eg.recreation_costs()
        full_pots = self._eg.potentials()
        if self._cost != full_costs:
            diff = _first_mismatch(self._cost, full_costs)
            raise UtilityIndexDivergence(f"recreation costs diverged: {diff}")
        if self._pot != full_pots:
            diff = _first_mismatch(self._pot, full_pots)
            raise UtilityIndexDivergence(f"potentials diverged: {diff}")
        if self.stored != self._eg.materialized_ids() - self._eg.source_ids:
            raise UtilityIndexDivergence("stored set diverged from the flags")
        self.cross_checks_passed += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cost_of(self, vertex_id: str) -> float:
        vertex = self._eg.vertex
        return math.fsum(
            [vertex(vertex_id).compute_time]
            + [vertex(ancestor).compute_time for ancestor in self._anc[vertex_id]]
        )

    def _local_potential(self, vertex_id: str) -> float:
        vertex = self._eg.vertex(vertex_id)
        best = vertex.quality if vertex.is_model else 0.0
        for child in self._eg.graph.successors(vertex_id):
            best = max(best, self._pot[child])
        return best

    def _forward_closure(self, seeds: Iterable[str]) -> set[str]:
        """Seeds plus everything reachable from them (descendant closure)."""
        closure = set(seeds)
        stack = list(closure)
        successors = self._eg.graph.successors
        while stack:
            current = stack.pop()
            for child in successors(current):
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        return closure

    def _topo_order(self, region: set[str]) -> list[str]:
        """Topological order of ``region`` (Kahn restricted to the region)."""
        graph = self._eg.graph
        indegree = {
            vid: sum(1 for p in graph.predecessors(vid) if p in region)
            for vid in region
        }
        ready = [vid for vid, degree in indegree.items() if degree == 0]
        order: list[str] = []
        while ready:
            vid = ready.pop()
            order.append(vid)
            for child in graph.successors(vid):
                if child in region:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
        return order

    def _reverse_topo_order(self, region: set[str]) -> list[str]:
        """Reverse-topological order of ``region`` (children before parents)."""
        graph = self._eg.graph
        outdegree = {
            vid: sum(1 for c in graph.successors(vid) if c in region)
            for vid in region
        }
        ready = [vid for vid, degree in outdegree.items() if degree == 0]
        order: list[str] = []
        while ready:
            vid = ready.pop()
            order.append(vid)
            for parent in graph.predecessors(vid):
                if parent in region:
                    outdegree[parent] -= 1
                    if outdegree[parent] == 0:
                        ready.append(parent)
        return order


def _first_mismatch(ours: dict, theirs: dict) -> str:
    missing = set(theirs) - set(ours)
    extra = set(ours) - set(theirs)
    if missing or extra:
        return f"key sets differ (missing={len(missing)}, extra={len(extra)})"
    for key, value in ours.items():
        if theirs[key] != value:
            return f"vertex {key[:12]}: index={value!r} full={theirs[key]!r}"
    return "unknown"
