"""Updater — server component that maintains the Experiment Graph.

After the client executes a workload, the updater (paper Section 3.2):

1. stores every *source* artifact (meta-data and content) unconditionally,
   so the EG always contains the raw datasets;
2. unions the executed DAG into the EG, bumping frequencies and refreshing
   measured compute times and sizes; and
3. invokes the configured materialization algorithm and reconciles the
   artifact store against its output — storing newly selected contents that
   are at hand and evicting deselected ones.  This step reads no artifact
   content: the algorithm is handed the batch's payloads plus the *ids* of
   what is already stored (an
   :class:`~repro.materialization.base.AvailableContent`), and whatever it
   needs to know about stored content is meta-data on the EG — sizes,
   tiers, and the column footprint :meth:`ExperimentGraph.materialize`
   recorded when the content went in.  Tier placement follows use: a
   tenant's load promotes what it reads, and a stored artifact the batch
   *recomputed* because its copy was cold has been used too — when a hot
   copy would be planned as a load (its hot load cost, under the
   planner's load-cost model, is below its recorded compute time), the
   reconcile step re-puts the payload in hand, which re-warms the copy
   without a disk read.  The check visits only the batch's in-hand
   payloads, never the stored set.

The multi-tenant EG service batches step 3: :meth:`Updater.update_batch`
unions several executed workloads in commit order and runs the
materialization algorithm *once* for the whole batch, with every payload
computed anywhere in the batch available for storing.  ``update`` is the
historical single-workload entry point and is exactly a batch of one.

Merging is guarded by an explicit conflict check: a workload vertex whose
id already exists in the EG but whose dataset payload carries a divergent
column schema (or a divergent deterministic frame size) indicates broken
lineage hashing upstream — under batched merges this would silently
overwrite another tenant's measurements, so the updater raises
:class:`~repro.eg.storage.ArtifactDivergenceError` instead.  Model and
aggregate vertices are exempt: warmstarted training legitimately produces
a different-sized model at the same vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..graph.artifacts import ArtifactType
from ..graph.dag import WorkloadDAG
from ..materialization.base import AvailableContent, Materializer
from .graph import ExperimentGraph
from .storage import ArtifactDivergenceError, LoadCostModel, StorageTier

__all__ = ["Updater", "UpdateReport", "BatchUpdateReport"]


@dataclass
class UpdateReport:
    """What one updater invocation changed."""

    new_sources: int = 0
    newly_materialized: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    store_bytes_after: int = 0


@dataclass
class BatchUpdateReport:
    """What one batched updater invocation changed.

    ``outcomes`` holds, per submitted workload in batch order, either the
    workload's new-source count (merged) or the
    :class:`~repro.eg.storage.ArtifactDivergenceError` that rejected it —
    a rejected workload contributes nothing to the EG while the rest of
    the batch still merges.
    """

    merged_workloads: int = 0
    rejected_workloads: int = 0
    new_sources: int = 0
    newly_materialized: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    store_bytes_after: int = 0
    outcomes: list[int | ArtifactDivergenceError] = field(default_factory=list)


class Updater:
    """Applies executed workloads to the EG and runs the materializer."""

    def __init__(
        self,
        eg: ExperimentGraph,
        materializer: Materializer,
        load_cost_model: LoadCostModel | None = None,
    ):
        self.eg = eg
        self.materializer = materializer
        #: the planner's pricing of a load, for the re-warm rule (the
        #: planner's own default when none is given)
        self.load_cost_model = (
            load_cost_model if load_cost_model is not None else LoadCostModel.in_memory()
        )
        #: vertex ids whose EG record changed since the dirty set was last
        #: cleared — accumulated across batches (a failed publish must not
        #: lose dirt) and consumed by the service's copy-on-write publish
        self._dirty: set[str] = set()

    @property
    def pending_dirty(self) -> set[str]:
        """Vertices dirtied since :meth:`clear_dirty` (live set; do not keep)."""
        return self._dirty

    def clear_dirty(self) -> None:
        """Reset the dirty set — call only after a successful publish."""
        self._dirty = set()

    # ------------------------------------------------------------------
    def update(self, executed: WorkloadDAG) -> UpdateReport:
        """Union an executed workload into the EG and rematerialize."""
        batch = self.update_batch([executed])
        outcome = batch.outcomes[0]
        if isinstance(outcome, ArtifactDivergenceError):
            raise outcome
        return UpdateReport(
            new_sources=batch.new_sources,
            newly_materialized=batch.newly_materialized,
            evicted=batch.evicted,
            store_bytes_after=batch.store_bytes_after,
        )

    def update_batch(
        self,
        batch: Sequence[WorkloadDAG],
        evict: Callable[[str], int] | None = None,
    ) -> BatchUpdateReport:
        """Union a batch of executed workloads, then rematerialize once.

        Workloads are merged in the given order (the service's commit
        order); each is conflict-checked against the EG state left by its
        predecessors, so an intra-batch divergence is caught exactly as a
        cross-batch one would be.  ``evict`` overrides how deselected
        artifacts leave the store — the versioned EG service passes a
        deferred eviction so readers holding older snapshots can still
        load them.
        """
        report = BatchUpdateReport()
        merged: list[WorkloadDAG] = []
        for executed in batch:
            try:
                self.check_conflicts(executed)
            except ArtifactDivergenceError as error:
                report.outcomes.append(error)
                report.rejected_workloads += 1
                continue

            # Task 2: union first so materialization sees the new vertices.
            delta = self.eg.union_workload(executed)
            self._dirty |= delta.dirty_vertices()

            # Task 1: sources are always stored, outside the budget.
            new_sources = 0
            for vertex in executed.vertices():
                if vertex.is_source and vertex.computed:
                    if not self.eg.is_materialized(vertex.vertex_id):
                        self.eg.materialize(vertex.vertex_id, vertex.data)
                        self._dirty.add(vertex.vertex_id)
                        new_sources += 1
            report.outcomes.append(new_sources)
            report.new_sources += new_sources
            report.merged_workloads += 1
            merged.append(executed)

        # Task 3: one materialization pass for the whole batch.
        if merged:
            self._reconcile(merged, report, evict)
        report.store_bytes_after = self.eg.store.total_bytes
        return report

    # ------------------------------------------------------------------
    def check_conflicts(self, executed: WorkloadDAG) -> None:
        """Raise on a workload vertex that diverges from its EG record.

        Vertex ids are content addresses, so a dataset arriving under an
        existing id must match the recorded column schema and size;
        anything else means two different artifacts share one id and a
        merge would silently overwrite one of them.
        """
        for vertex in executed.artifact_vertices():
            if not vertex.computed or vertex.vertex_id not in self.eg:
                continue
            record = self.eg.vertex(vertex.vertex_id)
            if (
                record.meta is None
                or vertex.meta is None
                or record.meta.artifact_type is not ArtifactType.DATASET
                or vertex.meta.artifact_type is not ArtifactType.DATASET
            ):
                continue
            recorded_columns = set(record.meta.schema)
            arriving_columns = set(vertex.meta.schema)
            if recorded_columns != arriving_columns:
                raise ArtifactDivergenceError(
                    f"vertex {vertex.vertex_id[:12]} arrived with columns "
                    f"{sorted(arriving_columns)} but the EG records "
                    f"{sorted(recorded_columns)}"
                )
            if record.size > 0 and vertex.size > 0 and record.size != vertex.size:
                raise ArtifactDivergenceError(
                    f"vertex {vertex.vertex_id[:12]} arrived with "
                    f"{vertex.size} bytes but the EG records {record.size}"
                )

    # ------------------------------------------------------------------
    def _reconcile(
        self,
        merged: Sequence[WorkloadDAG],
        report: BatchUpdateReport,
        evict: Callable[[str], int] | None,
    ) -> None:
        """Run the materialization algorithm and apply its selection.

        The materializer is shown what is obtainable — the batch's payloads,
        which are in hand, and the ids of the non-source vertices already
        stored — and the store is then told only what changed: nothing here
        reads an artifact back, and an indexed EG is not scanned either.
        A kept artifact whose stored copy is cold and whose payload the
        batch holds is re-put when a hot copy would be loaded rather than
        recomputed (see the module doc); stores without tiers ignore it.
        """
        evict = evict if evict is not None else self.eg.unmaterialize
        current = self.eg.stored_ids()
        in_hand = {
            vertex.vertex_id: vertex.data
            for executed in merged
            for vertex in executed.artifact_vertices()
            if vertex.computed and not vertex.is_source and vertex.data is not None
        }
        target = self.materializer.select(
            self.eg, AvailableContent(self.eg, in_hand, current)
        )

        # both differences first: applying them mutates the live ``current``
        evicted, admitted = sorted(current - target), sorted(target - current)
        kept_in_hand = [
            vertex_id
            for vertex_id in in_hand
            if vertex_id in target and vertex_id in current
        ]
        for vertex_id in evicted:
            self.eg.deselect(vertex_id)
            evict(vertex_id)
            self._dirty.add(vertex_id)
            report.evicted.append(vertex_id)
        for vertex_id in admitted:
            payload = in_hand.get(vertex_id)
            if payload is None:
                continue  # content not obtainable right now; keep meta only
            self.eg.materialize(vertex_id, payload)
            self._dirty.add(vertex_id)
            report.newly_materialized.append(vertex_id)
        load_cost = self.load_cost_model.cost_for_tier
        for vertex_id in kept_in_hand:
            if self.eg.tier_of(vertex_id) is not StorageTier.COLD:
                continue
            record = self.eg.vertex(vertex_id)
            if load_cost(record.size, StorageTier.HOT) < record.compute_time:
                try:
                    self.eg.store.put(vertex_id, in_hand[vertex_id])
                except ArtifactDivergenceError:
                    pass  # a model retrained to another size: not the stored copy
