"""Tier vocabulary and instrumentation counters for the tiered store.

:class:`~repro.eg.storage.StorageTier` itself is defined next to the
``ArtifactStore`` interface (every store reports a tier); this module adds
the per-tier counters the tiered store maintains and the experiment runner
surfaces in its per-workload statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eg.storage import StorageTier

__all__ = ["StorageTier", "TierStats"]


@dataclass
class TierStats:
    """Cumulative tier activity of one :class:`TieredArtifactStore`.

    ``hot_hits``/``cold_hits`` count ``get`` calls served from RAM vs disk
    (a cold hit is a hot-tier *miss*); ``promotions``/``demotions`` count
    vertex moves between tiers, and ``rewarms`` the promotions a re-put
    made from the payload in hand, without a disk read; ``load_seconds`` accumulates the measured
    wall time of cold-tier reads (the *modeled* load cost lives in the
    executor's report, priced through the load-cost model).
    """

    hot_hits: int = 0
    cold_hits: int = 0
    promotions: int = 0
    #: promotions of a cold vertex by a ``put`` of its content (no disk read)
    rewarms: int = 0
    demotions: int = 0
    #: wall seconds spent reading payloads back from the cold tier
    load_seconds: float = 0.0
    #: bytes written to the cold tier over the store's lifetime
    bytes_demoted: int = 0

    @property
    def accesses(self) -> int:
        return self.hot_hits + self.cold_hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of ``get`` calls served from the hot tier (1.0 if idle)."""
        accesses = self.accesses
        return self.hot_hits / accesses if accesses else 1.0
