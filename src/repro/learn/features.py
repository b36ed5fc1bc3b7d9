"""Hand-built feature vectors for the learned cost models.

One deliberately small, fixed schema per model (documented in
docs/ADAPTIVE.md): linear models over a handful of physically meaningful
features out-predict static two-parameter cost curves exactly because
the features carry the context the static model ignores — how many
column files a load touches, how contended the hot tier has recently
been, how deep the merge queue is right now.  Keeping the schema fixed
(and versioned by position) means a predictor's weights are directly
interpretable: ``weights[SIZE]`` *is* the learned inverse bandwidth in
seconds per MiB.

All builders return plain ``list[float]`` with the bias term first, so
``weights[BIAS]`` is the learned fixed latency.
"""

from __future__ import annotations

__all__ = [
    "LOAD_FEATURE_NAMES",
    "BATCH_FEATURE_NAMES",
    "load_features",
    "batch_features",
]

#: feature order of the per-tier load-latency models
LOAD_FEATURE_NAMES = (
    "bias",  # fixed per-retrieval latency (seek, syscall, lock handoff)
    "size_mib",  # payload bytes / 2^20 — the bandwidth term
    "n_columns",  # files touched by a cold frame read (per-file overhead)
    "cold_hit_rate",  # recent cold-hit share: a contended, thrashing hot tier
    "queue_depth",  # merge-queue depth when the load was issued
    "object_fraction",  # dtype mix: share of object-dtype (pickled) columns
)

#: feature order of the merge-publish cost model (per merge batch)
BATCH_FEATURE_NAMES = (
    "bias",  # fixed per-batch overhead: snapshot publish, cache flush
    "batch_size",  # workloads merged in the batch — the marginal term
)

_MIB = float(1 << 20)


def load_features(
    size_bytes: int,
    n_columns: float,
    cold_hit_rate: float,
    queue_depth: float,
    object_fraction: float = 0.0,
) -> list[float]:
    """Feature vector for one artifact retrieval (either tier's model)."""
    return [
        1.0,
        size_bytes / _MIB,
        float(n_columns),
        float(cold_hit_rate),
        float(queue_depth),
        float(object_fraction),
    ]


def batch_features(batch_size: int) -> list[float]:
    """Feature vector for one merge-batch publish."""
    return [1.0, float(batch_size)]
