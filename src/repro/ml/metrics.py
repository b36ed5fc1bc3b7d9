"""Evaluation metrics.

The optimizer scores every model artifact with a quality ``q`` in [0, 1]
(paper Section 5); the Kaggle use case uses area under the ROC curve, so
:func:`roc_auc_score` is the headline metric here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy_score", "roc_auc_score"]


def _check_same_length(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} vs {len(y_pred)}")
    if len(y_true) == 0:
        raise ValueError("empty input")
    return y_true, y_pred


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly correct predictions."""
    y_true, y_pred = _check_same_length(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve for binary labels.

    Computed via the rank statistic (Mann-Whitney U), which handles tied
    scores by midranks.
    """
    y_true, y_score = _check_same_length(y_true, y_score)
    y_true = y_true.astype(float)
    positives = y_true == 1
    n_pos = int(positives.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc_score requires both classes present")
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(len(y_score), dtype=float)
    sorted_scores = y_score[order]
    # midranks for ties
    i = 0
    position = 1.0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        midrank = (position + position + (j - i)) / 2.0
        ranks[order[i : j + 1]] = midrank
        position += j - i + 1
        i = j + 1
    rank_sum = ranks[positives].sum()
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc)
