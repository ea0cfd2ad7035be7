"""Precision-recall evaluation and benchmark-table aggregation.

Scores are turned into a family of threshold classifiers, one per distinct
score value: a point is flagged when its score is at or above the
threshold. Precision and recall of each classifier trace the PR curve and
the area under it (a right Riemann sum over recall) summarizes detector
quality in [0, 1].

``summarize`` aggregates per-(dataset, method) AUPRC values into the usual
comparison table: mean and standard deviation over trials, per-method
average, average rank (1 is best, ties share the mean of the occupied
ranks) and the root mean squared deviation from the per-dataset best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class PRCurve:
    """PR points in descending-threshold order plus the area under them.

    ``recalls`` is nondecreasing and ends at 1.
    """

    recalls: np.ndarray
    precisions: np.ndarray
    auprc: float


@dataclass(frozen=True)
class CellStats:
    """Mean and standard deviation of AUPRC over the trials of one cell."""

    mean: float
    std: float
    trials: int


@dataclass(frozen=True)
class BenchmarkTable:
    """Per-cell statistics plus per-method aggregate rows.

    ``cells`` maps (dataset, method) to CellStats, or None where the method
    was unavailable on that dataset; unavailable cells are excluded from
    that method's aggregates and from the dataset's ranking.
    """

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[str, str], CellStats | None]
    average: dict[str, float]
    avg_rank: dict[str, float]
    rmsd: dict[str, float]


def _validate_labeled(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be vectors of equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores contain non-finite values")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary (0 = inlier, 1 = outlier)")
    labels = labels.astype(int)
    positives = int(labels.sum())
    if positives == 0 or positives == labels.shape[0]:
        raise ValueError("degenerate labels: need at least one outlier and one inlier")
    return scores, labels


def pr_curve(scores, labels) -> PRCurve:
    """Precision-recall curve of the classifiers 1{score >= threshold}.

    Thresholds are the distinct score values in descending order, so tied
    scores cross the threshold together. Points come out in ascending
    recall order and the final recall is always 1.
    """
    scores, labels = _validate_labeled(scores, labels)
    n = scores.shape[0]
    positives = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Last position of each block of tied scores.
    block_ends = np.append(np.nonzero(np.diff(sorted_scores))[0], n - 1)
    tp = np.cumsum(sorted_labels)[block_ends].astype(float)
    predicted = (block_ends + 1).astype(float)
    precisions = tp / predicted
    recalls = tp / positives
    # Right Riemann sum over recall, anchored at recall 0 with no synthetic
    # precision-1 point.
    area = float(np.sum(np.diff(recalls, prepend=0.0) * precisions))
    return PRCurve(recalls=recalls, precisions=precisions, auprc=area)


def summarize(
    cells: Mapping[tuple[str, str], Sequence[float] | None],
    datasets: Sequence[str],
    methods: Sequence[str],
) -> BenchmarkTable:
    """Aggregate per-(dataset, method) trial AUPRCs into a benchmark table.

    Rows and columns come in the order of ``datasets`` and ``methods``, with
    no name repeated. Every (dataset, method) pair must be present; pass None
    to mark a cell unavailable. Statistics use the population standard
    deviation, so a single-trial (deterministic) cell reports std 0.
    """
    if not cells:
        raise ValueError("empty benchmark input")
    datasets = tuple(datasets)
    methods = tuple(methods)
    for kind, names in (("dataset", datasets), ("method", methods)):
        if len(set(names)) < len(names):
            raise ValueError(f"repeated {kind} name in {names!r}")

    stats: dict[tuple[str, str], CellStats | None] = {}
    for d in datasets:
        for m in methods:
            if (d, m) not in cells:
                raise ValueError(
                    f"missing cell ({d!r}, {m!r}); mark unavailable cells with None"
                )
            values = cells[(d, m)]
            if values is None:
                stats[(d, m)] = None
                continue
            values = np.asarray(list(values), dtype=float)
            if values.size == 0:
                raise ValueError(f"cell ({d!r}, {m!r}) has no trial values")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"cell ({d!r}, {m!r}) has non-finite trial values")
            stats[(d, m)] = CellStats(
                mean=float(values.mean()), std=float(values.std()), trials=int(values.size)
            )

    # Cell means, datasets x methods, with NaN for an unavailable (None) cell.
    # NaN compares false, so such a cell neither ranks nor is ranked.
    M = np.array([[getattr(stats[(d, m)], "mean", np.nan) for m in methods] for d in datasets])
    M = M.reshape(len(datasets), len(methods))
    # Average rank, 1 for the largest mean: the means above, plus the middle
    # of the positions the tied means share.
    above = (M[:, None, :] > M[:, :, None]).sum(axis=2)
    ranks = above + ((M[:, None, :] == M[:, :, None]).sum(axis=2) + 1) / 2
    # Gap to each dataset's best mean. fmax skips NaN, and the -inf start
    # lets it reduce an empty row; an all-NaN row keeps -inf, so NaN gaps.
    gaps = np.fmax.reduce(M, axis=1, keepdims=True, initial=-np.inf) - M

    def column_mean(A: np.ndarray, j: int) -> float:
        """Mean of column j of A over the datasets where method j is available."""
        available = A[~np.isnan(M[:, j]), j]
        return float(np.mean(available)) if available.size else float("nan")

    columns = list(enumerate(methods))
    return BenchmarkTable(
        datasets=datasets,
        methods=methods,
        cells=stats,
        average={m: column_mean(M, j) for j, m in columns},
        avg_rank={m: column_mean(ranks, j) for j, m in columns},
        rmsd={m: float(np.sqrt(column_mean(np.square(gaps), j))) for j, m in columns},
    )
