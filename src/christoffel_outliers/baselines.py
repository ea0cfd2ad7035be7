"""Distance-based reference detectors.

KNN scores a point by its distance to the k-th nearest other point. KSP
scores by the distance to the nearest member of a small subsample drawn
with replacement; KSP2 adds a filtering pass that re-samples from the
lowest-scoring fraction of the data.

All randomness goes through numpy's PCG64 generator seeded explicitly, so
fixed seed plus fixed inputs gives bit-identical scores. Each detector
raises ``DistanceOverflowError`` when a score overflows double precision.
"""

from __future__ import annotations

import math

import numpy as np

from ._validate import as_matrix


class DistanceOverflowError(ValueError):
    """A pairwise distance overflows double precision."""


def _finite(scores: np.ndarray) -> np.ndarray:
    """``scores``, or DistanceOverflowError when one is not finite.

    The check is exact: a distance that overflows is larger than every finite
    one, so finite scores are those of exact arithmetic.
    """
    if not np.isfinite(scores).all():
        raise DistanceOverflowError("distances overflow double precision; use normalized data")
    return scores


def lowest_score_indices(scores, alpha: float) -> np.ndarray:
    """Indices of the ceil(alpha * n) lowest scores, ascending.

    Ties are broken by original position, which keeps the two-stage
    filtered detectors deterministic.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    keep = math.ceil(alpha * scores.shape[0])
    order = np.argsort(scores, kind="stable")
    return np.sort(order[:keep])


def knn_scores(X, k: int = 5) -> np.ndarray:
    """Distance to the k-th nearest other row, per row.

    Self-distances are excluded, so k must be at most n - 1.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n - 1, got k={k} with n={n}")
    # Imported here: scipy.spatial takes a fifth of a second to load, and
    # only the distance baselines use it.
    from scipy.spatial.distance import cdist

    dist = cdist(X, X)
    np.fill_diagonal(dist, np.inf)
    return _finite(np.partition(dist, k - 1, axis=1)[:, k - 1])


def _nearest_to(X: np.ndarray, sample: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    return _finite(cdist(X, sample).min(axis=1))


def ksp_scores(X, sample_size: int = 20, seed: int = 0) -> np.ndarray:
    """Distance to the nearest member of a random subsample of the rows.

    The subsample is drawn uniformly with replacement; a sampled row scores
    0 against its own copy in the sample.
    """
    X = as_matrix(X)
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, X.shape[0], size=sample_size)
    return _nearest_to(X, X[idx])


def ksp2_scores(X, sample_size: int = 20, alpha: float = 0.5, seed: int = 0) -> np.ndarray:
    """Two-stage subsample scores: filter, re-sample, re-score.

    Stage one runs the plain subsample scores; the ceil(alpha * n) rows with
    the lowest scores form the filtered pool, from which a fresh subsample
    (same size, same generator stream) is drawn. Every original row is then
    scored against that second subsample.
    """
    X = as_matrix(X)
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    rng = np.random.default_rng(seed)
    idx1 = rng.integers(0, X.shape[0], size=sample_size)
    stage1 = _nearest_to(X, X[idx1])
    keep = lowest_score_indices(stage1, alpha)
    pool = X[keep]
    idx2 = rng.integers(0, pool.shape[0], size=sample_size)
    return _nearest_to(X, pool[idx2])
