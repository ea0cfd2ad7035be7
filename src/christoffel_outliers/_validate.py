"""Input validation and the numerical-error base class shared by the numerical modules."""

from __future__ import annotations

import numpy as np


class NumericalError(ValueError):
    """A method cannot run on these data: the command line shows its bench
    cell as '-' and makes ``score`` and ``contour`` exit 3."""


def as_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a finite float matrix with at least one row and column, in C
    order: BLAS rounds a product over a strided row differently."""
    X = np.asarray(X, dtype=float, order="C")
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce to a finite, contiguous float vector of length >= 1."""
    x = np.asarray(x, dtype=float, order="C")
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x
