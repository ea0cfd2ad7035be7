"""Kernel evaluation and Gram-matrix assembly.

Two kernel families are supported:

    polynomial:  k(x, y) = (1 + x.y)^d
    rbf:         k(x, y) = exp(-||x - y||^2 / (2 sigma^2))

Gram matrices hold raw kernel values. The 1/n moment scaling used by the
scoring layer is applied there, not here, so these matrices stay reusable
across methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._validate import as_matrix, as_vector

POLYNOMIAL = "polynomial"
RBF = "rbf"

# Polynomial powers are computed by squaring, so the exponent is O(log d);
# the cap keeps (1 + x.y)^d inside double range for sane inputs.
MAX_POLY_DEGREE = 64


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its single hyperparameter.

    ``degree`` (d >= 1) applies to the polynomial family only and
    ``lengthscale`` (sigma > 0) to the RBF family only. A spec fully
    determines a symmetric positive-semidefinite kernel function.
    """

    family: str
    degree: int | None = None
    lengthscale: float | None = None

    def __post_init__(self):
        if self.family == POLYNOMIAL:
            if self.degree is None or int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial kernel requires an integer degree >= 1")
            if self.degree > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree is capped at {MAX_POLY_DEGREE}")
            if self.lengthscale is not None:
                raise ValueError("lengthscale is an RBF parameter, not polynomial")
        elif self.family == RBF:
            if self.lengthscale is None or not self.lengthscale > 0:
                raise ValueError("rbf kernel requires lengthscale > 0")
            if self.degree is not None:
                raise ValueError("degree is a polynomial parameter, not RBF")
        else:
            raise ValueError(f"unknown kernel family: {self.family!r}")

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls(family=POLYNOMIAL, degree=degree)

    @classmethod
    def rbf(cls, lengthscale: float) -> "KernelSpec":
        return cls(family=RBF, lengthscale=float(lengthscale))


def _int_power(base, exponent: int):
    """base**exponent by repeated squaring; elementwise on arrays."""
    result = None
    b = base
    e = int(exponent)
    while e > 0:
        if e & 1:
            result = b if result is None else result * b
        e >>= 1
        if e:
            b = b * b
    if result is None:  # exponent 0
        return base * 0.0 + 1.0
    return result


def _mirror_upper(A: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one for exact symmetry."""
    return np.triu(A) + np.triu(A, 1).T


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points.

    The evaluation order is identical for (x, y) and (y, x), so the result
    is floating-point symmetric, not just symmetric up to rounding.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: x has {x.shape[0]} entries, y has {y.shape[0]}")
    if spec.family == POLYNOMIAL:
        return float(_int_power(1.0 + float(np.dot(x, y)), spec.degree))
    diff = x - y
    sq = float(np.dot(diff, diff))
    return float(np.exp(-sq / (2.0 * spec.lengthscale**2)))


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Pairwise kernel matrix of the rows of X (n x n, raw kernel values).

    The upper triangle is computed and mirrored, so the result is exactly
    symmetric. RBF diagonals are exactly 1.
    """
    X = as_matrix(X)
    if spec.family == POLYNOMIAL:
        inner = _mirror_upper(X @ X.T)
        return _int_power(1.0 + inner, spec.degree)
    d2 = _mirror_upper(cdist(X, X, "sqeuclidean"))
    np.fill_diagonal(d2, 0.0)
    return np.exp(-d2 / (2.0 * spec.lengthscale**2))


def cross_vector(spec: KernelSpec, X, x) -> tuple[np.ndarray, float]:
    """Kernel vector between a query x and the rows of X, plus k(x, x).

    Returns (g, gamma) with g_i = k(x_i, x) and gamma = k(x, x).
    """
    X = as_matrix(X)
    x = as_vector(x, "x")
    if X.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: X has {X.shape[1]} features, x has {x.shape[0]}"
        )
    if spec.family == POLYNOMIAL:
        g = _int_power(1.0 + X @ x, spec.degree)
        gamma = float(_int_power(1.0 + float(np.dot(x, x)), spec.degree))
        return np.asarray(g, dtype=float), gamma
    diff = X - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    g = np.exp(-d2 / (2.0 * spec.lengthscale**2))
    return g, 1.0

