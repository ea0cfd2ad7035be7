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
    """base**exponent for an exponent >= 1 by repeated squaring; elementwise on arrays."""
    result = None
    e = int(exponent)
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _mirror_upper(A: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one for exact symmetry."""
    return np.triu(A) + np.triu(A, 1).T


def _pairwise(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Inner products (polynomial) or squared distances (RBF) between rows of A and B."""
    if spec.family == POLYNOMIAL:
        return A @ B.T
    return cdist(A, B, "sqeuclidean")


def _transform(spec: KernelSpec, P):
    """Kernel values from the elementwise pairwise quantities of ``_pairwise``."""
    if spec.family == POLYNOMIAL:
        return _int_power(1.0 + P, spec.degree)
    return np.exp(-P / (2.0 * spec.lengthscale**2))


def _kernel_row(spec: KernelSpec, X: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """``cross_vector`` without its checks, for inputs already validated."""
    g = _transform(spec, _pairwise(spec, X, x[None, :])[:, 0])
    return g, float(_transform(spec, _pairwise(spec, x[None, :], x[None, :])[0, 0]))


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points: ``cross_vector`` on one row.

    Each term of the sum is x_i y_i or (x_i - y_i)^2, summed in index order,
    so the result is floating-point symmetric in (x, y), not just symmetric
    up to rounding.
    """
    x = as_vector(x, "x")
    g, _ = cross_vector(spec, x[None, :], as_vector(y, "y"))
    return float(g[0])


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Pairwise kernel matrix of the rows of X (n x n, raw kernel values).

    The pairwise matrix is mirrored from its upper triangle before the
    transform, so the result is exactly symmetric. RBF diagonals are exactly 1.
    """
    X = as_matrix(X)
    return _transform(spec, _mirror_upper(_pairwise(spec, X, X)))


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
    return _kernel_row(spec, X, x)
