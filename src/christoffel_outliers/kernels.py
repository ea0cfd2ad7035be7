"""Kernel evaluation and Gram-matrix assembly.

Two kernel families are supported:

    polynomial:  k(x, y) = (1 + x.y)^d
    rbf:         k(x, y) = exp(-||x - y||^2 / (2 sigma^2))

Both start from inner products: RBF squared distances are
||a||^2 + ||b||^2 - 2 a.b, clamped at 0, so a kernel row costs one
matrix-vector product for either family. The rows are centred at the
training mean first, so the terms cancel at the scale of the data's spread,
not of its offset from the origin.

Gram matrices hold raw kernel values. The 1/n moment scaling used by the
scoring layer is applied there, not here, so these matrices stay reusable
across methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Inner products between the rows of A and the rows of B (or the vector B)."""
    return A @ B.T


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared norm of each row of A.

    Training rows and queries both go through this one reduction, so a
    row's norm does not depend on how many rows share the call.
    """
    return np.einsum("ij,ij->i", A, A)


def _sq_distances(A: np.ndarray, a_sq: np.ndarray, B: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Squared distances ||a||^2 + ||b||^2 - 2 a.b between the rows of A and B, clamped at 0."""
    D = _pairwise(A, B)
    D *= -2.0
    D += np.add.outer(a_sq, b_sq)
    return np.maximum(D, 0.0, out=D)


def _transform(spec: KernelSpec, P):
    """Kernel values from inner products (polynomial) or squared distances (RBF)."""
    if spec.family == POLYNOMIAL:
        return _int_power(1.0 + P, spec.degree)
    return np.exp(-P / (2.0 * spec.lengthscale**2))


def _row_basis(spec: KernelSpec, X: np.ndarray) -> tuple:
    """What ``_kernel_row`` needs of training rows X that were already checked.

    Polynomial: ``(X, None, None)``. RBF: ``(X - mean, mean, squared norms
    of the centred rows)``, with ``mean`` the mean row of X.
    """
    if spec.family == POLYNOMIAL:
        return X, None, None
    mean = X.mean(axis=0)
    centred = X - mean
    return centred, mean, _sq_norms(centred)


def _kernel_row(spec: KernelSpec, basis: tuple, x: np.ndarray) -> tuple[np.ndarray, float]:
    """``cross_vector`` on a ``_row_basis`` and a checked query: one matrix-vector product."""
    rows, mean, sq = basis
    if spec.family == POLYNOMIAL:
        return _transform(spec, _pairwise(rows, x)), float(_transform(spec, _pairwise(x, x)))
    xc = (x - mean)[None, :]
    g = _transform(spec, _sq_distances(rows, sq, xc, _sq_norms(xc))[:, 0])
    return g, float(_transform(spec, 0.0))


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points: ``cross_vector`` on one row.

    The sum runs over the terms x_i y_i (polynomial) or, as the one training
    row x is its own mean, (y_i - x_i)^2 (RBF). Swapping x and y leaves each
    term unchanged, so the result is floating-point symmetric in (x, y), not
    just symmetric up to rounding.
    """
    x = as_vector(x, "x")
    g, _ = cross_vector(spec, x[None, :], as_vector(y, "y"))
    return float(g[0])


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Pairwise kernel matrix of the rows of X (n x n, raw kernel values).

    The pairwise matrix is mirrored from its upper triangle before the
    transform, so the result is exactly symmetric. The RBF diagonal is a
    distance of exactly 0, so its kernel values are exactly 1.
    """
    X = as_matrix(X)
    if spec.family == POLYNOMIAL:
        return _transform(spec, _mirror_upper(_pairwise(X, X)))
    rows, _, sq = _row_basis(spec, X)
    D = _mirror_upper(_sq_distances(rows, sq, rows, sq))
    np.fill_diagonal(D, 0.0)
    return _transform(spec, D)


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
    return _kernel_row(spec, _row_basis(spec, X), x)
