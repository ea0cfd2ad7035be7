"""Kernel evaluation and Gram-matrix assembly.

Two kernel families are supported:

    polynomial:  k(x, y) = (1 + x.y)^d
    rbf:         k(x, y) = exp(-||x - y||^2 / (2 sigma^2))

Both start from inner products: RBF squared distances are
||a||^2 + ||b||^2 - 2 a.b, clamped at 0, so a kernel row costs one
matrix-vector product for either family, for one query or each of a block
(``_kernel_rows``). The rows are centred at the training mean first, so the
terms cancel at the scale of the data's spread, not of its offset from the origin.

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

    ``degree`` (integral d >= 1, stored as an int) applies to the polynomial
    family only and ``lengthscale`` (sigma > 0) to the RBF family only. A spec
    fully determines a symmetric positive-semidefinite kernel function.
    """

    family: str
    degree: int | None = None
    lengthscale: float | None = None

    def __post_init__(self):
        if self.family == POLYNOMIAL:
            if self.degree is None or not (self.degree >= 1 and self.degree % 1 == 0):
                raise ValueError("polynomial kernel requires an integer degree >= 1")
            if self.degree > MAX_POLY_DEGREE:
                raise ValueError(f"polynomial degree is capped at {MAX_POLY_DEGREE}")
            object.__setattr__(self, "degree", int(self.degree))
            if self.lengthscale is not None:
                raise ValueError("lengthscale is an RBF parameter, not polynomial")
        elif self.family == RBF:
            if self.lengthscale is None or not self.lengthscale > 0:
                raise ValueError("rbf kernel requires lengthscale > 0")
            # exp(-D / (2 sigma^2)) needs 2 sigma^2 and its inverse finite and nonzero.
            scale = 2.0 * self.lengthscale * self.lengthscale
            if not 0.0 < scale < np.inf or not 1.0 / scale < np.inf:
                raise ValueError(
                    f"rbf lengthscale {self.lengthscale!r} is out of range: "
                    "2 sigma^2 and 1 / (2 sigma^2) must be finite and nonzero"
                )
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


def _int_power(base, e: int):
    """base**e for an int e >= 1 by repeated squaring, elementwise on arrays; a
    fresh array ``base``, which the caller gives up, is squared in place."""
    result = None
    while e:
        if e & 1:
            if result is None:
                result = base.copy() if e > 1 else base
            else:
                result *= base
        e >>= 1
        if e:
            base *= base
    return result


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared norm of a row (1-D A) or of each row of a block (2-D).

    Training rows and queries all go through this one reduction, so a row's
    norm does not depend on how many rows share the call.
    """
    return np.einsum("...j,...j->...", A, A)


def _sq_distances(P: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Squared distances ||a||^2 + ||b||^2 - 2 a.b, clamped at 0, in place on
    the inner products P, with ``norms`` the matching sums ||a||^2 + ||b||^2."""
    P *= -2.0
    P += norms
    return np.maximum(P, 0.0, out=P)


def _transform(spec: KernelSpec, P: np.ndarray) -> np.ndarray:
    """Kernel values from inner products (polynomial) or squared distances (RBF).

    Works in place on P, which must be a fresh float array the caller gives up.
    """
    if spec.family == POLYNOMIAL:
        P += 1.0
        return _int_power(P, spec.degree)
    np.negative(P, out=P)
    P /= 2.0 * spec.lengthscale**2
    return np.exp(P, out=P)


def _row_basis(spec: KernelSpec, X: np.ndarray) -> tuple:
    """What ``_kernel_rows`` needs of training rows X that were already checked.

    Polynomial: ``(X, None, None)``. RBF: ``(X - mean, mean, squared norms
    of the centred rows)``, with ``mean`` the mean row of X.
    """
    if spec.family == POLYNOMIAL:
        return X, None, None
    mean = X.mean(axis=0)
    centred = X - mean
    return centred, mean, _sq_norms(centred)


def _kernel_rows(spec: KernelSpec, basis: tuple, Q: np.ndarray) -> tuple:
    """``cross_vector`` on a ``_row_basis`` and a checked row (1-D Q) or block
    (2-D): kernel rows, and self-kernels (1 + x.x)^d by the row's squarings,
    or the scalar 1.0 for RBF (exp(-0.0) is 1).

    ``np.matmul`` makes the GEMV ``rows @ x`` of each query and ``np.vecdot``
    its dot product ``x @ x``; every other step is elementwise, so a row
    keeps its bits in any block.
    """
    rows, mean, sq = basis
    if spec.family == POLYNOMIAL:
        P = np.matmul(rows, Q[..., None])[..., 0]
        return _transform(spec, P), _int_power(1.0 + np.vecdot(Q, Q), spec.degree)
    xc = Q - mean
    D = _sq_distances(np.matmul(rows, xc[..., None])[..., 0], _sq_norms(xc)[..., None] + sq)
    return _transform(spec, D), 1.0


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Pairwise kernel matrix of the rows of X (n x n, raw kernel values).

    The result is exactly symmetric: numpy computes ``A @ A.T`` with one
    symmetric rank-k update (BLAS ``syrk``) and copies its triangle onto the
    other, and every later step is elementwise on symmetric operands. The
    RBF diagonal is a distance of exactly 0, so its kernel values are
    exactly 1.
    """
    X = as_matrix(X)
    if spec.family == POLYNOMIAL:
        return _transform(spec, X @ X.T)
    rows, _, sq = _row_basis(spec, X)
    D = _sq_distances(rows @ rows.T, np.add.outer(sq, sq))
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
    return _kernel_rows(spec, _row_basis(spec, X), x)
