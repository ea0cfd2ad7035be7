"""Dense symmetric positive-definite factors and the kernel-space ridge objective.

A matrix is factorized by one plain Cholesky; one that is not positive
definite in double precision is an error, never silently perturbed. With
L L^T = rho I + G for a scaled Gram matrix G, the ridge minimum

    min_theta ||V theta - v||^2 + rho ||theta||^2  =  gamma - ||L^{-1} g||^2

is the regularized distance of a feature vector v from the span of the
training columns V, expressed through the kernel triple (G, g, gamma): one
BLAS triangular solve per vector, a ctypes call that works in place on g
and releases the GIL, so threads scoring other vectors run meanwhile.
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, solve_triangular

# Relative slack below zero beyond which the objective clamp warns.
_CLAMP_WARN_TOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix cannot be Cholesky-factorized."""


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor L of A, with L L^T = A.

    ``lower`` is stored nonempty, square, C-ordered, writeable and float64
    (a Cholesky output is, and is not copied): BLAS reads its transpose, the
    F-ordered upper factor, through a ctypes view of its buffer.
    """

    lower: np.ndarray

    def __post_init__(self):
        lower = np.require(self.lower, np.float64, "CAW")
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1] or lower.size == 0:
            raise ValueError(f"expected a nonempty square factor, got shape {lower.shape}")
        object.__setattr__(self, "lower", lower)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def jitter_applied(self) -> float:
        """Always 0.0: a factor is of A itself. Kept only because perfbench's
        tracer reads it for its ``linalg.jitter_applied`` count."""
        return 0.0


def frobenius_norm(A) -> float:
    """sqrt of the sum of squared entries.

    When that sum overflows, the entries are first divided by the largest
    magnitude m and the result is m times the norm of the quotient, so
    every result that was finite keeps its bits.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(A * A)))
    if not math.isfinite(norm):
        m = float(np.max(np.abs(A)))
        if math.isfinite(m):
            return m * float(np.sqrt(np.sum(np.square(A / m))))
    return norm


def spd_factor(A) -> SpdFactorization:
    """Cholesky-factorize a symmetric matrix.

    Raises:
        NotPositiveDefiniteError: if A is not positive definite in double precision.
        ValueError: if A is empty, not square, not finite or not symmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite values")
    # Exact symmetry, as every Gram and moment matrix here has, needs no norms.
    if not np.array_equal(A, A.T):
        norm = frobenius_norm(A)
        if frobenius_norm(A - A.T) > 1e-8 * max(norm, 1e-300):
            raise ValueError("matrix is not symmetric")
    try:
        return SpdFactorization(lower=np.linalg.cholesky(A))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("not positive definite") from exc


def _forward(factorization: SpdFactorization, b) -> np.ndarray:
    """L^{-1} b by forward substitution on the stored factor L."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factorization.n:
        raise ValueError(
            f"dimension mismatch: factorization is {factorization.n}, rhs has {b.shape[0]} rows"
        )
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite values")
    # The factor was checked when built; check_finite would re-scan it per call.
    return solve_triangular(factorization.lower, b, lower=True, check_finite=False)


def spd_solve(factorization: SpdFactorization, b) -> np.ndarray:
    """Solve A x = b from a prior factorization of A.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    # Triangular solves on the stored factor: cho_solve would copy it to
    # Fortran order on every call.
    y = _forward(factorization, b)
    return solve_triangular(factorization.lower, y, lower=True, trans="T", check_finite=False)


def _clamp_objective(value: float, gamma: float) -> float:
    """The objective value, or 0 if it is negative.

    A value below -_CLAMP_WARN_TOL * |gamma| is more than rounding, and it warns.
    """
    if value < -_CLAMP_WARN_TOL * abs(gamma):
        warnings.warn(
            f"ridge objective {value:.3e} clamped to 0 (gamma={gamma:.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
    return 0.0 if value < 0.0 else value


def ridge_objective_from_factor(factorization: SpdFactorization, g, gamma: float) -> float:
    """Optimal regularized distance gamma - g^T (rho I + G)^{-1} g from the factor.

    The factorization must be of (rho I + G). With L L^T = rho I + G and
    z = L^{-1} g the value is gamma - ||z||^2: one forward substitution,
    on a copy of g. Clamped at zero.
    """
    g = np.array(g, dtype=np.float64)
    return float(_clamp_objective(_objective(factorization, g, gamma), gamma))


def _objective(factorization: SpdFactorization, g: np.ndarray, gamma: float) -> float:
    """``ridge_objective_from_factor`` before the clamp; g is overwritten by z = L^{-1} g.

    BLAS trsv solves in place in g, reading L^T, the F-ordered view of the
    stored factor: no copy, and none of ``solve_triangular``'s argument
    handling, which at a few hundred rows costs as much as the solve. The
    factor's layout was settled when it was built, so only g is checked
    here: a writeable C-ordered float64 vector of length n.

    A non-finite entry of g makes z, and so ||z||^2, non-finite; z is
    scanned only when that one number is, and a non-finite entry, from g or
    from a solve that overflows, raises.
    """
    n = factorization.n
    if g.dtype != np.float64 or g.shape != (n,) or not g.flags.carray:
        raise ValueError(
            f"rhs must be a writeable C-ordered float64 vector of length {n}, got shape {g.shape}"
        )
    size = ctypes.c_int(n)
    # BLAS reads L^T, F-ordered, where the C-ordered L starts. A ctypes view
    # of a buffer costs a fraction of ``ndarray.ctypes.data`` and holds it.
    view = ctypes.c_double.from_buffer
    _DTRSV(b"U", b"T", b"N", size, view(factorization.lower), size, view(g), _ONE)
    zz = float(g @ g)
    if not math.isfinite(zz) and not np.isfinite(g).all():
        raise ValueError("rhs contains non-finite values")
    return gamma - zz


def _objectives(factorization: SpdFactorization, G: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """``_objective`` for every row of G at once; G is overwritten by the z of each row.

    The layout of G, a writeable C-ordered float64 block of rows of length
    n, is checked once. Each row is solved in place by its own trsv, as
    ``_objective`` solves it, and the squared norms come from one stacked
    product that makes one dot product per row, the call ``g @ g`` makes, so
    every value keeps the bits of its one-row call. A row raises as it does
    there: when its ||z||^2 and some entry of its z are both non-finite.
    """
    n = factorization.n
    if G.dtype != np.float64 or G.ndim != 2 or G.shape[1] != n or not G.flags.carray:
        raise ValueError(
            f"rhs must be a writeable C-ordered float64 block of rows of length {n}, "
            f"got shape {G.shape}"
        )
    size = ctypes.c_int(n)
    view = ctypes.c_double.from_buffer
    lower = view(factorization.lower)
    for offset in range(0, G.nbytes, 8 * n):
        _DTRSV(b"U", b"T", b"N", size, lower, size, view(G, offset), _ONE)
    zz = np.matmul(G[:, None, :], G[:, :, None]).ravel()
    overflowed = ~np.isfinite(zz)
    if overflowed.any() and not np.isfinite(G[overflowed]).all():
        raise ValueError("rhs contains non-finite values")
    return gammas - zz


def _cython_blas_function(name: str, prototype):
    """The BLAS routine ``name`` that ``scipy.linalg.cython_blas`` exports, as a ctypes call.

    The exported capsule holds the function pointer; a ``CFUNCTYPE`` call
    releases the GIL for its duration.
    """
    capsule = cython_blas.__pyx_capi__[name]
    as_py = ctypes.PYFUNCTYPE
    get_name = as_py(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = as_py(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return prototype(get_pointer(capsule, get_name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
# void dtrsv(char *uplo, char *trans, char *diag, int *n, double *a, int *lda,
#            double *x, int *incx)
_DTRSV = _cython_blas_function(
    "dtrsv",
    ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P,
        _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P,
    ),
)
_ONE = ctypes.c_int(1)
