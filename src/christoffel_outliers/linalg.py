"""Dense symmetric positive-definite solves and kernel-space ridge regression.

A matrix is factorized by one plain Cholesky, and one that is not
positive definite in double precision is an error, never silently
perturbed. A hand-rolled conjugate-gradient path solves the
kernel-space normal equations (G + rho I) theta = g, whose optimal value

    gamma - g.theta  =  min_theta ||V theta - v||^2 + rho ||theta||^2

is the regularized distance of a feature vector v from the span of the
training columns V, expressed purely through the kernel triple (G, g, gamma).
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas, solve_triangular
from scipy.linalg.blas import dtrsv

# Relative slack below zero beyond which the objective clamp warns.
_CLAMP_WARN_TOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix cannot be Cholesky-factorized."""


class ConvergenceError(RuntimeError):
    """Conjugate gradient hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor L of A, with L L^T = A."""

    lower: np.ndarray

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @property
    def jitter_applied(self) -> float:
        """Always 0.0: a factor is of A itself. Kept only because perfbench's
        tracer reads it for its ``linalg.jitter_applied`` count."""
        return 0.0


@dataclass(frozen=True)
class RidgeSolution:
    """Solution of the kernel-space ridge problem.

    ``objective_value`` is the minimum regularized distance (clamped at 0),
    ``residual_norm`` the final ||(G + rho I) theta - g||.
    """

    theta: np.ndarray
    objective_value: float
    iterations: int
    residual_norm: float


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
        ValueError: if A is not square, not finite or not symmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite values")
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


def _clamp_objective(values, gammas):
    """Objective values with every negative one set to 0, elementwise over matching shapes.

    A value below -_CLAMP_WARN_TOL * |gamma| is more than rounding, and
    each such value warns.
    """
    values = np.asarray(values, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    warned = values < -_CLAMP_WARN_TOL * np.abs(gammas)
    for value, gamma in zip(values[warned], gammas[warned]):
        warnings.warn(
            f"ridge objective {value:.3e} clamped to 0 (gamma={gamma:.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.where(values < 0.0, 0.0, values)


def ridge_objective(G, g, gamma: float, rho: float, theta) -> float:
    """Regularized distance ||V theta - v||^2 + rho ||theta||^2 in kernel space.

    Evaluates gamma - 2 g.theta + theta.(G theta) + rho theta.theta. At the
    exact minimizer this equals gamma - g.theta, but this form keeps the
    error of an approximate theta second order, which matters when the
    minimum is many orders of magnitude below gamma. Clamped at zero.
    """
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    theta = np.asarray(theta, dtype=float)
    quad = float(theta @ (G @ theta)) + rho * float(theta @ theta)
    value = gamma - 2.0 * float(g @ theta) + quad
    return float(_clamp_objective(value, gamma))


def ridge_objective_from_factor(factorization: SpdFactorization, g, gamma: float) -> float:
    """Optimal regularized distance gamma - g^T (rho I + G)^{-1} g from the factor.

    The factorization must be of (rho I + G). With L L^T = rho I + G and
    z = L^{-1} g the value is gamma - ||z||^2: one forward substitution.
    Clamped at zero.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (factorization.n,):
        raise ValueError(
            f"dimension mismatch: factorization is {factorization.n}, rhs has shape {g.shape}"
        )
    return float(_clamp_objective(_objective(factorization, g, gamma), gamma))


def _objective(
    factorization: SpdFactorization, g: np.ndarray, gamma: float, release_gil: bool = False
) -> float:
    """``ridge_objective_from_factor`` before the clamp, for a float vector g of length n.

    g is checked for finiteness only. BLAS trsv runs directly on L^T, an
    F-ordered view of the stored factor: no copy, and none of
    ``solve_triangular``'s argument handling, which at a few hundred rows
    costs as much as the solve. With ``release_gil`` the same routine is
    called through ``_dtrsv_nogil``, so threads scoring other rows run
    meanwhile; the result has the same bits.
    """
    if not np.isfinite(g).all():
        raise ValueError("rhs contains non-finite values")
    trsv = _dtrsv_nogil if release_gil else dtrsv
    z = trsv(factorization.lower.T, g, trans=1)
    return gamma - float(z @ z)


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
# void dtrsv(char *uplo, char *trans, char *diag, int *n, double *a, int *lda,
#            double *x, int *incx)
_DTRSV = _cython_blas_function(
    "dtrsv",
    ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT_P,
        ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P,
    ),
)
_ONE = ctypes.c_int(1)


def _dtrsv_nogil(a: np.ndarray, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """``scipy.linalg.blas.dtrsv(a, x, trans=trans)`` without holding the GIL.

    Solves op(U) z = x for the upper triangle U of the square F-ordered
    float matrix a, op transposing when ``trans`` is 1, and returns z as a
    new array. It calls the BLAS routine that the f2py wrapper calls, with
    the same arguments, so z has the same bits.
    """
    n = a.shape[0]
    if a.dtype != np.float64 or a.shape != (n, n) or not a.flags.f_contiguous:
        raise ValueError("a must be a square F-ordered float64 matrix")
    if trans not in (0, 1):
        raise ValueError("trans must be 0 or 1")
    z = np.array(x, dtype=np.float64)
    if z.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {z.shape}")
    size = ctypes.c_int(n)
    _DTRSV(
        b"U", b"T" if trans else b"N", b"N",
        size, a.ctypes.data, size, z.ctypes.data, _ONE,
    )
    return z


def cg_ridge_solve(
    G,
    g,
    gamma: float,
    rho: float,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> RidgeSolution:
    """Solve (G + rho I) theta = g by conjugate gradients.

    Stops when ||(G + rho I) theta - g|| <= tol * ||g||; ``max_iter``
    defaults to 10 n. The matrix G must be positive semidefinite so that
    G + rho I is positive definite for rho > 0.

    Raises:
        ConvergenceError: if the iteration cap is hit; carries the best
            residual norm seen.
    """
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"G must be square, got shape {G.shape}")
    if g.ndim != 1 or g.shape[0] != G.shape[0]:
        raise ValueError("g length must match G")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = g.shape[0]
    if max_iter is None:
        max_iter = 10 * n

    g_norm = math.sqrt(float(g @ g))
    if g_norm == 0.0:
        # No data coupling: the minimizer is theta = 0 with value gamma.
        return RidgeSolution(
            theta=np.zeros(n),
            objective_value=float(_clamp_objective(gamma, gamma)),
            iterations=0,
            residual_norm=0.0,
        )

    target = tol * g_norm
    theta = np.zeros(n)
    r = g.copy()
    d = r.copy()
    rs = float(r @ r)
    best_residual = math.sqrt(rs)
    for iteration in range(1, max_iter + 1):
        Ad = G @ d + rho * d
        alpha = rs / float(d @ Ad)
        theta += alpha * d
        r -= alpha * Ad
        rs_next = float(r @ r)
        residual = math.sqrt(rs_next)
        best_residual = min(best_residual, residual)
        if residual <= target:
            objective = ridge_objective(G, g, gamma, rho, theta)
            return RidgeSolution(
                theta=theta,
                objective_value=objective,
                iterations=iteration,
                residual_norm=residual,
            )
        d = r + (rs_next / rs) * d
        rs = rs_next
    raise ConvergenceError(
        f"conjugate gradient did not reach tolerance {tol:g} within {max_iter} "
        f"iterations (best residual {best_residual:.3e})",
        residual_norm=best_residual,
        iterations=max_iter,
    )
