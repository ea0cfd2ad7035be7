"""Dense symmetric positive-definite solves and kernel-space ridge regression.

Cholesky factorization with escalating diagonal jitter handles nearly
singular matrices; a hand-rolled conjugate-gradient path solves the
kernel-space normal equations (G + rho I) theta = g, whose optimal value

    gamma - g.theta  =  min_theta ||V theta - v||^2 + rho ||theta||^2

is the regularized distance of a feature vector v from the span of the
training columns V, expressed purely through the kernel triple (G, g, gamma).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

# Jitter multiples of ||A||_F / sqrt(n), escalated only after a plain
# factorization fails.
JITTER_SCALES = (1e-12, 1e-10, 1e-8)

# Relative slack below zero beyond which the objective clamp warns.
_CLAMP_WARN_TOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix cannot be Cholesky-factorized even with jitter."""


class ConvergenceError(RuntimeError):
    """Conjugate gradient hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor of A + jitter_applied * I."""

    lower: np.ndarray
    jitter_applied: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


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
    """sqrt of the sum of squared entries."""
    A = np.asarray(A, dtype=float)
    return float(np.sqrt(np.sum(A * A)))


def spd_factor(A, jitter_scales: tuple[float, ...] = JITTER_SCALES) -> SpdFactorization:
    """Cholesky-factorize a symmetric matrix, escalating jitter on failure.

    Jitter candidates are ``jitter_scales`` times ||A||_F / sqrt(n), tried in
    order after the unmodified factorization fails. Pass an empty tuple to
    forbid jitter entirely.

    Raises:
        NotPositiveDefiniteError: if every candidate fails.
        ValueError: if A is not square or not symmetric.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite values")
    norm = frobenius_norm(A)
    if frobenius_norm(A - A.T) > 1e-8 * max(norm, 1e-300):
        raise ValueError("matrix is not symmetric")
    n = A.shape[0]
    base = norm / math.sqrt(n)
    for jitter in (0.0, *(s * base for s in jitter_scales)):
        try:
            target = A if jitter == 0.0 else A + jitter * np.eye(n)
            lower = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        return SpdFactorization(lower=lower, jitter_applied=jitter)
    raise NotPositiveDefiniteError("not positive definite")


def spd_solve(factorization: SpdFactorization, b) -> np.ndarray:
    """Solve (A + jitter I) x = b from a prior factorization.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factorization.n:
        raise ValueError(
            f"dimension mismatch: factorization is {factorization.n}, rhs has {b.shape[0]} rows"
        )
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite values")
    # Two triangular solves on the stored factor: cho_solve would copy it to
    # Fortran order and re-check it for finiteness on every call.
    lower = factorization.lower
    y = solve_triangular(lower, b, lower=True, check_finite=False)
    return solve_triangular(lower, y, lower=True, trans="T", check_finite=False)


def _clamp_objective(value: float, gamma: float) -> float:
    if value < 0.0:
        if value < -_CLAMP_WARN_TOL * abs(gamma):
            warnings.warn(
                f"ridge objective {value:.3e} clamped to 0 (gamma={gamma:.3e})",
                RuntimeWarning,
                stacklevel=3,
            )
        return 0.0
    return value


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
    return _clamp_objective(value, gamma)


def ridge_objective_from_factor(
    factorization: SpdFactorization, g, gamma: float, theta
) -> float:
    """Same objective, with theta.(G + rho I) theta taken from the factor.

    The factorization must be of (rho I + G); the quadratic term is then
    ||L^T theta||^2 minus the jitter correction.
    """
    g = np.asarray(g, dtype=float)
    theta = np.asarray(theta, dtype=float)
    w = factorization.lower.T @ theta
    quad = float(w @ w)
    if factorization.jitter_applied:
        quad -= factorization.jitter_applied * float(theta @ theta)
    value = gamma - 2.0 * float(g @ theta) + quad
    return _clamp_objective(value, gamma)


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
            objective_value=_clamp_objective(gamma, gamma),
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
