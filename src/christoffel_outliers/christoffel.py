"""Christoffel-function outlier scorers.

The explicit route maps points through the scaled monomial feature map
v(x), forms the empirical moment matrix M = (1/n) sum v(x_i) v(x_i)^T and
scores a query by q(x) = v(x)^T M^{-1} v(x). Large q means far from the
shape of the point cloud, i.e. outlying. The feature dimension
s = binomial(p + d, d) explodes with the feature count p, which is what
the kernelized route avoids.

The kernelized route scores by the regularized quantity

    phi(rho) = gamma - g^T (rho I + G)^{-1} g,

built only from kernel evaluations: G is the scaled training Gram matrix,
g the scaled query cross-kernel vector and gamma the query self-kernel.
For the polynomial kernel, phi(rho) / rho is a lower bound on q(x) and
converges to it as rho -> 0; any other positive-definite kernel (RBF in
particular) can be substituted, which the explicit route cannot do.

A polynomial fit with s <= n takes the feature route instead: G = V V^T for
its n x s features V, so with M = V^T V / n (built as the explicit route
builds it) exactly phi(rho) = rho v(x)^T (rho I + M)^{-1} v(x), the
regularized Christoffel function, and ||G||_F = ||M||_F gives the C rule's
rho. It factors the s x s rho I + M and solves s-long systems. Its scores are
squared norms times rho, never negative; and at a tiny rho a full-rank
rho I + M factors where rho I + G (rank s < n) fails.

All three routes score a batch through ``_batch_objectives``, one triangular
solve per row; the explicit q(x), the rho -> 0 end of phi(rho) / rho, is minus
the objective on the factor of M itself at v(x) and a zero self-kernel.

Default hyperparameter rules and the two-stage filtered variant live here
as well.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from ._validate import NumericalError, as_matrix, as_vector
from .baselines import lowest_score_indices
from .kernels import KernelSpec, _kernel_rows, _row_basis, gram_matrix
from .linalg import (
    NotPositiveDefiniteError,
    SpdFactorization,
    _objectives,
    frobenius_norm,
    spd_factor,
)

# A batch of m rows is split over threads only on a factor of order n of at
# least _SPLIT_MIN_N, and only when m n^2, which sets the batch's solve time,
# reaches _SPLIT_MIN_WORK. Split time over serial time for 1000 RBF rows at
# p=20 on 2 cores with 1 BLAS thread (medians of 15 alternating calls, range
# over 3 runs of a noisy host): 0.94-1.39 at n=200, 0.94-1.00 at n=300,
# 0.78-0.93 at n=400, 0.68-0.81 at n=600 and 0.64-0.74 at n=1000. Measured
# before the solves went to panels (polynomial / RBF, medians of 9
# alternating runs): at n=400, 1.74 / 1.85 for 32 rows, 1.10 / 1.19 for 64,
# 0.94 / 1.33 for 128 and 0.83 / 1.14 for 256; at n=1000, 0.79 / 0.79 for 32
# rows, 0.69 / 0.63 for 64 and 0.65 / 0.58 for 128. Below n=400 the gain is
# small and unsteady; below about 2^25 / n^2 rows, starting the threads costs
# about what splitting saves.
_SPLIT_MIN_N = 400
_SPLIT_MIN_WORK = 2**25

# Kernel values (or features) per block of a batch, about 256 KB: 64 rows at
# n=512, 32 at n=1000. A block makes one stacked kernel product and one
# stacked dot product, against a trsv per row. Bounding its values, not its
# rows, keeps each thread's two or three block-sized temporaries small at any
# n: with 64-row blocks the `table` benchmark peaked 1.4 MB above the per-row
# loop, with this bound it peaks level with it, in the same wall time.
_BLOCK_VALUES = 2**15

# A grid point takes 16 bytes as a stacked (x, y) row, the largest of the
# grid's arrays. A grid past this cap, far below the 2^47 bytes a 64-bit
# Linux process can address, fails before any input is read.
_GRID_MAX_BYTES = 2**40

# Beyond this feature dimension a dense s x s solve is hopeless on desk
# hardware; fail fast instead of exhausting memory.
DEFAULT_FEATURE_DIM_LIMIT = 20000


class FeatureDimensionError(NumericalError):
    """The monomial feature dimension binomial(p + d, d) exceeds the limit."""


class MomentMatrixError(NumericalError):
    """The empirical moment matrix is not positive definite."""


class RhoRangeError(NumericalError):
    """The effective regularization rho is not positive and finite."""


class GramOverflowError(NumericalError):
    """A Gram matrix entry overflows double precision."""


@dataclass(frozen=True)
class FeatureMap:
    """Scaled monomial basis of all exponents alpha with |alpha| <= degree.

    ``exponents`` holds one alpha per row in graded lexicographic order
    (total degree ascending, ties lexicographic) and ``coefficients`` the
    matching sqrt multinomial weights, chosen so that

        v(x) . v(y) = (1 + x.y)^degree.
    """

    exponents: np.ndarray
    coefficients: np.ndarray
    degree: int

    @property
    def dimension(self) -> int:
        return self.exponents.shape[0]

    @property
    def input_dim(self) -> int:
        return self.exponents.shape[1]


@dataclass(frozen=True)
class ChristoffelModel:
    """Fitted kernelized scorer.

    Holds the kernel, the regularization rho, the training rows and a
    factorization of (rho I + G_scaled) with G_scaled the Gram matrix
    divided by n, or of (rho I + M) on the feature route (``feature_map``).
    """

    kernel: KernelSpec
    rho: float
    training: np.ndarray
    factorization: SpdFactorization
    feature_map: FeatureMap | None = None
    # What a row needs of the model: the ``_monomials`` of the feature map,
    # or the ``kernels._row_basis`` of the training rows (for RBF the centred
    # rows, their mean and their squared norms).
    _basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fm = self.feature_map
        basis = _row_basis(self.kernel, self.training) if fm is None else _monomials(fm)
        object.__setattr__(self, "_basis", basis)

    @property
    def n(self) -> int:
        return self.training.shape[0]

    @property
    def p(self) -> int:
        return self.training.shape[1]


def build_feature_map(
    p: int, d: int, dim_limit: int = DEFAULT_FEATURE_DIM_LIMIT
) -> FeatureMap:
    """Construct the scaled monomial basis for p features and degree d.

    Raises:
        ValueError: if p or d is not a positive integer (2.0 counts as 2).
        FeatureDimensionError: if binomial(p + d, d) exceeds ``dim_limit``.
    """
    if not (p >= 1 and d >= 1 and p % 1 == 0 and d % 1 == 0):
        raise ValueError("p and d must be positive integers")
    p, d = int(p), int(d)
    s = math.comb(p + d, d)
    if s > dim_limit:
        raise FeatureDimensionError(
            f"feature dimension too large: binomial({p + d}, {d}) = {s} "
            f"exceeds the limit {dim_limit}"
        )
    exponents = np.zeros((s, p), dtype=np.int64)
    coefficients = np.empty(s)
    d_fact = math.factorial(d)
    row = 0
    for total in range(d + 1):
        tail_fact = math.factorial(d - total)
        # A monomial of this degree is a sorted tuple of its coordinates, one
        # per unit of exponent. Descending tuples give ascending exponent
        # vectors, so the degrees in turn give graded lexicographic order.
        for coords in reversed(list(combinations_with_replacement(range(p), total))):
            denom = tail_fact
            for c in set(coords):
                a = coords.count(c)
                exponents[row, c] = a
                denom *= math.factorial(a)
            coefficients[row] = math.sqrt(d_fact / denom)
            row += 1
    assert row == s
    return FeatureMap(exponents=exponents, coefficients=coefficients, degree=d)


def feature_matrix(fm: FeatureMap, X) -> np.ndarray:
    """Stack v(x_i) for every row of X into an (n, s) matrix, in O(n s d) work."""
    X = as_matrix(X)
    if X.shape[1] != fm.input_dim:
        raise ValueError(
            f"dimension mismatch: feature map expects {fm.input_dim} features, got {X.shape[1]}"
        )
    return _features(_monomials(fm), X)


def _monomials(fm: FeatureMap) -> tuple:
    """The exponents 0..d, for each slot an (s,) index j (d + 1) + k into a
    row's powers x_j ** k, and the coefficients: what ``_features`` reads."""
    # A monomial has at most min(d, p) nonzero exponents. They fill its slots
    # first, in coordinate order, so that the product of their powers takes
    # the same steps as a product over all p coordinates; x ** 0 = 1 pads the rest.
    coords = np.argsort(fm.exponents == 0, axis=1, kind="stable")[:, : fm.degree]
    powers = np.take_along_axis(fm.exponents, coords, axis=1)
    slots = np.ascontiguousarray((coords * (fm.degree + 1) + powers).T)
    return np.arange(fm.degree + 1), slots, fm.coefficients


def _features(monomials: tuple, Q: np.ndarray) -> np.ndarray:
    """v(x) of a checked row (1-D Q) or of each row of a block (2-D); every
    step is elementwise, so a row has the same bits in any block."""
    exponents, slots, coefficients = monomials
    table = np.power.outer(Q, exponents).reshape(Q.shape[:-1] + (-1,))
    out = table.take(slots[0], axis=-1)
    for index in slots[1:]:
        out *= table.take(index, axis=-1)
    out *= coefficients
    return out


def _moment_matrix(fm: FeatureMap, X: np.ndarray) -> np.ndarray:
    """M = V^T V / n for the features V of the checked rows of X; M must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        V = feature_matrix(fm, X)
        M = V.T @ V / X.shape[0]
    if not np.isfinite(M).all():
        raise MomentMatrixError(
            f"moment matrix overflows double precision at degree {fm.degree}; "
            "use a lower degree or normalized data"
        )
    return M


def _ic_scores_from_map(fm: FeatureMap, X: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # rank(M) is at most the number of distinct rows of X, so fewer distinct
    # rows than monomials make M singular, however Cholesky rounds.
    distinct = np.unique(X, axis=0).shape[0]
    if distinct < fm.dimension:
        raise MomentMatrixError(
            f"moment matrix not positive definite: {distinct} distinct rows, "
            f"fewer than the {fm.dimension} monomials of degree {fm.degree}"
        )
    try:
        factor = spd_factor(_moment_matrix(fm, X), overwrite_a=True)
    except NotPositiveDefiniteError as exc:
        raise MomentMatrixError(
            "moment matrix not positive definite; the data may lie on a "
            f"degree-{fm.degree} variety (need more points or a lower degree)"
        ) from exc
    basis = _monomials(fm)
    return -_batch_objectives(factor, lambda block: (_features(basis, block), 0.0), queries)


def ic_scores(
    X, queries, d: int, dim_limit: int = DEFAULT_FEATURE_DIM_LIMIT
) -> np.ndarray:
    """Moment-matrix scores q(x) = v(x)^T M^{-1} v(x) for each query row.

    M = L L^T is factorized as it is; each score is ||L^{-1} v(x)||^2 from the
    batch routine of ``kic_scores``, so, as there, a score depends neither on
    the batch nor on the CPU count.

    Raises:
        ValueError: if d is not a positive integer (2.0 counts as 2).
        FeatureDimensionError: if the monomial basis exceeds ``dim_limit``.
        MomentMatrixError: if M overflows or is singular, as with fewer distinct
            rows than monomials.
    """
    X = as_matrix(X)
    queries = as_matrix(queries, "queries")
    if X.shape[1] != queries.shape[1]:
        raise ValueError("X and queries must have the same feature count")
    fm = build_feature_map(X.shape[1], d, dim_limit=dim_limit)
    return _ic_scores_from_map(fm, X, queries)


def default_rho(G_scaled, C: float) -> float:
    """Regularization rule rho = ||G_scaled||_F / (C sqrt(n)).

    ``G_scaled`` is the Gram matrix already divided by n, matching how the
    fitted model scales it.
    """
    G_scaled = np.asarray(G_scaled, dtype=float)
    if G_scaled.ndim != 2 or G_scaled.shape[0] != G_scaled.shape[1]:
        raise ValueError("G_scaled must be a square matrix")
    return _c_rule(frobenius_norm(G_scaled), C, G_scaled.shape[0])


def _c_rule(norm: float, C: float, n: int) -> float:
    """norm / (C sqrt(n)), with norm ||A||_F of the scaled Gram of n rows or their moment matrix."""
    if not C > 0:
        raise ValueError("C must be positive")
    if norm == 0.0:
        raise ValueError("degenerate Gram matrix: Frobenius norm is zero")
    return norm / (C * math.sqrt(n))


def default_sigma(p: int, variant: str = "KIC") -> float:
    """RBF lengthscale rule: sqrt(p)/2 for KIC, sqrt(p)/4 for KIC2.

    The sqrt(p) reflects the typical distance from the origin of a
    zero-mean unit-variance point in p dimensions.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if variant == "KIC":
        return math.sqrt(p) / 2.0
    if variant == "KIC2":
        return math.sqrt(p) / 4.0
    raise ValueError(f"variant must be 'KIC' or 'KIC2', got {variant!r}")


def fit_kic(
    X, kernel: KernelSpec, rho: float | None = None, C: float = 500.0
) -> ChristoffelModel:
    """Fit the kernelized scorer: factorize (rho I + G/n) over the rows of X.

    A polynomial kernel with binomial(p + d, d) <= n takes the feature route
    and factorizes (rho I + M) instead; otherwise the Gram is built once.
    When ``rho`` is None it comes from the C rule on that same matrix
    (||G/n||_F = ||M||_F) with divisor ``C``; the model records it. That norm,
    between max |G_ij| / n and max |G_ij|, is finite exactly when the Gram is.

    Raises:
        GramOverflowError: if a Gram matrix entry overflows.
        MomentMatrixError: if a moment matrix entry overflows.
        RhoRangeError: if the effective rho is not positive and finite.
        NotPositiveDefiniteError: if rho I + G/n is not positive definite.
    """
    X = as_matrix(X)
    n, p = X.shape
    d = kernel.degree  # None for RBF
    fm = build_feature_map(p, d, dim_limit=n) if d and math.comb(p + d, d) <= n else None
    if fm is not None:
        A = _moment_matrix(fm, X)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            A = gram_matrix(kernel, X)
        # Scale the fresh Gram and add rho to its diagonal in place: no n x n temporaries.
        A /= n
    # The Gram check, the C rule and the not-positive-definite message read
    # this one norm, taken before the factorization overwrites A.
    norm, origin = frobenius_norm(A), "given"
    if fm is None and not math.isfinite(norm):
        at, fix = (f" at degree {kernel.degree}", "a lower degree or ") if kernel.degree else ("", "")
        raise GramOverflowError(f"{kernel.family} Gram matrix overflows double precision{at}; "
                                f"use {fix}normalized data")
    if rho is None:
        rho, origin = _c_rule(norm, C, n), f"from C = {C:g}"
    if not 0 < rho < math.inf:
        raise RhoRangeError(f"rho must be positive and finite, got rho = {rho:g} ({origin})")
    A.flat[::A.shape[0] + 1] += rho
    try:
        factor = spd_factor(A, overwrite_a=True)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"rho I + G/n is not positive definite at rho = {rho:g} "
            f"(||G/n||_F = {norm:g}); use a larger rho or a smaller C"
        ) from exc
    return ChristoffelModel(kernel=kernel, rho=float(rho), training=X, factorization=factor,
                            feature_map=fm)


def kic_scores(model: ChristoffelModel, Q) -> np.ndarray:
    """Kernelized scores phi(rho) = gamma - g^T (rho I + G)^{-1} g, one per row of Q.

    g is scaled by 1/sqrt(n), G by 1/n and gamma is the raw self-kernel; with
    the stored factor L L^T = rho I + G each value is gamma - ||L^{-1} g||^2 as
    computed, which rounding can put a little below zero at a tiny rho. On the
    feature route L L^T = rho I + M, and each value is rho ||L^{-1} v(x)||^2,
    -rho times that objective at gamma = 0.

    The rows are scored by ``_batch_objectives``, so a score depends neither
    on the batch nor on the CPU count, and equals ``kic_score`` at its row.
    """
    Q = as_matrix(Q, "Q")
    _check_features(model, Q.shape[1])
    values = _batch_objectives(model.factorization, lambda block: _rows(model, block), Q)
    return values * -model.rho if model.feature_map is not None else values


def _batch_objectives(factorization: SpdFactorization, rows, Q: np.ndarray) -> np.ndarray:
    """gamma - ||L^{-1} g||^2 for each row of the checked Q, where ``rows(block)``
    gives a block's right-hand sides g and self-kernels gamma.

    Each row gets its own right-hand side, forward substitution and dot
    product, which a batched solve would round by the row's place in the
    block: a block goes through ``rows`` and ``linalg._objectives``, which
    take a single row (``kic_score``) by the same calls, so a value depends
    neither on the batch nor on the CPU count. A batch of m rows on a
    factor of order n >= ``_SPLIT_MIN_N`` with m n^2 >= ``_SPLIT_MIN_WORK`` is
    split into contiguous chunks, one per CPU the process may run on, each
    scored by ``_score_rows`` on its own thread while the solves release the
    GIL; ``rows`` runs there too, so it calls only private functions.
    """
    m = Q.shape[0]
    size = factorization.n
    values = np.empty(m)
    workers = 1
    if size >= _SPLIT_MIN_N and m * size**2 >= _SPLIT_MIN_WORK:
        workers = min(_cpu_count(), m)
    if workers < 2:
        _score_rows(factorization, rows, Q, values, 0, m)
    else:
        bounds = [m * k // workers for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # A copied context carries the caller's np.errstate into the thread.
            futures = [pool.submit(contextvars.copy_context().run, _score_rows,
                                   factorization, rows, Q, values, start, stop)
                       for start, stop in zip(bounds, bounds[1:])]
            for future in futures:
                future.result()
    return values


def _score_rows(factorization: SpdFactorization, rows, Q: np.ndarray, values: np.ndarray,
                start: int, stop: int) -> None:
    """Write the objective value of rows start..stop-1 of Q, in blocks of at
    most ``_BLOCK_VALUES`` kernel values or features (at least one row):
    ``rows`` once per block, then the block's panel solves."""
    step = max(1, _BLOCK_VALUES // factorization.n)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        values[lo:hi] = _objectives(factorization, *rows(Q[lo:hi]))


def _rows(model: ChristoffelModel, Q: np.ndarray) -> tuple:
    """The right-hand sides and self-kernels of a checked row (1-D Q) or
    block (2-D): kernel rows scaled by 1/sqrt(n), or features and 0.0."""
    if model.feature_map is not None:
        return _features(model._basis, Q), 0.0
    g, gamma = _kernel_rows(model.kernel, model._basis, Q)
    g /= math.sqrt(model.n)
    return g, gamma


def _check_features(model: ChristoffelModel, p: int) -> None:
    if p != model.p:
        raise ValueError(f"dimension mismatch: model expects {model.p} features, got {p}")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def kic_score(model: ChristoffelModel, x) -> float:
    """Kernelized score at one query point, as a Python float.

    x is checked once and scored on the calling thread by the two calls
    ``kic_scores`` makes per block, ``_rows`` and ``_objectives``, on the
    1-D row, and finished by the same rule: the result matches the row's
    entry of ``kic_scores`` bit for bit, whatever the batch.
    """
    x = as_vector(x, "x")
    _check_features(model, x.shape[0])
    value = _objectives(model.factorization, *_rows(model, x))
    return float(value * -model.rho if model.feature_map is not None else value)


def kic_scores_all(X, kernel: KernelSpec, rho: float) -> np.ndarray:
    """Fit on X and score every training row.

    Equal to ``kic_scores(fit_kic(X, kernel, rho), X)``, so it matches
    per-point ``kic_score`` on the fitted model bit for bit.
    """
    model = fit_kic(X, kernel, rho)
    return kic_scores(model, model.training)


def kic2_scores(X, kernel: KernelSpec, C: float, alpha: float = 0.6) -> np.ndarray:
    """Two-stage filtered kernelized scores.

    Stage one fits on all of X with rho from the C rule and scores every
    row. Stage two, ``_kic2_stage_two``, which a caller holding the C-rule
    KIC scores of X can run on its own, fits on their ceil(alpha * n) lowest
    rows (ties by position), again by the C rule, and scores every row of X.
    """
    X = as_matrix(X)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return _kic2_stage_two(X, kernel, C, alpha, kic_scores(fit_kic(X, kernel, C=C), X))


def _kic2_stage_two(
    X: np.ndarray, kernel: KernelSpec, C: float, alpha: float, stage1: np.ndarray
) -> np.ndarray:
    """Refit on the ceil(alpha * n) rows of X with the lowest ``stage1`` scores
    and score every row of X."""
    keep = lowest_score_indices(stage1, alpha)
    return kic_scores(fit_kic(X[keep], kernel, C=C), X)


def grid_scores(
    model: ChristoffelModel,
    x_range: tuple[float, float, int],
    y_range: tuple[float, float, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the fitted scorer on a regular 2-d grid.

    Returns (xs, ys, scores) with scores[i, j] the score at (xs[j], ys[i]),
    the layout contour plotters expect.
    """
    if model.p != 2:
        raise ValueError("grid scoring requires a model trained on 2-feature data")
    xs, ys = (np.linspace(*axis) for axis in _grid_range(x_range, y_range))
    gx, gy = np.meshgrid(xs, ys)
    scores = kic_scores(model, np.column_stack([gx.ravel(), gy.ravel()]))
    return xs, ys, scores.reshape(ys.shape[0], xs.shape[0])


def _grid_range(x_range, y_range, names=("x_range", "y_range")) -> list[tuple[float, float, int]]:
    """The checked (lo, hi, steps) of both grid axes, their ``np.linspace``
    arguments; a grid past ``_GRID_MAX_BYTES`` is a MemoryError."""
    axes = []
    for (lo, hi, steps), name in zip((x_range, y_range), names):
        if not (math.isfinite(steps) and steps == int(steps) and steps >= 2):
            raise ValueError(f"{name} must request a whole number of at least 2 steps, got {steps!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"{name} must have finite bounds with hi > lo")
        axes.append((float(lo), float(hi), int(steps)))
    size = 16 * axes[0][2] * axes[1][2]
    if size > _GRID_MAX_BYTES:
        raise MemoryError(f"Unable to allocate {size} bytes for a {axes[0][2]} x {axes[1][2]} "
                          f"grid's coordinates; the limit is {_GRID_MAX_BYTES} bytes")
    return axes
