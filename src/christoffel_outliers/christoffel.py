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
from .kernels import KernelSpec, _kernel_row, _kernel_rows, _row_basis, gram_matrix
from .linalg import (
    NotPositiveDefiniteError,
    SpdFactorization,
    _clamp_objective,
    _forward,
    _objective,
    _objectives,
    frobenius_norm,
    spd_factor,
)

# A batch of m rows is split over threads only on a fit of at least
# _SPLIT_MIN_N rows, and only when m n^2, which sets the batch's solve time,
# reaches _SPLIT_MIN_WORK. Split time over serial time on 2 cores with 1 BLAS
# thread, p=20, medians of 9 alternating runs on a noisy host (polynomial /
# RBF): for 1000 rows 0.77-1.10 / 0.84-0.99 at n=300, 0.73-0.91 / 0.75-0.84
# at n=400, 0.67 / 0.85 at n=500, 0.70 / 0.54 at n=600 and 0.61 / 0.55 at
# n=1000; at n=400, 1.74 / 1.85 for 32 rows, 1.10 / 1.19 for 64, 0.94 / 1.33
# for 128 and 0.83 / 1.14 for 256; at n=1000, 0.79 / 0.79 for 32 rows,
# 0.69 / 0.63 for 64 and 0.65 / 0.58 for 128. Below n=400 the gain is small
# and unsteady; below about 2^25 / n^2 rows, starting the threads costs
# about what splitting saves.
_SPLIT_MIN_N = 400
_SPLIT_MIN_WORK = 2**25

# Kernel values per block of a batch, about 256 KB: 64 rows at n=512, 32 at
# n=1000. A block makes one stacked kernel product and one stacked dot
# product, against a trsv per row. Bounding its values, not its rows, keeps
# each thread's two or three block-sized temporaries small at any n: with
# 64-row blocks the `table` benchmark peaked 1.4 MB above the per-row loop,
# with this bound it peaks level with it, in the same wall time.
_BLOCK_VALUES = 2**15

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
    divided by n.
    """

    kernel: KernelSpec
    rho: float
    training: np.ndarray
    factorization: SpdFactorization
    # What a kernel row needs of the training rows (``kernels._row_basis``):
    # for RBF the centred rows, their mean and their squared norms.
    _basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_basis", _row_basis(self.kernel, self.training))

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
        FeatureDimensionError: if binomial(p + d, d) exceeds ``dim_limit``.
    """
    if p < 1 or d < 1:
        raise ValueError("p and d must be positive integers")
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
    # A monomial has at most min(d, p) nonzero exponents. Put them first, in
    # coordinate order, so that the product of their powers takes the same
    # steps as a product over all p coordinates; x ** 0 = 1 pads the rest.
    coords = np.argsort(fm.exponents == 0, axis=1, kind="stable")[:, : fm.degree]
    powers = np.take_along_axis(fm.exponents, coords, axis=1)
    out = np.ones((X.shape[0], fm.dimension))
    for c, a in zip(coords.T, powers.T):
        out *= X[:, c] ** a
    return out * fm.coefficients


def _ic_scores_from_map(fm: FeatureMap, X: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # rank(M) is at most the number of distinct rows of X, so fewer distinct
    # rows than monomials make M singular, however Cholesky rounds.
    distinct = np.unique(X, axis=0).shape[0]
    if distinct < fm.dimension:
        raise MomentMatrixError(
            f"moment matrix not positive definite: {distinct} distinct rows, "
            f"fewer than the {fm.dimension} monomials of degree {fm.degree}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        phi = feature_matrix(fm, X)
        M = phi.T @ phi / X.shape[0]
    if not np.isfinite(M).all():
        raise MomentMatrixError(
            f"moment matrix overflows double precision at degree {fm.degree}; "
            "use a lower degree or normalized data"
        )
    try:
        factor = spd_factor(M)
    except NotPositiveDefiniteError as exc:
        raise MomentMatrixError(
            "moment matrix not positive definite; the data may lie on a "
            f"degree-{fm.degree} variety (need more points or a lower degree)"
        ) from exc
    Z = _forward(factor, (phi if queries is X else feature_matrix(fm, queries)).T)
    return np.einsum("sm,sm->m", Z, Z)


def ic_scores(
    X, queries, d: int, dim_limit: int = DEFAULT_FEATURE_DIM_LIMIT
) -> np.ndarray:
    """Moment-matrix scores q(x) = v(x)^T M^{-1} v(x) for each query row.

    M = L L^T is factorized as it is; each score is ||L^{-1} v(x)||^2, from
    one forward substitution for all queries. When ``queries is X`` the rows
    are mapped to features once, for M and for the substitution.

    Raises:
        FeatureDimensionError: if the monomial basis exceeds ``dim_limit``.
        MomentMatrixError: if M overflows or is singular, as with fewer distinct
            rows than monomials.
    """
    same = queries is X
    X = as_matrix(X)
    queries = X if same else as_matrix(queries, "queries")
    if X.shape[1] != queries.shape[1]:
        raise ValueError("X and queries must have the same feature count")
    fm = build_feature_map(X.shape[1], d, dim_limit=dim_limit)
    return _ic_scores_from_map(fm, X, queries)


def default_rho(G_scaled, C: float) -> float:
    """Regularization rule rho = ||G_scaled||_F / (C sqrt(n)).

    ``G_scaled`` is the Gram matrix already divided by n, matching how the
    fitted model scales it.
    """
    if not C > 0:
        raise ValueError("C must be positive")
    G_scaled = np.asarray(G_scaled, dtype=float)
    if G_scaled.ndim != 2 or G_scaled.shape[0] != G_scaled.shape[1]:
        raise ValueError("G_scaled must be a square matrix")
    norm = frobenius_norm(G_scaled)
    if norm == 0.0:
        raise ValueError("degenerate Gram matrix: Frobenius norm is zero")
    return norm / (C * math.sqrt(G_scaled.shape[0]))


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

    The Gram matrix is built once. When ``rho`` is None it comes from
    ``default_rho`` on that same scaled Gram with divisor ``C``; the model
    records the effective value, at which the factor is exact.

    Raises:
        GramOverflowError: if a Gram matrix entry overflows.
        RhoRangeError: if the effective rho is not positive and finite.
        NotPositiveDefiniteError: if rho I + G/n is not positive definite.
    """
    X = as_matrix(X)
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        A = gram_matrix(kernel, X)
    if not np.isfinite(A).all():
        at, fix = (f" at degree {kernel.degree}", "a lower degree or ") if kernel.degree else ("", "")
        raise GramOverflowError(
            f"{kernel.family} Gram matrix overflows double precision{at}; use {fix}normalized data"
        )
    # Scale the fresh Gram and add rho to its diagonal in place: no n x n temporaries.
    A /= n
    origin = "given"
    if rho is None:
        rho, origin = default_rho(A, C), f"from C = {C:g}"
    if not 0 < rho < math.inf:
        raise RhoRangeError(f"rho must be positive and finite, got rho = {rho:g} ({origin})")
    A.flat[:: n + 1] += rho
    try:
        factor = spd_factor(A)
    except NotPositiveDefiniteError as exc:
        A.flat[:: n + 1] -= rho
        raise NotPositiveDefiniteError(
            f"rho I + G/n is not positive definite at rho = {rho:g} "
            f"(||G/n||_F = {frobenius_norm(A):g}); use a larger rho or a smaller C"
        ) from exc
    return ChristoffelModel(kernel=kernel, rho=float(rho), training=X, factorization=factor)


def kic_scores(model: ChristoffelModel, Q) -> np.ndarray:
    """Kernelized scores phi(rho) = gamma - g^T (rho I + G)^{-1} g, one per row of Q.

    g is scaled by 1/sqrt(n) and G by 1/n (the moment scaling); gamma is the
    raw self-kernel value. With the stored factor L L^T = rho I + G each
    value is gamma - ||L^{-1} g||^2: one matrix-vector product for the
    kernel row and one BLAS triangular solve per row. The values are
    clamped at zero in row order at the end, on the calling thread. Q is
    checked here, a kernel row for finiteness only when its solve comes out
    non-finite, and the training rows were checked by ``fit_kic``.

    Each row is solved on its own, and its kernel row and self inner
    product are each one BLAS matrix-vector or dot product of its own: a
    batched solve or a matrix-matrix product rounds a column differently
    depending on its position in the block, and a row's score must not
    depend on the rows scored with it. The rows go in blocks of about
    ``_BLOCK_VALUES`` kernel values, so the numpy work around the solves runs
    once per block, not once per row, with one stacked product making the
    per-row calls. A batch of m rows on a model with n >= ``_SPLIT_MIN_N``
    training rows and m n^2 >= ``_SPLIT_MIN_WORK`` is split into contiguous
    chunks, one per CPU the process may run on, each scored by the same block
    loop on its own thread. The solves and the stacked products release the GIL, so the
    chunks run at the same time. A score therefore depends neither on the
    batch nor on the CPU count, and equals ``kic_score`` at its row.
    """
    Q = as_matrix(Q, "Q")
    _check_features(model, Q.shape[1])
    m = Q.shape[0]
    values = np.empty(m)
    gammas = np.empty(m)
    workers = 1
    if model.n >= _SPLIT_MIN_N and m * model.n**2 >= _SPLIT_MIN_WORK:
        workers = min(_cpu_count(), m)
    if workers < 2:
        _score_rows(model, Q, values, gammas, 0, m)
    else:
        bounds = [m * k // workers for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # A copied context carries the caller's np.errstate into the thread.
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    _score_rows, model, Q, values, gammas, start, stop,
                )
                for start, stop in zip(bounds, bounds[1:])
            ]
            for future in futures:
                future.result()
    return np.fromiter(map(_clamp_objective, values.tolist(), gammas.tolist()), float, count=m)


def _score_rows(
    model: ChristoffelModel,
    Q: np.ndarray,
    values: np.ndarray,
    gammas: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Write the unclamped value and the self-kernel of rows start..stop-1 of Q.

    The rows go in blocks of at most ``_BLOCK_VALUES`` kernel values (at
    least one row): one stacked kernel product per block, the elementwise
    steps once over it, then one trsv per row, so each row keeps the bits of
    a one-row ``kic_score`` call.
    """
    scale = math.sqrt(model.n)
    step = max(1, _BLOCK_VALUES // model.n)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        G, gammas[lo:hi] = _kernel_rows(model.kernel, model._basis, Q[lo:hi])
        G /= scale
        # The block form, not _objective per row: scoring a batch of 1000 rows
        # (`table`'s training rows, KIC2's second stage) took 5-26% longer row
        # by row at n=1000 and n=600.
        values[lo:hi] = _objectives(model.factorization, G, gammas[lo:hi])


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
    """Kernelized score at one query point.

    x is checked once and scored on the calling thread by the one-row forms
    of the steps ``kic_scores`` takes per block: a kernel row, scaled by
    1/sqrt(n) in place, and one triangular solve in place on it. The value
    is clamped by the same rule, so the result matches the row's entry of
    ``kic_scores`` bit for bit, whatever the batch.
    """
    x = as_vector(x, "x")
    _check_features(model, x.shape[0])
    # The one-row forms, not a one-row block: a single query on the
    # `queries-2d` fit (n=500, p=2) took 6-10% longer through _kernel_rows or
    # _objectives, slower in 33-38 of 40 blocks of 1000 queries.
    g, gamma = _kernel_row(model.kernel, model._basis, x)
    g /= math.sqrt(model.n)
    return _clamp_objective(_objective(model.factorization, g, gamma), gamma)


def kic_scores_all(X, kernel: KernelSpec, rho: float) -> np.ndarray:
    """Fit on X and score every training row.

    Equal to ``kic_scores(fit_kic(X, kernel, rho), X)``, so it matches
    per-point ``kic_score`` on the fitted model bit for bit.
    """
    model = fit_kic(X, kernel, rho)
    return kic_scores(model, model.training)


def kic2_scores(X, kernel: KernelSpec, C: float, alpha: float = 0.6) -> np.ndarray:
    """Two-stage filtered kernelized scores.

    Stage one fits on all of X with rho from ``default_rho`` and scores
    every row. The ceil(alpha * n) lowest-scoring rows (ties by position)
    form the filtered set; stage two fits on that set, again with the
    default rho rule, and scores every original row. Each stage builds one
    Gram matrix. Stage two is ``_kic2_stage_two``, which a caller holding
    the stage-one scores already (the plain C-rule KIC scores of X) can run
    on its own.
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
    xs = np.linspace(*_grid_range(x_range, "x_range"))
    ys = np.linspace(*_grid_range(y_range, "y_range"))
    gx, gy = np.meshgrid(xs, ys)
    scores = kic_scores(model, np.column_stack([gx.ravel(), gy.ravel()]))
    return xs, ys, scores.reshape(ys.shape[0], xs.shape[0])


def _grid_range(rng: tuple[float, float, int], name: str) -> tuple[float, float, int]:
    """The checked (lo, hi, steps) of a grid axis, its ``np.linspace`` arguments."""
    lo, hi, steps = rng
    if not (math.isfinite(steps) and steps == int(steps) and steps >= 2):
        raise ValueError(f"{name} must request a whole number of at least 2 steps, got {steps!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"{name} must have finite bounds with hi > lo")
    return float(lo), float(hi), int(steps)
