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

import math
from dataclasses import dataclass, field

import numpy as np

from ._validate import as_matrix, as_vector
from .baselines import lowest_score_indices
from .kernels import KernelSpec, _kernel_row, _row_basis, gram_matrix
from .linalg import (
    NotPositiveDefiniteError,
    SpdFactorization,
    _clamp_objective,
    _forward,
    _objective,
    frobenius_norm,
    spd_factor,
)

# Beyond this feature dimension a dense s x s solve is hopeless on desk
# hardware; fail fast instead of exhausting memory.
DEFAULT_FEATURE_DIM_LIMIT = 20000


class FeatureDimensionError(ValueError):
    """The monomial feature dimension binomial(p + d, d) exceeds the limit."""


class MomentMatrixError(ValueError):
    """The empirical moment matrix is not positive definite."""


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


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


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
    exponents = []
    coefficients = []
    d_fact = math.factorial(d)
    for total in range(d + 1):
        tail_fact = math.factorial(d - total)
        for alpha in _compositions(total, p):
            denom = tail_fact
            for a in alpha:
                denom *= math.factorial(a)
            exponents.append(alpha)
            coefficients.append(math.sqrt(d_fact / denom))
    assert len(exponents) == s
    return FeatureMap(
        exponents=np.array(exponents, dtype=np.int64),
        coefficients=np.array(coefficients, dtype=float),
        degree=d,
    )


def apply_feature_map(fm: FeatureMap, x) -> np.ndarray:
    """Evaluate the scaled monomial vector v(x): ``feature_matrix`` on one row."""
    x = as_vector(x, "x")
    return feature_matrix(fm, x[None, :])[0]


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
    phi = feature_matrix(fm, X)
    try:
        factor = spd_factor(phi.T @ phi / X.shape[0], jitter_scales=())
    except NotPositiveDefiniteError as exc:
        raise MomentMatrixError(
            "moment matrix not positive definite; the data may lie on a "
            f"degree-{fm.degree} variety (need more points or a lower degree)"
        ) from exc
    Z = _forward(factor, feature_matrix(fm, queries).T)
    return np.einsum("sm,sm->m", Z, Z)


def ic_scores(
    X, queries, d: int, dim_limit: int = DEFAULT_FEATURE_DIM_LIMIT
) -> np.ndarray:
    """Moment-matrix scores q(x) = v(x)^T M^{-1} v(x) for each query row.

    M = L L^T is factorized without jitter, since masking a singular M would
    silently change every score; each score is ||L^{-1} v(x)||^2, from one
    forward substitution for all queries.

    Raises:
        FeatureDimensionError: if the monomial basis exceeds ``dim_limit``.
        MomentMatrixError: if M is singular, as with fewer distinct rows than monomials.
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
    records the effective value.
    """
    X = as_matrix(X)
    if rho is not None and not rho > 0:
        raise ValueError("rho must be positive")
    n = X.shape[0]
    G_scaled = gram_matrix(kernel, X) / n
    if rho is None:
        rho = default_rho(G_scaled, C)
    factor = spd_factor(G_scaled + rho * np.eye(n))
    return ChristoffelModel(kernel=kernel, rho=float(rho), training=X, factorization=factor)


def kic_scores(model: ChristoffelModel, Q) -> np.ndarray:
    """Kernelized scores phi(rho) = gamma - g^T (rho I + G)^{-1} g, one per row of Q.

    g is scaled by 1/sqrt(n) and G by 1/n (the moment scaling); gamma is the
    raw self-kernel value. With the stored factor L L^T = rho I + G each
    value is gamma - ||L^{-1} g||^2: one matrix-vector product for the
    kernel row and one BLAS triangular solve per row. The values are
    clamped at zero together at the end. Q is checked here, each kernel row
    for finiteness once, and the training rows were checked by ``fit_kic``.

    Rows are solved one at a time, and each kernel row is computed on its
    own: a batched solve or a matrix product rounds a column differently
    depending on its position in the block, and a row's score must not
    depend on the rows scored with it.
    """
    Q = as_matrix(Q, "Q")
    if Q.shape[1] != model.p:
        raise ValueError(
            f"dimension mismatch: model expects {model.p} features, got {Q.shape[1]}"
        )
    scale = math.sqrt(model.n)
    values = np.empty(Q.shape[0])
    gammas = np.empty(Q.shape[0])
    for i, x in enumerate(Q):
        g, gammas[i] = _kernel_row(model.kernel, model._basis, x)
        values[i] = _objective(model.factorization, g / scale, gammas[i])
    return _clamp_objective(values, gammas)


def kic_score(model: ChristoffelModel, x) -> float:
    """Kernelized score at one query point: ``kic_scores`` on a single row."""
    x = as_vector(x, "x")
    return float(kic_scores(model, x[None, :])[0])


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
    Gram matrix.
    """
    X = as_matrix(X)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    stage1 = kic_scores(fit_kic(X, kernel, C=C), X)
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
    xs = _grid_axis(x_range, "x_range")
    ys = _grid_axis(y_range, "y_range")
    gx, gy = np.meshgrid(xs, ys)
    scores = kic_scores(model, np.column_stack([gx.ravel(), gy.ravel()]))
    return xs, ys, scores.reshape(ys.shape[0], xs.shape[0])


def _grid_axis(rng: tuple[float, float, int], name: str) -> np.ndarray:
    lo, hi, steps = rng
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"{name} must request at least 2 steps")
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"{name} must have finite bounds with hi > lo")
    return np.linspace(float(lo), float(hi), steps)
