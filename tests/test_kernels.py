import numpy as np
import pytest

from christoffel_outliers import KernelSpec, build_feature_map, feature_matrix, gram_matrix
from christoffel_outliers.kernels import MAX_POLY_DEGREE, cross_vector

from helpers import explicit_phi  # noqa: F401  (sibling import path check)
from helpers import triu_mirror


# ---------------------------------------------------------------------------
# KernelSpec validation
# ---------------------------------------------------------------------------


def test_polynomial_spec_requires_degree():
    with pytest.raises(ValueError):
        KernelSpec(family="polynomial")
    with pytest.raises(ValueError):
        KernelSpec.polynomial(0)
    with pytest.raises(ValueError):
        KernelSpec.polynomial(MAX_POLY_DEGREE + 1)
    with pytest.raises(ValueError):
        KernelSpec.polynomial(2.5)
    for degree in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="requires an integer degree >= 1"):
            KernelSpec.polynomial(degree)
    assert type(KernelSpec.polynomial(2.0).degree) is int


def test_rbf_spec_requires_positive_lengthscale():
    with pytest.raises(ValueError):
        KernelSpec.rbf(0.0)
    with pytest.raises(ValueError):
        KernelSpec.rbf(-1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="rbf", lengthscale=float("nan"))
    # 2 sigma^2 underflows to 0, 1 / (2 sigma^2) overflows, or 2 sigma^2 overflows.
    for sigma in (1e-300, 1e-160, 1e200):
        with pytest.raises(ValueError, match="out of range"):
            KernelSpec.rbf(sigma)
    assert KernelSpec.rbf(1e-150).lengthscale == 1e-150


def test_mixed_parameters_rejected():
    with pytest.raises(ValueError):
        KernelSpec(family="polynomial", degree=2, lengthscale=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="rbf", degree=2, lengthscale=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="linear")


# ---------------------------------------------------------------------------
# cross_vector on one training row: the kernel on a single pair of points
# ---------------------------------------------------------------------------


def test_poly_eval_at_origin():
    spec = KernelSpec.polynomial(2)
    assert cross_vector(spec, [[0.0]], [0.0])[0][0] == 1.0


def test_rbf_eval_same_point_is_one():
    for sigma in (0.1, 1.0, 17.0):
        spec = KernelSpec.rbf(sigma)
        x = np.array([1.0, -2.0, 0.5])
        assert cross_vector(spec, [x], x)[0][0] == 1.0


def test_poly_eval_hand_case():
    # (1 + (3 - 2))^2 = 4
    spec = KernelSpec.polynomial(2)
    value = cross_vector(spec, [[1.0, 2.0]], [3.0, -1.0])[0][0]
    assert value == pytest.approx(4.0, rel=1e-14)
    # cross-check against the explicit feature-map dot product
    fm = build_feature_map(2, 2)
    vx = feature_matrix(fm, [[1.0, 2.0]])[0]
    vy = feature_matrix(fm, [[3.0, -1.0]])[0]
    assert value == pytest.approx(float(vx @ vy), rel=1e-12)


def test_eval_dimension_mismatch():
    spec = KernelSpec.polynomial(2)
    with pytest.raises(ValueError, match="mismatch"):
        cross_vector(spec, [[1.0, 2.0]], [1.0])


def test_eval_rejects_non_finite():
    spec = KernelSpec.rbf(1.0)
    with pytest.raises(ValueError):
        cross_vector(spec, [[np.nan]], [0.0])
    with pytest.raises(ValueError):
        cross_vector(spec, [[0.0]], [np.inf])


def test_eval_symmetry_is_exact():
    rng = np.random.default_rng(0)
    specs = [KernelSpec.polynomial(3), KernelSpec.rbf(0.7)]
    for _ in range(200):
        p = int(rng.integers(1, 6))
        x = rng.normal(size=p)
        y = rng.normal(size=p)
        for spec in specs:
            assert cross_vector(spec, [x], y)[0][0] == cross_vector(spec, [y], x)[0][0]


def test_rbf_bounds():
    rng = np.random.default_rng(1)
    spec = KernelSpec.rbf(1.3)
    for _ in range(100):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        value = cross_vector(spec, [x], y)[0][0]
        assert 0.0 < value <= 1.0
        if not np.array_equal(x, y):
            assert value < 1.0


def test_kernel_trick_identity():
    # |poly kernel - v(x).v(y)| <= 1e-10 * max(1, |value|)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=p)
        y = rng.normal(size=p)
        fm = build_feature_map(p, d)
        direct = cross_vector(KernelSpec.polynomial(d), [x], y)[0][0]
        mapped = float(feature_matrix(fm, [x])[0] @ feature_matrix(fm, [y])[0])
        assert abs(direct - mapped) <= 1e-10 * max(1.0, abs(mapped))


# ---------------------------------------------------------------------------
# gram_matrix
# ---------------------------------------------------------------------------


def test_gram_poly_identity_rows():
    spec = KernelSpec.polynomial(1)
    G = gram_matrix(spec, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(G, [[2.0, 1.0], [1.0, 2.0]])


def test_gram_rbf_diagonal_exactly_one():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(7, 4))
    G = gram_matrix(KernelSpec.rbf(0.9), X)
    assert np.array_equal(np.diag(G), np.ones(7))
    assert np.all(G > 0.0)
    assert np.all(G <= 1.0)


def test_gram_is_exactly_symmetric():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 3))
    for spec in (KernelSpec.polynomial(2), KernelSpec.rbf(1.1)):
        G = gram_matrix(spec, X)
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("spec", [KernelSpec.polynomial(2), KernelSpec.polynomial(3),
                                  KernelSpec.rbf(1.3)], ids=["poly2", "poly3", "rbf"])
@pytest.mark.parametrize("n, p", [(1, 2), (2, 1), (37, 5), (300, 40)])
def test_gram_mirrored_in_place_matches_triu_form(spec, n, p):
    # The product's own mirrored triangle leaves the Gram equal, bit for
    # bit, to the triu form of itself.
    X = np.random.default_rng(n).normal(size=(n, p))
    G = gram_matrix(spec, X)
    assert G.tobytes() == triu_mirror(G).tobytes()
    assert np.array_equal(G, G.T)


def test_gram_matches_feature_map_oracle():
    # Raw Gram equals n * (V^T V) with V the 1/sqrt(n)-scaled feature matrix.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 3))
    G = gram_matrix(KernelSpec.polynomial(2), X)
    from christoffel_outliers import feature_matrix

    fm = build_feature_map(3, 2)
    V = feature_matrix(fm, X).T / np.sqrt(8)
    assert np.allclose(G, 8 * (V.T @ V), rtol=1e-10, atol=1e-12)


def test_gram_psd():
    rng = np.random.default_rng(6)
    for spec in (KernelSpec.polynomial(3), KernelSpec.rbf(0.6)):
        for _ in range(10):
            n = int(rng.integers(2, 11))
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            G = gram_matrix(spec, X)
            min_eig = float(np.linalg.eigvalsh(G).min())
            assert min_eig >= -1e-8 * float(np.linalg.norm(G, "fro"))


# ---------------------------------------------------------------------------
# cross_vector
# ---------------------------------------------------------------------------


def test_cross_at_training_row_matches_gram_diagonal():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 3))
    for spec in (KernelSpec.polynomial(2), KernelSpec.rbf(1.0)):
        G = gram_matrix(spec, X)
        k = 4
        g, _ = cross_vector(spec, X, X[k])
        assert g[k] == pytest.approx(G[k, k], rel=1e-12)


def test_cross_rbf_gamma_is_one():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 2))
    _, gamma = cross_vector(KernelSpec.rbf(2.0), X, rng.normal(size=2))
    assert gamma == 1.0


def test_cross_poly_hand_case():
    g, gamma = cross_vector(KernelSpec.polynomial(3), [[1.0]], [1.0])
    assert np.array_equal(g, [8.0])
    assert gamma == 8.0


def test_cross_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cross_vector(KernelSpec.polynomial(1), [[1.0, 2.0]], [1.0])

