import copy
import ctypes
import gc
import itertools
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from christoffel_outliers import (
    ChristoffelModel,
    FeatureDimensionError,
    GramOverflowError,
    KernelSpec,
    MomentMatrixError,
    NotPositiveDefiniteError,
    SpdFactorization,
    build_feature_map,
    default_rho,
    default_sigma,
    feature_matrix,
    fit_kic,
    gram_matrix,
    grid_scores,
    ic_scores,
    kic2_scores,
    kic_score,
    kic_scores,
    lowest_score_indices,
)
from christoffel_outliers import christoffel, kernels, linalg
from christoffel_outliers.christoffel import FeatureMap, _ic_scores_from_map, kic_scores_all
from christoffel_outliers.kernels import cross_vector

from helpers import cdist_rbf, cdist_rbf_scores, explicit_phi, power_feature_matrix


# ---------------------------------------------------------------------------
# feature map
# ---------------------------------------------------------------------------


def test_feature_dimension_p2_d2():
    fm = build_feature_map(2, 2)
    assert fm.dimension == 6


def test_feature_map_p1_d2_coefficients():
    # (1 + x y)^2 = 1 + 2 x y + x^2 y^2, so weights are sqrt(1, 2, 1).
    fm = build_feature_map(1, 2)
    assert np.array_equal(fm.exponents, [[0], [1], [2]])
    assert np.allclose(fm.coefficients, [1.0, np.sqrt(2.0), 1.0], rtol=1e-15)


def test_feature_map_graded_lex_order():
    fm = build_feature_map(2, 2)
    expected = [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]
    assert np.array_equal(fm.exponents, expected)


def _basis_coefficient(alpha, d):
    denom = math.factorial(d - sum(alpha))
    for a in alpha:
        denom *= math.factorial(a)
    return math.sqrt(math.factorial(d) / denom)


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_feature_map_matches_an_exhaustive_oracle(p, d):
    # Every exponent vector in the (d + 1)^p box with |alpha| <= d, sorted by
    # total degree then lexicographically, with its sqrt multinomial weight.
    alphas = sorted(
        (a for a in itertools.product(range(d + 1), repeat=p) if sum(a) <= d),
        key=lambda a: (sum(a), a),
    )
    fm = build_feature_map(p, d)
    assert np.array_equal(fm.exponents, np.array(alphas, dtype=np.int64))
    assert fm.exponents.dtype == np.int64
    expected = np.array([_basis_coefficient(a, d) for a in alphas], dtype=float)
    assert np.array_equal(fm.coefficients, expected)
    assert fm.coefficients.dtype == np.float64


@pytest.mark.parametrize("p, d", [(20, 2), (50, 2), (8, 4)])
def test_feature_map_is_the_graded_lex_basis(p, d):
    E = build_feature_map(p, d).exponents
    assert E.shape == (math.comb(p + d, d), p)
    assert E.min() >= 0 and E.sum(axis=1).max() <= d
    assert len(np.unique(E, axis=0)) == len(E)
    keys = [(sum(a), a) for a in map(tuple, E.tolist())]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_feature_map_dimension_limit():
    with pytest.raises(FeatureDimensionError, match="feature dimension too large"):
        build_feature_map(784, 2)
    # 308505-dimensional basis for 784 features at degree 2
    assert math.comb(786, 2) == 308505


def test_integral_float_degree_is_the_integer_degree():
    # A degree of 2.0 builds the map and the scores of degree 2.
    X = np.random.default_rng(31).normal(size=(40, 2))
    fm = build_feature_map(2, 2.0)
    assert type(fm.degree) is int
    assert fm.coefficients.tobytes() == build_feature_map(2, 2).coefficients.tobytes()
    assert ic_scores(X, X, 2.0).tobytes() == ic_scores(X, X, 2).tobytes()


def test_feature_matrix_matches_power_reference():
    # The library skips the x ** 0 factors of the reference product. Each
    # entry takes at most d + 1 roundings on either side, so a change in
    # their order stays within 4 (d + 1) eps.
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    for p in range(1, 6):
        for d in range(1, 5):
            X = rng.normal(size=(12, p))
            fm = build_feature_map(p, d)
            perm = rng.permutation(fm.dimension)
            shuffled = FeatureMap(
                exponents=fm.exponents[perm], coefficients=fm.coefficients[perm], degree=d
            )
            for m in (fm, shuffled):
                ref = power_feature_matrix(m, X)
                got = feature_matrix(m, X)
                assert np.all(np.abs(got - ref) <= 4 * (d + 1) * eps * np.abs(ref))


def test_apply_at_zero():
    fm = build_feature_map(3, 2)
    v = feature_matrix(fm, [[0.0, 0.0, 0.0]])[0]
    expected = np.zeros(fm.dimension)
    expected[0] = 1.0
    assert np.array_equal(v, expected)


def test_apply_p1_d2_hand_case():
    fm = build_feature_map(1, 2)
    v = feature_matrix(fm, [[2.0]])[0]
    assert np.allclose(v, [1.0, 2.0 * np.sqrt(2.0), 4.0], rtol=1e-15)


def test_apply_dot_product_matches_kernel():
    rng = np.random.default_rng(0)
    fm = build_feature_map(3, 2)
    spec = KernelSpec.polynomial(2)
    for _ in range(50):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        lhs = float(feature_matrix(fm, [x])[0] @ feature_matrix(fm, [y])[0])
        rhs = cross_vector(spec, [x], y)[0][0]
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_apply_dimension_mismatch():
    fm = build_feature_map(2, 2)
    with pytest.raises(ValueError, match="mismatch"):
        feature_matrix(fm, [[1.0]])


# ---------------------------------------------------------------------------
# ic_scores
# ---------------------------------------------------------------------------


def test_ic_degenerate_data_raises_before_jitter_masks_it():
    # A single point at the origin has a singular moment matrix; the error
    # path must fire rather than jitter silently fixing it.
    with pytest.raises(MomentMatrixError, match="not positive definite"):
        ic_scores([[0.0]], [[0.0]], 1)


@pytest.mark.parametrize(
    "distinct, repeats, p, d",
    [(5, 1, 2, 2), (9, 1, 3, 2), (5, 4, 2, 2), (3, 5, 1, 3)],
)
def test_ic_rejects_fewer_distinct_rows_than_monomials(distinct, repeats, p, d):
    # rank(M) <= distinct rows < binomial(p + d, d): M is singular, even when
    # rounding lets its Cholesky factorization succeed. With repeats the
    # row count n reaches the basis size; the distinct count does not.
    X = np.repeat(np.random.default_rng(2).normal(size=(distinct, p)), repeats, axis=0)
    with pytest.raises(MomentMatrixError, match="not positive definite"):
        ic_scores(X, X, d)


def test_ic_on_a_variety_fails_in_the_factorization():
    # Ten distinct rows on the line y = x outnumber the three monomials of
    # degree 1, so only the Cholesky factorization finds M singular.
    t = np.arange(10.0)
    X = np.column_stack([t, t])
    with pytest.raises(MomentMatrixError, match="degree-1 variety") as raised:
        ic_scores(X, X, 1)
    assert isinstance(raised.value.__cause__, NotPositiveDefiniteError)


def test_ic_scores_make_one_triangular_solve_per_row(monkeypatch):
    # IC takes the batch routine of kic_scores: one s-sized trsv per query on
    # the stored factor of M, and no block solve through spd_solve.
    calls = []
    real_trsv = linalg._DTRSV

    def counted(*args):
        calls.append(args[3].value)
        return real_trsv(*args)

    def blocked(*args):
        raise AssertionError("spd_solve called")

    monkeypatch.setattr(linalg, "_DTRSV", counted)
    monkeypatch.setattr(linalg, "spd_solve", blocked)
    rng = np.random.default_rng(24)
    scores = ic_scores(rng.normal(size=(30, 2)), rng.normal(size=(9, 2)), 2)
    assert calls == [6] * 9
    assert scores.shape == (9,) and np.all(scores > 0.0)


@pytest.mark.parametrize("p", [2, 5, 20])
def test_ic_row_scores_do_not_depend_on_the_batch(p):
    # Every row keeps the bits of its one-row call, and scoring the training
    # rows themselves gives the bits of scoring a copy of them.
    rng = np.random.default_rng(25)
    X = rng.normal(size=(400, p))
    Q = rng.normal(size=(64, p)) * 1.5
    batch = ic_scores(X, Q, 2)
    expected = np.concatenate([ic_scores(X, Q[i : i + 1], 2) for i in range(len(Q))])
    assert batch.tobytes() == expected.tobytes()
    same = ic_scores(X, X, 2)
    copied = ic_scores(X, X.copy(), 2)
    assert same.tobytes() == copied.tobytes()


def test_ic_split_batch_matches_one_row_calls(monkeypatch):
    # s = 406 monomials and the fewest rows with m s^2 >= _SPLIT_MIN_WORK:
    # the batch splits over two threads, and each row still has the bits of
    # its one-row call on the calling thread.
    rng = np.random.default_rng(26)
    X = rng.normal(size=(420, 27))
    s = math.comb(27 + 2, 2)
    assert s >= christoffel._SPLIT_MIN_N
    Q = rng.normal(size=(-(-christoffel._SPLIT_MIN_WORK // s**2), 27))
    threads = _record_split(monkeypatch)
    batch = ic_scores(X, Q, 2)
    assert len(threads) == len(Q)
    assert len(set(threads)) == 2 and threading.get_ident() not in threads
    threads.clear()
    expected = np.concatenate([ic_scores(X, Q[i : i + 1], 2) for i in range(len(Q))])
    assert set(threads) == {threading.get_ident()}
    assert batch.tobytes() == expected.tobytes()
    assert np.all(batch > 0.0)


def test_ic_symmetric_two_point_hand_case():
    X = [[-1.0], [1.0]]
    scores = ic_scores(X, [[0.0], [3.0]], 1)
    assert scores[0] == pytest.approx(1.0, rel=1e-12)
    assert scores[1] == pytest.approx(10.0, rel=1e-12)


def test_ic_monotone_outlyingness_closed_form():
    # For the symmetric pair at degree 1 the score is exactly 1 + x^2.
    X = [[-1.0], [1.0]]
    xs = np.linspace(-4.0, 4.0, 17)
    scores = ic_scores(X, xs[:, None], 1)
    assert np.allclose(scores, 1.0 + xs**2, rtol=1e-10)
    order = np.argsort(np.abs(xs), kind="stable")
    assert np.all(np.diff(scores[order]) >= -1e-12)


def test_ic_ordering_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        n = math.comb(p + d, d) + 8
        X = rng.normal(size=(n, p))
        queries = rng.normal(size=(5, p))
        fm = build_feature_map(p, d)
        perm = rng.permutation(fm.dimension)
        shuffled = FeatureMap(
            exponents=fm.exponents[perm], coefficients=fm.coefficients[perm], degree=d
        )
        a = _ic_scores_from_map(fm, X, queries)
        b = _ic_scores_from_map(shuffled, X, queries)
        assert np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(a)))


def test_ic_dimension_limit_propagates():
    X = np.zeros((3, 5))
    with pytest.raises(FeatureDimensionError):
        ic_scores(X, X, 2, dim_limit=10)


# ---------------------------------------------------------------------------
# hyperparameter defaults
# ---------------------------------------------------------------------------


def test_default_rho_identity_case():
    assert default_rho(np.eye(4), 500.0) == pytest.approx(0.002, rel=1e-14)


def test_default_rho_linear_in_inverse_c():
    rng = np.random.default_rng(2)
    G = rng.normal(size=(6, 6))
    G = G @ G.T
    assert default_rho(G, 1000.0) == pytest.approx(default_rho(G, 500.0) / 2.0, rel=1e-14)


def test_default_rho_matches_two_step_computation():
    from christoffel_outliers import frobenius_norm

    rng = np.random.default_rng(3)
    G = rng.normal(size=(10, 10))
    G = G @ G.T
    assert default_rho(G, 500.0) == frobenius_norm(G) / (500.0 * math.sqrt(10))
    # 15 monomials of degree 2 in 4 features outnumber the 10 rows: the kernel route.
    X = rng.normal(size=(10, 4))
    kernel = KernelSpec.polynomial(2)
    assert fit_kic(X, kernel, C=200.0).rho == default_rho(gram_matrix(kernel, X) / 10, 200.0)


def test_default_rho_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        default_rho(np.zeros((3, 3)), 500.0)


def test_default_sigma():
    assert default_sigma(4, "KIC") == 1.0
    assert default_sigma(4, "KIC2") == 0.5
    assert default_sigma(1, "KIC") == 0.5
    with pytest.raises(ValueError):
        default_sigma(4, "other")


# ---------------------------------------------------------------------------
# fit_kic / kic_score
# ---------------------------------------------------------------------------


def test_fit_single_point_polynomial():
    model = fit_kic([[0.0]], KernelSpec.polynomial(1), rho=1.0)
    # G_scaled = [[1]], so the factor is of [[2]].
    assert model.factorization.lower == pytest.approx(np.array([[np.sqrt(2.0)]]))
    assert model.factorization.jitter_applied == 0.0


def test_fit_rbf_scaled_diagonal():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 3))
    G_scaled = gram_matrix(KernelSpec.rbf(1.0), X) / 5
    assert np.allclose(np.diag(G_scaled), 0.2, rtol=1e-15)


def test_fit_rejects_an_overflowing_rbf_gram():
    # Squared distances of rows near 1e160 overflow; no numpy warning escapes.
    X = np.random.default_rng(6).normal(size=(8, 2)) * 1e160
    with pytest.raises(GramOverflowError, match="^rbf Gram matrix overflows double precision; use"):
        fit_kic(X, KernelSpec.rbf(1.0), rho=1.0)


def test_fit_reconstruction():
    # 5 rows, fewer than the 6 monomials of degree 2 in 2 features: the kernel route.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 2))
    rho = 0.01
    model = fit_kic(X, KernelSpec.polynomial(2), rho)
    A = gram_matrix(KernelSpec.polynomial(2), X) / 5 + rho * np.eye(5)
    recon = model.factorization.lower @ model.factorization.lower.T
    assert np.linalg.norm(recon - A, "fro") / np.linalg.norm(A, "fro") <= 1e-10


def test_kic_score_large_rho_limit_is_gamma():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(6, 2))
    model = fit_kic(X, KernelSpec.polynomial(2), rho=1e12)
    x = np.array([1.0, 1.0])
    # gamma = (1 + x.x)^2 = 9
    assert kic_score(model, x) == pytest.approx(9.0, rel=1e-9)


def test_kic_score_converges_to_ic_on_symmetric_pair():
    X = [[-1.0], [1.0]]
    rho = 1e-8
    model = fit_kic(X, KernelSpec.polynomial(1), rho)
    assert kic_score(model, np.array([3.0])) / rho == pytest.approx(10.0, rel=1e-4)
    assert kic_score(model, np.array([0.0])) / rho == pytest.approx(1.0, rel=1e-4)


def test_kic_score_matches_explicit_feature_space():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        rho = float(10.0 ** rng.uniform(-4, 0))
        X = rng.normal(size=(n, p))
        x = rng.normal(size=p)
        model = fit_kic(X, KernelSpec.polynomial(d), rho)
        expected = explicit_phi(X, x, d, rho)
        assert kic_score(model, x) == pytest.approx(expected, rel=1e-8)


def test_kic_score_dimension_mismatch():
    model = fit_kic([[0.0, 1.0]], KernelSpec.polynomial(1), 1.0)
    with pytest.raises(ValueError, match="mismatch"):
        kic_score(model, np.array([1.0]))


@pytest.mark.parametrize("x, message", [
    (np.array([1.0]), "dimension mismatch: model expects 2 features, got 1"),
    (np.array([[1.0, 2.0]]), "x must be 1-dimensional, got shape (1, 2)"),
    (np.array([1.0, np.nan]), "x contains non-finite values"),
], ids=["wrong-length", "2-d", "nan"])
def test_kic_score_rejects_a_bad_query(x, message):
    model = fit_kic([[0.0, 1.0], [1.0, 0.0]], KernelSpec.polynomial(1), 1.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        kic_score(model, x)


def _reject_overflowing_row(monkeypatch, model):
    """A row whose kernel row or features overflow fails in kic_score, and in
    kic_scores both serially and split."""
    rng = np.random.default_rng(7)
    p = model.p
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="rhs contains non-finite values"):
        kic_score(model, np.full(p, 1e200))
    # The same row mid-block in a batch of 64-row blocks: row 100 of 129 sits
    # 36 rows into the second block of the serial loop and of the second of
    # two chunks.
    Q = rng.normal(size=(129, p))
    Q[100] = 1e200
    monkeypatch.setattr(christoffel, "_BLOCK_VALUES", 64 * model.factorization.n)
    threads = _record_split(monkeypatch)
    for split in (False, True):
        if split:
            monkeypatch.setattr(christoffel, "_SPLIT_MIN_N", 1)
            monkeypatch.setattr(christoffel, "_SPLIT_MIN_WORK", 0)
        threads.clear()
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="rhs contains non-finite values"):
            kic_scores(model, Q)
        assert len(set(threads)) == 1 + split and (threading.get_ident() in threads) is not split


@pytest.mark.parametrize("kernel", [KernelSpec.polynomial(2), KernelSpec.polynomial(3)])
def test_kic_score_rejects_an_overflowing_kernel_row(monkeypatch, kernel):
    # Degree 2 in 5 features has 21 monomials, degree 3 has 56: more than
    # the 20 rows, so the fit takes the kernel route.
    model = fit_kic(np.random.default_rng(7).normal(size=(20, 5)), kernel, 0.05)
    assert model.feature_map is None
    _reject_overflowing_row(monkeypatch, model)


@pytest.mark.parametrize("kernel", [KernelSpec.polynomial(2), KernelSpec.polynomial(3)])
def test_feature_route_rejects_an_overflowing_feature_row(monkeypatch, kernel):
    # v(x) of a row near 1e200 overflows as its kernel row does, and fails the same way.
    model = fit_kic(np.random.default_rng(7).normal(size=(20, 2)), kernel, 0.05)
    assert model.feature_map is not None
    _reject_overflowing_row(monkeypatch, model)


def test_kic_score_makes_one_solve_on_the_calling_thread(monkeypatch):
    # One query on a model large enough to split a batch: x is checked once,
    # as a vector, and scored by one trsv on the calling thread, with no pool.
    model, Q = _split_case(KernelSpec.rbf(1.5), 0.05)
    threads = _record_split(monkeypatch)

    def refused(*args, **kwargs):
        raise AssertionError("unexpected call")

    monkeypatch.setattr(christoffel, "ThreadPoolExecutor", refused)
    monkeypatch.setattr(christoffel, "as_matrix", refused)
    assert kic_score(model, Q[0]) > 0.0
    assert threads == [threading.get_ident()]


@pytest.mark.parametrize("value", [-1e-14, -1e-3], ids=["rounding", "large"])
def test_negative_kernel_route_values_are_returned_as_computed(monkeypatch, value):
    # Force every kernel-route value to a negative one, of rounding size or
    # far past it: both entry points return it unchanged, with no warning.
    # The 21 monomials of degree 2 in 5 features outnumber the 20 rows, so
    # the fit takes the kernel route.
    rng = np.random.default_rng(29)
    model = fit_kic(rng.normal(size=(20, 5)), KernelSpec.polynomial(2), 0.05)
    assert model.feature_map is None
    Q = rng.normal(size=(3, 5))

    def negative(factorization, g, gamma):
        return gamma * 0.0 + value

    # kic_score and kic_scores both take the one objective routine, so this
    # one stub, which works on one gamma and on a block's gammas alike,
    # reaches both.
    monkeypatch.setattr(christoffel, "_objectives", negative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = kic_score(model, Q[0])
        batch = kic_scores(model, Q)
    assert type(single) is float and single == value
    assert batch.tolist() == [value, value, value]


def test_tiny_rho_kernel_route_keeps_its_negative_values():
    # At rho = 1e-15 a training row's exact score n rho (1 - rho a_jj) is
    # about 2e-14, below the rounding error of gamma - ||z||^2, so some
    # computed values fall below zero. They are returned as computed, with no
    # warning, and the batch equals per-point kic_score bit for bit.
    X = np.random.default_rng(29).normal(size=(20, 5))
    model = fit_kic(X, KernelSpec.polynomial(2), 1e-15)
    assert model.feature_map is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = kic_scores(model, X)
        single = np.array([kic_score(model, x) for x in X])
    assert (batch < 0.0).any()
    assert np.abs(batch).max() < 1e-12
    assert batch.tobytes() == single.tobytes()


def test_kic_score_monotone_in_rho():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 2))
    x = rng.normal(size=2)
    values = []
    for rho in (1e-6, 1e-4, 1e-2, 1.0, 1e2):
        model = fit_kic(X, KernelSpec.polynomial(2), rho)
        values.append(kic_score(model, x))
    assert np.all(np.diff(values) >= -1e-10 * max(values))


# ---------------------------------------------------------------------------
# kic_scores_all / kic2
# ---------------------------------------------------------------------------


def test_single_point_rbf_score():
    rho = 0.3
    scores = kic_scores_all([[2.0]], KernelSpec.rbf(1.0), rho)
    assert scores[0] == pytest.approx(1.0 - 1.0 / (rho + 1.0), rel=1e-12)


def test_duplicate_rows_share_scores():
    X = np.array([[1.0, 2.0], [0.0, 0.5], [1.0, 2.0]])
    scores = kic_scores_all(X, KernelSpec.rbf(1.0), 0.1)
    assert scores[0] == scores[2]


def test_scores_all_matches_per_point_exactly():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 3))
    rho = 0.05
    scores = kic_scores_all(X, KernelSpec.polynomial(2), rho)
    model = fit_kic(X, KernelSpec.polynomial(2), rho)
    individual = np.array([kic_score(model, row) for row in X])
    assert np.array_equal(scores, individual)


def test_kic2_alpha_one_equals_plain_scores():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(9, 2))
    kernel = KernelSpec.rbf(1.0)
    C = 500.0
    rho1 = default_rho(gram_matrix(kernel, X) / 9, C)
    assert np.array_equal(kic2_scores(X, kernel, C, alpha=1.0),
                          kic_scores_all(X, kernel, rho1))


def test_kic2_builds_one_gram_per_stage(monkeypatch):
    calls = []
    real = christoffel.gram_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(christoffel, "gram_matrix", counted)
    X = np.random.default_rng(18).normal(size=(20, 2))
    kic2_scores(X, KernelSpec.rbf(1.0), 500.0, alpha=0.6)
    assert len(calls) == 2


@pytest.mark.parametrize("kernel", [KernelSpec.polynomial(2), KernelSpec.rbf(2.0)])
def test_kic2_stage_two_on_given_stage_one_scores(kernel):
    # A caller already holding the C-rule KIC scores of X (as bench does
    # when it also runs KIC) runs stage two alone and gets kic2_scores' bits.
    X = np.random.default_rng(27).normal(size=(300, 4))
    stage1 = kic_scores(fit_kic(X, kernel, C=500.0), X)
    assert np.array_equal(christoffel._kic2_stage_two(X, kernel, 500.0, 0.6, stage1),
                          kic2_scores(X, kernel, 500.0, 0.6))


@pytest.mark.parametrize("rho", [0.05])
def test_kic_scores_make_one_triangular_solve_per_row(monkeypatch, rho):
    # A row costs one forward substitution, which runs on the stored factor
    # itself, never on a per-row copy: BLAS reads the C-ordered L at its own
    # address as the F-ordered L^T.
    rng = np.random.default_rng(22)
    X = np.repeat(rng.normal(size=(5, 2)) * 2.0, 2, axis=0)
    model = fit_kic(X, KernelSpec.rbf(1.0), rho)
    calls = []
    real = linalg._DTRSV

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_DTRSV", counted)
    Q = rng.normal(size=(7, 2)) * 2.0
    scores = kic_scores(model, Q)
    assert len(calls) == Q.shape[0]
    lower = model.factorization.lower
    assert lower.flags.c_contiguous
    for uplo, trans, _, n, matrix, lda, *_ in calls:
        assert (uplo, trans, n.value, lda.value) == (b"U", b"T", model.n, model.n)
        assert ctypes.addressof(matrix) == lower.ctypes.data
    assert np.all(scores > 0.0)


def _record_split(monkeypatch, workers=2):
    """Give kic_scores ``workers`` CPUs and record the thread of every solve.

    The first solve of each thread but the caller's waits until ``workers``
    such threads have arrived, so the chunks must run at the same time, each
    on a thread of its own.
    """
    monkeypatch.setattr(christoffel, "_cpu_count", lambda: workers)
    threads = []
    caller = threading.get_ident()
    # Per thread, not per ident: a later pool's thread may reuse the ident of
    # an earlier one and must still wait.
    started = threading.local()
    barrier = threading.Barrier(workers, timeout=10)
    real = linalg._DTRSV

    def recorded(*args):
        thread = threading.get_ident()
        if thread != caller and not getattr(started, "waited", False):
            started.waited = True
            barrier.wait()
        threads.append(thread)
        return real(*args)

    monkeypatch.setattr(linalg, "_DTRSV", recorded)
    return threads


def _split_case(kernel, rho, n=None):
    # A polynomial fit takes the kernel route, whose n x n factor is the one
    # that splits: its 30 features have more monomials than the fit has rows.
    rng = np.random.default_rng(41)
    X = rng.normal(size=(n or christoffel._SPLIT_MIN_N, 3 if kernel.family == "rbf" else 30))
    return fit_kic(X, kernel, rho), rng.normal(size=(256, X.shape[1])) * 2.0


def _fewest_split_rows(model):
    """The smallest batch that kic_scores splits on ``model``."""
    return -(-christoffel._SPLIT_MIN_WORK // model.n**2)


@pytest.mark.parametrize("kernel, rho, rows, split, order", [
    pytest.param(KernelSpec.polynomial(2), 0.05, 256, True, "C", id="kernel0-0.05"),
    pytest.param(KernelSpec.rbf(1.5), 0.05, 256, True, "C", id="kernel1-0.05"),
    # Degree 3 takes the generic power by squaring, not the in-place square.
    pytest.param(KernelSpec.polynomial(3), 0.05, 256, True, "C", id="kernel2-0.05"),
    # Batches around a 64-row block, scored serially or in two chunks, and
    # an F-ordered batch, whose rows are strided views.
    *[
        pytest.param(kernel, 0.05, rows, split, order,
                     id=f"{kernel.family}-{rows}-{'split' if split else 'serial'}-{order}")
        for kernel in (KernelSpec.polynomial(2), KernelSpec.rbf(1.5))
        for split in (False, True)
        for rows, order in [(1, "C"), (63, "C"), (64, "C"), (65, "C"), (129, "C"), (129, "F")]
    ],
])
def test_split_batch_matches_per_point_scores(monkeypatch, kernel, rho, rows, split, order):
    # Each chunk's rows go through the same block loop on their own thread,
    # and every score keeps the bits of a one-row kic_score call, wherever
    # the chunk and block boundaries fall.
    model, Q = _split_case(kernel, rho, None if split else christoffel._SPLIT_MIN_N - 1)
    Q = np.asarray(Q[:rows], order=order)
    monkeypatch.setattr(christoffel, "_BLOCK_VALUES", 64 * model.n)
    if split:
        monkeypatch.setattr(christoffel, "_SPLIT_MIN_WORK", 0)
    threads = _record_split(monkeypatch)
    scores = kic_scores(model, Q)
    assert len(threads) == len(Q)
    if split and rows > 1:
        assert len(set(threads)) == 2 and threading.get_ident() not in threads
    else:
        assert threads == [threading.get_ident()] * len(Q)
    threads.clear()
    expected = np.array([kic_score(model, q) for q in Q])
    assert threads == [threading.get_ident()] * len(Q)
    assert scores.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [20, 50])
def test_polynomial_scores_depend_on_the_row_values_only(p):
    # The rows of an F-ordered batch are strided; a BLAS product over a
    # strided row rounds differently from one over the same values in a
    # fresh array, unless the batch is made C-ordered first.
    rng = np.random.default_rng(42)
    model = fit_kic(rng.normal(size=(300, p)), KernelSpec.polynomial(2), 0.05)
    Q = np.asfortranarray(rng.normal(size=(200, p)))
    expected = np.array([kic_score(model, np.ascontiguousarray(q)) for q in Q])
    assert kic_scores(model, Q).tobytes() == expected.tobytes()


def test_split_batch_over_more_threads_than_cores(monkeypatch):
    # Seven uneven chunks with frequent thread switches: every row is written
    # once, by its own chunk, with the serial loop's bits.
    model, Q = _split_case(KernelSpec.rbf(1.5), 0.05)
    expected = np.array([kic_score(model, q) for q in Q])
    threads = _record_split(monkeypatch, workers=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scores = kic_scores(model, Q)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == len(Q) and len(set(threads)) == 7
    assert scores.tobytes() == expected.tobytes()


def test_small_batches_and_small_fits_stay_on_the_calling_thread(monkeypatch):
    model, Q = _split_case(KernelSpec.polynomial(2), 0.05)
    small = fit_kic(model.training[:-1], KernelSpec.polynomial(2), 0.05)
    threads = _record_split(monkeypatch)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    with monkeypatch.context() as m:
        m.setattr(christoffel, "ThreadPoolExecutor", no_pool)
        kic_score(model, Q[0])
        kic_scores(model, Q[: _fewest_split_rows(model) - 1])
        kic_scores(small, Q)
        m.setattr(christoffel, "_cpu_count", lambda: 1)
        kic_scores(model, Q)
    assert set(threads) == {threading.get_ident()}
    threads.clear()
    kic_scores(model, Q[: _fewest_split_rows(model)])
    assert len(set(threads)) == 2 and threading.get_ident() not in threads


def test_f_ordered_factor_scores_like_the_c_ordered_one(monkeypatch):
    # A factor's layout is settled when it is built, so a model given an
    # F-ordered factor scores a small and a split batch with the bits of the
    # fitted model, whose Cholesky factor is C-ordered.
    model, Q = _split_case(KernelSpec.rbf(1.5), 0.05)
    factor = SpdFactorization(lower=np.asfortranarray(model.factorization.lower))
    assert factor.lower.flags.c_contiguous
    other = ChristoffelModel(kernel=model.kernel, rho=model.rho, training=model.training,
                             factorization=factor)
    small = Q[: _fewest_split_rows(model) - 1]
    assert kic_scores(other, small).tobytes() == kic_scores(model, small).tobytes()
    # Each call starts its own pool, whose threads need not reuse the idents
    # of the last one's, so the threads are checked per call.
    threads = _record_split(monkeypatch)
    split = kic_scores(other, Q)
    assert len(set(threads)) == 2 and threading.get_ident() not in threads
    threads.clear()
    assert split.tobytes() == kic_scores(model, Q).tobytes()
    assert len(set(threads)) == 2 and threading.get_ident() not in threads


@pytest.mark.parametrize("kernel", [KernelSpec.polynomial(2), KernelSpec.rbf(1.5)])
@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_model_copies_score_with_the_originals_bits(monkeypatch, kernel, duplicate):
    # A model holds arrays, no address into them: a pickled or deep-copied
    # model outlives the original and scores, one row, serially and split,
    # with the original's bits.
    model, Q = _split_case(kernel, 0.05)
    monkeypatch.setattr(christoffel, "_cpu_count", lambda: 2)
    small = Q[: _fewest_split_rows(model) - 1]
    expected = [kic_score(model, Q[0]), kic_scores(model, small).tobytes(),
                kic_scores(model, Q).tobytes()]
    clone = duplicate(model)
    del model
    gc.collect()
    assert [kic_score(clone, Q[0]), kic_scores(clone, small).tobytes(),
            kic_scores(clone, Q).tobytes()] == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_split_batch_keeps_the_callers_errstate(monkeypatch, workers):
    # Row 200 of 256 overflows the polynomial kernel. The caller's
    # np.errstate reaches the thread scoring it, and the row then fails the
    # finiteness check as it does in the serial loop.
    model, Q = _split_case(KernelSpec.polynomial(2), 0.05)
    Q[200] = 1e200
    threads = _record_split(monkeypatch, workers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="rhs contains non-finite values"):
            kic_scores(model, Q)
    assert len(set(threads) - {threading.get_ident()}) == (0 if workers == 1 else workers)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="rhs contains non-finite values"):
            kic_scores(model, Q)


def test_kic_scores_do_not_revalidate_training_rows(monkeypatch):
    # fit_kic checked the training matrix; scoring m rows must not re-scan it.
    rng = np.random.default_rng(25)
    model = fit_kic(rng.normal(size=(20, 3)), KernelSpec.polynomial(2), 0.05)
    calls = []
    real = kernels.as_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "as_matrix", counted)
    kic_scores(model, rng.normal(size=(6, 3)))
    assert calls == []


@pytest.mark.parametrize("n", [730, 1000, 1530])
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_multi_panel_batch_matches_per_point_scores(monkeypatch, n, split):
    # A factor of more than _PANEL_VALUES entries is solved in panels: a
    # block panel by panel, one row through the same panels. Every row of a
    # batch, and of a sub-batch at an offset, keeps the bits of its one-row
    # kic_score call, serially and over two threads.
    assert n * n > linalg._PANEL_VALUES
    rng = np.random.default_rng(n)
    model = fit_kic(rng.normal(size=(n, 3)), KernelSpec.rbf(1.5), 0.05)
    Q = rng.normal(size=(100, 3)) * 2.0
    threads = _record_split(monkeypatch, 2 if split else 1)
    batch = kic_scores(model, Q)
    assert len(set(threads)) == 1 + split and (threading.get_ident() in threads) is not split
    offset = kic_scores(model, Q[17:81])
    expected = np.array([kic_score(model, q) for q in Q])
    assert batch.tobytes() == expected.tobytes()
    assert offset.tobytes() == expected[17:81].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_panel_overflowing_kernel_row_raises(monkeypatch, workers):
    # On a 730-row polynomial fit (two panels; its 40 features have 861
    # monomials, so it takes the kernel route) a kernel row that overflows
    # raises from a batch, serial or split, and from one-row scoring.
    rng = np.random.default_rng(44)
    model = fit_kic(rng.normal(size=(730, 40)), KernelSpec.polynomial(2), 0.05)
    assert model.feature_map is None and len(linalg._panels(model.n)) == 2
    Q = rng.normal(size=(128, 40))
    Q[100] = 1e200
    threads = _record_split(monkeypatch, workers)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="rhs contains non-finite values"):
            kic_scores(model, Q)
        with pytest.raises(ValueError, match="rhs contains non-finite values"):
            kic_score(model, Q[100])
    assert len(set(threads) - {threading.get_ident()}) == (0 if workers == 1 else workers)


@pytest.mark.parametrize("n, panels", [(627, [627]), (628, [314, 314]), (1000, [334, 334, 332])],
                         ids=["627", "628", "1000"])
def test_each_row_makes_one_triangular_solve_per_panel(monkeypatch, n, panels):
    # A row costs one dtrsv per panel, on the panel's diagonal block of the
    # stored factor (leading dimension n); a factor of up to _PANEL_VALUES
    # entries keeps one dtrsv on the whole factor.
    rng = np.random.default_rng(45)
    model = fit_kic(rng.normal(size=(n, 3)), KernelSpec.rbf(1.5), 0.05)
    calls = []
    real = linalg._DTRSV

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_DTRSV", counted)
    Q = rng.normal(size=(5, 3))
    kic_scores(model, Q)
    assert len(calls) == len(panels) * len(Q)
    kic_score(model, Q[0])
    assert len(calls) == len(panels) * (len(Q) + 1)
    lower = model.factorization.lower
    starts = np.cumsum([0] + panels[:-1])
    diagonals = [lower.ctypes.data + 8 * (n + 1) * j0 for j0 in starts]
    for uplo, trans, _, order, matrix, lda, *_ in calls:
        assert (uplo, trans, lda.value) == (b"U", b"T", n)
        assert (order.value, ctypes.addressof(matrix)) in zip(panels, diagonals)
    assert sorted(call[3].value for call in calls[-len(panels):]) == sorted(panels)


@pytest.mark.parametrize("kernel, p, bound", [
    (KernelSpec.polynomial(2), 50, 9 * 2**20),
    (KernelSpec.rbf(3.5), 50, 15.8 * 2**20),
], ids=["polynomial", "rbf"])
def test_kernel_route_fit_peaks_near_one_gram(kernel, p, bound):
    # A polynomial fit holds one n x n array (7.6 MiB at n=1000): the C rule's
    # norm makes no squared copy and the Cholesky works in the Gram's buffer.
    # An RBF fit adds only the Gram's n x n distance-norm temporary.
    X = np.random.default_rng(46).normal(size=(1000, p))
    tracemalloc.start()
    try:
        model = fit_kic(X, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.feature_map is None
    assert peak <= bound


def test_kic2_excludes_far_outlier_from_refit():
    rng = np.random.default_rng(11)
    cluster = rng.normal(size=(9, 2)) * 0.1
    X = np.vstack([cluster, [[8.0, 8.0]]])
    kernel = KernelSpec.rbf(1.0)
    C = 500.0
    rho1 = default_rho(gram_matrix(kernel, X) / 10, C)
    stage1 = kic_scores_all(X, kernel, rho1)
    keep = lowest_score_indices(stage1, 0.6)
    assert 9 not in keep
    assert len(keep) == 6
    final = kic2_scores(X, kernel, C, alpha=0.6)
    assert np.argmax(final) == 9


# ---------------------------------------------------------------------------
# the feature route: polynomial fits with binomial(p + d, d) <= n
# ---------------------------------------------------------------------------


def _feature_case(p, n=300, d=2):
    rng = np.random.default_rng(43)
    X = rng.normal(size=(n, p))
    model = fit_kic(X, KernelSpec.polynomial(d), C=500.0)
    assert model.feature_map is not None
    assert model.factorization.n == math.comb(p + d, d)
    return model, rng.normal(size=(129, p)) * 1.5


def test_feature_route_builds_no_gram_and_takes_rho_from_the_moment_matrix(monkeypatch):
    # ||G/n||_F = ||M||_F, so the C rule reads the s x s moment matrix and
    # gives the rho of the n x n Gram; no n x n array is built.
    X = np.random.default_rng(44).normal(size=(200, 3))
    kernel = KernelSpec.polynomial(2)
    expected = default_rho(gram_matrix(kernel, X) / 200, 300.0)

    def refused(*args):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(christoffel, "gram_matrix", refused)
    model = fit_kic(X, kernel, C=300.0)
    assert model.factorization.n == 10
    assert np.array_equal(model.feature_map.exponents, build_feature_map(3, 2).exponents)
    assert model.rho == pytest.approx(expected, rel=1e-13)
    V = feature_matrix(model.feature_map, X)
    M = V.T @ V / 200 + model.rho * np.eye(10)
    recon = model.factorization.lower @ model.factorization.lower.T
    assert np.linalg.norm(recon - M, "fro") / np.linalg.norm(M, "fro") <= 1e-14


@pytest.mark.parametrize("p", [2, 20])
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_feature_route_batch_matches_per_point_scores(monkeypatch, p, split):
    # Blocks of 64 rows, scored serially or in two chunks: every row is one
    # s-sized trsv and keeps the bits of its one-row kic_score call.
    model, Q = _feature_case(p)
    Q = np.vstack([Q, model.training])
    monkeypatch.setattr(christoffel, "_BLOCK_VALUES", 64 * model.factorization.n)
    if split:
        monkeypatch.setattr(christoffel, "_SPLIT_MIN_N", 1)
        monkeypatch.setattr(christoffel, "_SPLIT_MIN_WORK", 0)
    threads = _record_split(monkeypatch)
    recorded, sizes = linalg._DTRSV, []

    def sized(*args):
        sizes.append(args[3].value)
        return recorded(*args)

    monkeypatch.setattr(linalg, "_DTRSV", sized)
    batch = kic_scores(model, Q)
    assert len(set(threads)) == 1 + split and (threading.get_ident() in threads) is not split
    expected = np.array([kic_score(model, q) for q in Q])
    assert sizes == [model.factorization.n] * (2 * len(Q))
    assert batch.tobytes() == expected.tobytes()
    assert np.all(batch > 0.0)


@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_feature_route_model_copies_score_with_the_originals_bits(duplicate):
    model, Q = _feature_case(20)
    expected = [kic_score(model, Q[0]), kic_scores(model, Q).tobytes()]
    clone = duplicate(model)
    del model
    gc.collect()
    assert clone.feature_map is not None
    assert [kic_score(clone, Q[0]), kic_scores(clone, Q).tobytes()] == expected


@pytest.mark.parametrize("p", [1, 2, 3, 20])
def test_feature_route_matches_a_dense_kernel_reference(p):
    # rho v^T (rho I + M)^-1 v equals gamma - g^T (rho I + G/n)^-1 g; the
    # reference solves the n x n system densely from kernel values.
    model, Q = _feature_case(p)
    X, n, rho = model.training, model.n, model.rho
    Q = np.vstack([Q, X[:50]])
    K = (1.0 + X @ Q.T) ** 2 / math.sqrt(n)
    S = np.linalg.solve((1.0 + X @ X.T) ** 2 / n + rho * np.eye(n), K)
    reference = (1.0 + np.einsum("ij,ij->i", Q, Q)) ** 2 - np.einsum("ij,ij->j", K, S)
    scores = kic_scores(model, Q)
    assert np.max(np.abs(scores - reference) / reference) <= 1e-9


def test_kic2_rejects_bad_alpha():
    with pytest.raises(ValueError):
        kic2_scores(np.zeros((3, 1)) + 1.0, KernelSpec.rbf(1.0), 500.0, alpha=0.0)


def test_kic_score_matches_dense_ridge_solve():
    # The factored solve values the regularized distance
    # gamma - g^T (G/n + rho I)^{-1} g that a dense solve gives.
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        x = rng.normal(size=p)
        kernel = KernelSpec.rbf(1.0) if rng.random() < 0.5 else KernelSpec.polynomial(2)
        rho = float(10.0 ** rng.uniform(-3, 0))
        direct = kic_score(fit_kic(X, kernel, rho), x)
        g, gamma = cross_vector(kernel, X, x)
        g = g / np.sqrt(n)
        dense = gamma - g @ np.linalg.solve(gram_matrix(kernel, X) / n + rho * np.eye(n), g)
        assert direct == pytest.approx(dense, rel=1e-10)


# ---------------------------------------------------------------------------
# lower bound and convergence toward the moment-matrix score
# ---------------------------------------------------------------------------


def test_lower_bound_and_convergence_small():
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        s = math.comb(p + d, d)
        n = s + int(rng.integers(5, 20))
        X = rng.normal(size=(n, p))
        queries = np.vstack([X[:2], rng.normal(size=(2, p)) * 1.5])
        q = ic_scores(X, queries, d)
        kernel = KernelSpec.polynomial(d)
        gaps = []
        for k in range(1, 7):
            rho = 10.0 ** (-k)
            model = fit_kic(X, kernel, rho)
            bound = np.array([kic_score(model, row) for row in queries]) / rho
            assert np.all(bound <= q + 1e-6)
            gaps.append(np.max(np.abs(bound - q) / q))
        # the gap shrinks decade by decade over the range where it is far
        # above the double-precision noise floor
        assert np.all(np.diff(gaps) <= 0.0)
        model = fit_kic(X, kernel, 1e-8)
        bound8 = np.array([kic_score(model, row) for row in queries]) / 1e-8
        assert np.all(np.abs(bound8 - q) <= 1e-4 * q)


# ---------------------------------------------------------------------------
# grid_scores
# ---------------------------------------------------------------------------


def test_grid_matches_individual_calls():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 2))
    model = fit_kic(X, KernelSpec.rbf(1.0), 0.01)
    xs, ys, Z = grid_scores(model, (-1.0, 1.0, 2), (-2.0, 2.0, 2))
    assert Z.shape == (2, 2)
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            assert Z[i, j] == kic_score(model, np.array([xv, yv]))


@pytest.mark.parametrize(
    "kernel",
    [KernelSpec.polynomial(2), KernelSpec.rbf(math.sqrt(2.0) / 2.0), KernelSpec.polynomial(3)],
)
def test_every_scoring_path_matches_per_point_at_benchmark_scale(kernel):
    # Batched triangular solves agree with one-column solves at small n and
    # drift in the last bit at n in the hundreds, so check the contract at
    # the size the benchmark scores.
    rng = np.random.default_rng(19)
    X = rng.normal(size=(500, 2))
    model = fit_kic(X, kernel, C=500.0)

    def per_point(points):
        return np.array([kic_score(model, np.asarray(q)) for q in points])

    train = per_point(X)
    assert np.array_equal(kic_scores_all(X, kernel, model.rho), train)
    assert np.array_equal(kic2_scores(X, kernel, 500.0, alpha=1.0), train)
    Q = rng.uniform(-3.0, 3.0, size=(50, 2))
    assert np.array_equal(kic_scores(model, Q), per_point(Q))
    xs, ys, Z = grid_scores(model, (-3.0, 3.0, 9), (-2.0, 2.0, 7))
    expected = per_point([(xv, yv) for yv in ys for xv in xs]).reshape(7, 9)
    assert np.array_equal(Z, expected)


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_rbf_is_exact_far_from_the_origin(offset):
    # ||a||^2 + ||b||^2 - 2 a.b on raw rows cancels the offset's digits;
    # on centred rows Gram, scores and grid keep to direct distances.
    rng = np.random.default_rng(26)
    X = rng.normal(size=(60, 2)) + offset
    sigma, rho = 0.8, 0.01
    kernel = KernelSpec.rbf(sigma)
    model = fit_kic(X, kernel, rho)

    def assert_close(got, ref):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-9

    assert_close(gram_matrix(kernel, X), cdist_rbf(X, X, sigma))
    Q = np.vstack([X[:5], rng.normal(size=(10, 2)) * 1.5 + offset])
    assert_close(kic_scores(model, Q), cdist_rbf_scores(X, Q, sigma, rho))
    xs, ys, Z = grid_scores(
        model, (offset - 3.0, offset + 3.0, 7), (offset - 2.0, offset + 2.0, 5)
    )
    grid = np.array([(xv, yv) for yv in ys for xv in xs])
    assert_close(Z.ravel(), cdist_rbf_scores(X, grid, sigma, rho))


@pytest.mark.parametrize(
    "kernel, p",
    [(KernelSpec.polynomial(2), 3), (KernelSpec.polynomial(2), 20), (KernelSpec.rbf(1.5), 5)],
)
def test_training_scores_match_ridge_leverage(kernel, p):
    # For a training row, phi_j = n rho (1 - rho [(G/n + rho I)^-1]_jj), the
    # ridge leverage: a second derivation of the scores that does not form
    # gamma - ||z||^2.
    rng = np.random.default_rng(27)
    n = 300
    X = rng.normal(size=(n, p))
    rho = fit_kic(X, kernel, C=500.0).rho
    inverse = np.linalg.inv(gram_matrix(kernel, X) / n + rho * np.eye(n))
    leverage = n * rho * (1.0 - rho * np.diag(inverse))
    scores = kic_scores_all(X, kernel, rho)
    assert np.max(np.abs(scores - leverage) / leverage) <= 1e-10


def test_grid_symmetric_data_gives_symmetric_field():
    # Training set invariant under x -> -x mirroring, so the score field is too.
    X = np.array([[1.0, 0.5], [-1.0, 0.5], [2.0, -1.0], [-2.0, -1.0]])
    model = fit_kic(X, KernelSpec.rbf(0.8), 0.05)
    xs, ys, Z = grid_scores(model, (-3.0, 3.0, 7), (-2.0, 2.0, 5))
    assert np.allclose(Z, Z[:, ::-1], rtol=1e-10, atol=1e-12)


def test_grid_rbf_far_field_approaches_one():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(8, 2)) * 0.3
    model = fit_kic(X, KernelSpec.rbf(0.5), 0.01)
    xs, ys, Z = grid_scores(model, (-50.0, 50.0, 3), (-50.0, 50.0, 3))
    corners = [Z[0, 0], Z[0, -1], Z[-1, 0], Z[-1, -1]]
    assert np.allclose(corners, 1.0, atol=1e-3)


def test_grid_requires_two_features():
    model = fit_kic(np.zeros((3, 3)) + np.eye(3), KernelSpec.rbf(1.0), 0.1)
    with pytest.raises(ValueError, match="2-feature"):
        grid_scores(model, (-1.0, 1.0, 2), (-1.0, 1.0, 2))


def test_grid_requires_two_steps():
    rng = np.random.default_rng(15)
    model = fit_kic(rng.normal(size=(4, 2)), KernelSpec.rbf(1.0), 0.1)
    with pytest.raises(ValueError, match="steps"):
        grid_scores(model, (-1.0, 1.0, 1), (-1.0, 1.0, 3))


@pytest.mark.parametrize("steps", [2.9, float("inf"), float("nan")])
def test_grid_requires_a_whole_step_count(steps):
    rng = np.random.default_rng(15)
    model = fit_kic(rng.normal(size=(4, 2)), KernelSpec.rbf(1.0), 0.1)
    with pytest.raises(ValueError, match="whole number"):
        grid_scores(model, (-1.0, 1.0, steps), (-1.0, 1.0, 3))
    xs, _, _ = grid_scores(model, (-1.0, 1.0, 3.0), (-1.0, 1.0, np.int64(3)))
    assert xs.shape == (3,)
