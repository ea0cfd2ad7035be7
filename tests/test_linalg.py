import numpy as np
import pytest
from scipy.linalg.blas import dtrsv

from christoffel_outliers import (
    ConvergenceError,
    KernelSpec,
    NotPositiveDefiniteError,
    cg_ridge_solve,
    fit_kic,
    frobenius_norm,
    gram_matrix,
    ridge_objective,
    ridge_objective_from_factor,
    spd_factor,
    spd_solve,
)
from christoffel_outliers import linalg

from helpers import random_spd_triple


# ---------------------------------------------------------------------------
# spd_factor
# ---------------------------------------------------------------------------


def test_factor_identity():
    F = spd_factor(np.eye(3))
    assert np.array_equal(F.lower, np.eye(3))
    assert F.jitter_applied == 0.0


def test_factor_diagonal():
    F = spd_factor(np.diag([4.0, 9.0]))
    assert np.array_equal(F.lower, np.diag([2.0, 3.0]))


def test_factor_reconstructs_kernel_system():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 2))
    G = gram_matrix(KernelSpec.rbf(1.0), X)
    A = G + 1e-3 * np.eye(6)
    F = spd_factor(A)
    recon = F.lower @ F.lower.T
    rel = np.linalg.norm(recon - A, "fro") / np.linalg.norm(A, "fro")
    assert rel <= 1e-10
    assert F.jitter_applied == 0.0


def test_factor_escalates_jitter_on_singular_input(monkeypatch):
    # spd_factor no longer escalates jitter: on a rank-one matrix it makes
    # exactly one Cholesky attempt and fails, instead of retrying A + jitter I.
    attempts = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        attempts.append(np.array(a, copy=True))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    A = np.ones((3, 3))
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(A)
    assert len(attempts) == 1
    assert np.array_equal(attempts[0], A)


def test_factor_empty_jitter_schedule_forbids_jitter():
    # Every factorization runs without jitter, so a rank-one matrix, which
    # plain Cholesky cannot factor, fails rather than being perturbed to pass.
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        spd_factor(np.ones((3, 3)))


def test_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        spd_factor(np.diag([1.0, -1.0]))


def test_factor_rejects_asymmetric_and_zero():
    with pytest.raises(ValueError, match="symmetric"):
        spd_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# spd_solve
# ---------------------------------------------------------------------------


def test_solve_identity_returns_rhs():
    F = spd_factor(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.array_equal(spd_solve(F, b), b)


def test_solve_diagonal():
    F = spd_factor(np.diag([2.0, 4.0]))
    assert np.allclose(spd_solve(F, [2.0, 4.0]), [1.0, 1.0], rtol=1e-15, atol=0)


def test_solve_random_residual():
    rng = np.random.default_rng(1)
    B = rng.normal(size=(5, 5))
    A = B @ B.T + np.eye(5)
    A = 0.5 * (A + A.T)
    b = rng.normal(size=5)
    x = spd_solve(spd_factor(A), b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-9


def test_solve_matrix_rhs():
    rng = np.random.default_rng(2)
    A = np.diag([1.0, 2.0, 3.0])
    B = rng.normal(size=(3, 4))
    X = spd_solve(spd_factor(A), B)
    assert np.allclose(A @ X, B, rtol=1e-12, atol=1e-12)


def test_solve_dimension_mismatch():
    F = spd_factor(np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        spd_solve(F, np.ones(4))


def test_solve_rejects_non_finite_rhs():
    F = spd_factor(np.eye(3))
    for bad in (np.array([1.0, np.nan, 0.0]), np.array([[np.inf], [0.0], [1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            spd_solve(F, bad)


# ---------------------------------------------------------------------------
# cg_ridge_solve
# ---------------------------------------------------------------------------


def test_cg_zero_rhs_returns_gamma():
    sol = cg_ridge_solve(np.eye(3), np.zeros(3), gamma=5.0, rho=0.1)
    assert np.array_equal(sol.theta, np.zeros(3))
    assert sol.objective_value == 5.0
    assert sol.iterations == 0
    assert sol.residual_norm == 0.0


def test_cg_diagonal_hand_case():
    # (I + I) theta = g with g = (2, 0): theta = (1, 0), objective 4 - 2 = 2.
    sol = cg_ridge_solve(np.eye(2), np.array([2.0, 0.0]), gamma=4.0, rho=1.0)
    assert np.allclose(sol.theta, [1.0, 0.0], rtol=1e-12, atol=1e-12)
    assert sol.objective_value == pytest.approx(2.0, rel=1e-12)


def test_cg_matches_cholesky_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        G, g, gamma = random_spd_triple(rng, n)
        rho = float(10.0 ** rng.uniform(-3, 0))
        sol = cg_ridge_solve(G, g, gamma, rho)
        closed = gamma - float(g @ spd_solve(spd_factor(G + rho * np.eye(n)), g))
        assert sol.objective_value == pytest.approx(closed, rel=1e-6)
        assert sol.residual_norm <= 1e-8 * np.linalg.norm(g)


def test_cg_objective_is_the_minimum():
    rng = np.random.default_rng(4)
    G, g, gamma = random_spd_triple(rng, 12)
    rho = 0.05
    sol = cg_ridge_solve(G, g, gamma, rho)
    for _ in range(25):
        other = sol.theta + rng.normal(size=12) * rng.uniform(0.01, 2.0)
        value = ridge_objective(G, g, gamma, rho, other)
        assert value >= sol.objective_value - 1e-8


def test_objective_monotone_in_rho_and_limits_to_gamma():
    rng = np.random.default_rng(5)
    G, g, gamma = random_spd_triple(rng, 10)
    values = [
        cg_ridge_solve(G, g, gamma, rho).objective_value
        for rho in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e2)
    ]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-10 * gamma)
    huge = cg_ridge_solve(G, g, gamma, 1e12).objective_value
    assert huge == pytest.approx(gamma, rel=1e-6)


def test_cg_raises_on_iteration_cap():
    rng = np.random.default_rng(6)
    G, g, gamma = random_spd_triple(rng, 30)
    with pytest.raises(ConvergenceError) as excinfo:
        cg_ridge_solve(G, g, gamma, rho=1e-6, tol=1e-14, max_iter=2)
    assert excinfo.value.residual_norm > 0.0
    assert excinfo.value.iterations == 2


def test_cg_validates_inputs():
    with pytest.raises(ValueError):
        cg_ridge_solve(np.eye(2), np.ones(2), 1.0, rho=0.0)
    with pytest.raises(ValueError):
        cg_ridge_solve(np.eye(2), np.ones(2), 1.0, rho=1.0, tol=0.0)
    with pytest.raises(ValueError):
        cg_ridge_solve(np.eye(2), np.ones(3), 1.0, rho=1.0)


def test_objective_from_factor_matches_ridge_objective():
    # One forward substitution gives the ridge objective at the solved theta.
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        G, g, gamma = random_spd_triple(rng, n)
        rho = float(10.0 ** rng.uniform(-3, 0))
        F = spd_factor(G + rho * np.eye(n))
        assert F.jitter_applied == 0.0
        reference = ridge_objective(G, g, gamma, rho, spd_solve(F, g))
        assert abs(ridge_objective_from_factor(F, g, gamma) - reference) <= 1e-10 * gamma


def test_fit_on_singular_kernel_system_fails_naming_rho():
    # Repeated rows and rho = 1e-20 leave rho I + G singular in double
    # precision. The fit fails and names rho instead of scoring at a larger one.
    rng = np.random.default_rng(21)
    X = np.repeat(rng.normal(size=(4, 2)) * 2.0, 2, axis=0)
    with pytest.raises(NotPositiveDefiniteError, match=r"rho = 1e-20 \(\|\|G/n\|\|_F = "):
        fit_kic(X, KernelSpec.rbf(1.0), 1e-20)


def test_objective_clamped_at_zero_with_warning():
    # gamma slightly below the attainable minimum forces a negative value.
    with pytest.warns(RuntimeWarning):
        value = ridge_objective(np.eye(2), np.array([1.0, 0.0]), gamma=-1.0, rho=1.0,
                                theta=np.array([0.5, 0.0]))
    assert value == 0.0


# ---------------------------------------------------------------------------
# frobenius_norm
# ---------------------------------------------------------------------------


def test_frobenius_cases():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(4)) == 2.0
    assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0


def test_frobenius_does_not_overflow():
    # A sum of squares that overflows is taken on the entries divided by the
    # largest magnitude; a sum that does not keeps the plain expression's bits.
    assert frobenius_norm(np.full((2, 2), 1e200)) == 2e200
    assert frobenius_norm(np.array([[3e300, -4e300]])) == 5e300
    A = np.random.default_rng(4).normal(size=(30, 30)) * 1e150
    assert frobenius_norm(A) == float(np.sqrt(np.sum(A * A)))
    assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf


# ---------------------------------------------------------------------------
# GIL-free trsv
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("trans", [0, 1])
def test_gil_free_trsv_matches_scipy_dtrsv(n, trans):
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    upper = np.linalg.cholesky(B @ B.T + n * np.eye(n)).T
    for x in rng.normal(size=(20, n)):
        expected = dtrsv(upper, x, trans=trans)
        got = linalg._dtrsv_nogil(upper, x, trans=trans)
        assert got.tobytes() == expected.tobytes()


def test_gil_free_trsv_checks_its_arguments():
    upper = np.linalg.cholesky(np.eye(3) * 2.0).T
    with pytest.raises(ValueError, match="F-ordered"):
        linalg._dtrsv_nogil(np.ascontiguousarray(upper), np.ones(3))
    with pytest.raises(ValueError, match="F-ordered"):
        linalg._dtrsv_nogil(np.asfortranarray(upper[:, :2]), np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        linalg._dtrsv_nogil(upper, np.ones(4))
    with pytest.raises(ValueError, match="trans"):
        linalg._dtrsv_nogil(upper, np.ones(3), trans=2)
