import ctypes
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrsv

from christoffel_outliers import (
    KernelSpec,
    NotPositiveDefiniteError,
    fit_kic,
    frobenius_norm,
    gram_matrix,
    spd_factor,
)
from christoffel_outliers import linalg
from christoffel_outliers.linalg import ridge_objective_from_factor, spd_solve

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
    # exactly one LAPACK dpotrf attempt, on A's values, and fails, instead of
    # retrying A + jitter I.
    attempts = []
    dpotrf = linalg._DPOTRF

    def counting_dpotrf(uplo, n, a, lda, info):
        size = n.value
        attempts.append(np.ctypeslib.as_array(ctypes.pointer(a), shape=(size, size)).copy())
        return dpotrf(uplo, n, a, lda, info)

    monkeypatch.setattr(linalg, "_DPOTRF", counting_dpotrf)
    A = np.ones((3, 3))
    with pytest.raises(NotPositiveDefiniteError):
        spd_factor(A)
    assert len(attempts) == 1
    assert np.array_equal(attempts[0], A)


def test_empty_matrix_fails_before_lapack(monkeypatch):
    # dpotrf rejects the leading dimension 0 through xerbla, which prints to
    # stderr, so an empty matrix raises before any LAPACK call.
    def no_lapack(*args):
        raise AssertionError("dpotrf was called")

    monkeypatch.setattr(linalg, "_DPOTRF", no_lapack)
    for overwrite_a in (False, True):
        with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
            spd_factor(np.zeros((0, 0)), overwrite_a=overwrite_a)


@pytest.mark.parametrize("n", [1, 5, 300])
def test_factor_copies_once_or_overwrites_its_input(n):
    # The factor is L with zeros above the diagonal, in C order, and matches
    # numpy's Cholesky to rounding. By default A keeps its values; with
    # overwrite_a a C-ordered float64 A becomes the factor's own buffer,
    # and any other A is copied.
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    A = B @ B.T + n * np.eye(n)
    before = A.copy()
    F = spd_factor(A)
    assert A.tobytes() == before.tobytes() and not np.shares_memory(F.lower, A)
    assert F.lower.flags.c_contiguous and np.array_equal(F.lower, np.tril(F.lower))
    reference = np.linalg.cholesky(A)
    assert np.allclose(F.lower, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())
    assert spd_factor(A, overwrite_a=True).lower is A
    assert A.tobytes() == F.lower.tobytes()
    others = [before.astype(np.float32)] + ([np.asfortranarray(before)] if n > 1 else [])
    for other in others:
        kept = other.copy()
        spd_factor(other, overwrite_a=True)
        assert other.tobytes() == kept.tobytes()


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


@pytest.mark.parametrize("n", [1, 6, 300])
def test_solves_keep_solve_triangular_bits_and_layout(n):
    # Both of spd_solve's solves call the LAPACK dtrtrs that solve_triangular
    # calls on a C-ordered lower factor, on an F-ordered copy of the rhs.
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    F = spd_factor(B @ B.T + n * np.eye(n))
    for b in (rng.normal(size=n), rng.normal(size=(n, 3)),
              np.asfortranarray(rng.normal(size=(n, 4))), rng.normal(size=(n, 5))[:, ::2],
              np.zeros((n, 0))):
        y = solve_triangular(F.lower, b, lower=True, check_finite=False)
        expected = solve_triangular(F.lower, y, lower=True, trans="T", check_finite=False)
        got = spd_solve(F, b)
        assert got.tobytes() == expected.tobytes()
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.flags.c_contiguous == expected.flags.c_contiguous
        assert got.flags.f_contiguous == expected.flags.f_contiguous


def test_solve_on_singular_factor_raises_like_solve_triangular():
    lower = np.tril(np.ones((3, 3)))
    lower[1, 1] = 0.0
    F = linalg.SpdFactorization(lower=lower)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix") as expected:
        solve_triangular(lower, np.ones(3), lower=True)
    with pytest.raises(np.linalg.LinAlgError) as got:
        spd_solve(F, np.ones(3))
    assert str(got.value) == str(expected.value)


def test_missing_scipy_extension_raises_import_error_naming_its_path():
    with pytest.raises(ImportError, match=r"linalg\.no_such_module is not at .*no_such_module\."):
        linalg._cython_function("no_such_module", "dtrsv")


_SCORE_BYTES = textwrap.dedent("""
    import hashlib, sys
    if sys.argv[1] == "first":
        import scipy.linalg
        assert "scipy.linalg.cython_blas" in sys.modules
    import numpy as np
    from christoffel_outliers import KernelSpec, fit_kic, ic_scores, kic_scores, linalg
    if sys.argv[1] == "first":
        # The binder takes the module already imported: with file loads made to
        # fail, it still binds.
        import ctypes, importlib.machinery
        def fail(*args):
            raise AssertionError("loaded from its file")
        importlib.machinery.ExtensionFileLoader.exec_module = fail
        address = lambda f: ctypes.cast(f, ctypes.c_void_p).value
        assert address(linalg._cython_function("cython_blas", "dtrsv")) == address(linalg._DTRSV)
    X = np.random.default_rng(7).normal(size=(60, 3))
    kic = kic_scores(fit_kic(X, KernelSpec.polynomial(2)), X)
    print(hashlib.sha256(kic.tobytes() + ic_scores(X, X, 2).tobytes()).hexdigest())
""")


def test_scipy_linalg_imported_first_gives_its_blas_module_and_the_same_scores():
    # With scipy.linalg already imported, the package binds dtrsv and dpotrf
    # from the cython_blas and cython_lapack modules it loaded.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    digests = []
    for order in ("first", "never"):
        result = subprocess.run([sys.executable, "-c", _SCORE_BYTES, order],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# ridge_objective_from_factor
# ---------------------------------------------------------------------------


def _factor_objective(G, g, gamma, rho):
    return ridge_objective_from_factor(spd_factor(G + rho * np.eye(len(g))), g, gamma)


def test_objective_from_factor_is_the_minimum():
    # With G = B^T B, g = B^T v and gamma = v.v the factored value is
    # min_theta ||B theta - v||^2 + rho ||theta||^2: the dense minimizer
    # attains it, and no other theta gives less.
    rng = np.random.default_rng(4)
    B = rng.normal(size=(14, 12))
    v = rng.normal(size=14)
    rho = 0.05
    A = B.T @ B + rho * np.eye(12)
    value = ridge_objective_from_factor(spd_factor(A), B.T @ v, float(v @ v))

    def primal(theta):
        r = B @ theta - v
        return float(r @ r + rho * theta @ theta)

    theta = np.linalg.solve(A, B.T @ v)
    assert primal(theta) == pytest.approx(value, rel=1e-10)
    for _ in range(25):
        other = theta + rng.normal(size=12) * rng.uniform(0.01, 2.0)
        assert primal(other) >= value - 1e-8


def test_objective_monotone_in_rho_and_limits_to_gamma():
    rng = np.random.default_rng(5)
    G, g, gamma = random_spd_triple(rng, 10)
    values = [_factor_objective(G, g, gamma, rho) for rho in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e2)]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-10 * gamma)
    assert _factor_objective(G, g, gamma, 1e12) == pytest.approx(gamma, rel=1e-6)


def test_cg_zero_rhs_returns_gamma():
    # With g = 0 the ridge minimizer is theta = 0 and the value is gamma.
    F = spd_factor(np.eye(3) + 0.1 * np.eye(3))
    assert np.array_equal(spd_solve(F, np.zeros(3)), np.zeros(3))
    assert ridge_objective_from_factor(F, np.zeros(3), 5.0) == 5.0


def test_cg_diagonal_hand_case():
    # (I + I) theta = g with g = (2, 0): theta = (1, 0), objective 4 - 2 = 2.
    F = spd_factor(np.eye(2) + 1.0 * np.eye(2))
    g = np.array([2.0, 0.0])
    assert np.allclose(spd_solve(F, g), [1.0, 0.0], rtol=1e-12, atol=1e-12)
    assert ridge_objective_from_factor(F, g, 4.0) == pytest.approx(2.0, rel=1e-12)


def test_objective_from_factor_leaves_g_unchanged():
    # The solve runs in place on a copy of g, so the caller's array, even a
    # strided view, keeps its values.
    G, g, gamma = random_spd_triple(np.random.default_rng(23), 6)
    F = spd_factor(G + 0.1 * np.eye(6))
    before = g.copy()
    value = ridge_objective_from_factor(F, g, gamma)
    assert g.tobytes() == before.tobytes()
    strided = np.repeat(g, 2)[::2]
    assert ridge_objective_from_factor(F, strided, gamma) == value
    assert strided.tobytes() == before.tobytes()


def test_objective_from_factor_matches_ridge_objective():
    # One forward substitution gives the ridge minimum gamma - g^T (G + rho I)^{-1} g;
    # random cases against a dense solve.
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        G, g, gamma = random_spd_triple(rng, n)
        rho = float(10.0 ** rng.uniform(-3, 0))
        F = spd_factor(G + rho * np.eye(n))
        assert F.jitter_applied == 0.0
        reference = gamma - float(g @ np.linalg.solve(G + rho * np.eye(n), g))
        assert abs(ridge_objective_from_factor(F, g, gamma) - reference) <= 1e-10 * gamma


def test_fit_on_singular_kernel_system_fails_naming_rho():
    # Repeated rows and rho = 1e-20 leave rho I + G singular in double
    # precision. The fit fails and names rho instead of scoring at a larger one.
    rng = np.random.default_rng(21)
    X = np.repeat(rng.normal(size=(4, 2)) * 2.0, 2, axis=0)
    with pytest.raises(NotPositiveDefiniteError, match=r"rho = 1e-20 \(\|\|G/n\|\|_F = "):
        fit_kic(X, KernelSpec.rbf(1.0), 1e-20)


@pytest.mark.parametrize("rho", [1e-300, None], ids=["given", "C-rule"])
def test_fit_failure_message_gives_the_scaled_gram_norm(rho):
    # The message names ||G/n||_F of the fit's own Gram, whether rho was given
    # or came from the C rule, which reads the same norm.
    X = np.repeat(np.random.default_rng(31).normal(size=(4, 3)), 3, axis=0)
    kernel = KernelSpec.rbf(1.5)
    norm = frobenius_norm(gram_matrix(kernel, X) / len(X))
    with pytest.raises(NotPositiveDefiniteError) as raised:
        fit_kic(X, kernel, rho, C=1e30)
    assert f"(||G/n||_F = {norm:g}); use a larger rho" in str(raised.value)


def test_negative_objective_is_returned_as_computed():
    # L = 2 I and z = (1, 0), so a negative gamma puts the minimum
    # gamma - 1 below zero, exactly: it comes back unchanged, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _factor_objective(3.0 * np.eye(2), np.array([2.0, 0.0]), -1.0, 1.0)
    assert type(value) is float and value == -2.0


@pytest.mark.parametrize("n", [1, 7, 500, 1000])
def test_block_objective_matches_the_per_row_one(n):
    # One trsv per row (per panel at n=1000, after one stacked GEMV per
    # panel) and one dot product per row: each row of a block gets the z and
    # the value of its own 1-D _objectives call, bit for bit, whatever the
    # height of the block.
    rng = np.random.default_rng(n + 1)
    B = rng.normal(size=(n, n))
    F = linalg.SpdFactorization(lower=np.linalg.cholesky(B @ B.T + n * np.eye(n)))
    for m in (1, 3, 64):
        G = rng.normal(size=(m, n)) * 2.0
        gammas = rng.uniform(1.0, 2.0, size=m)
        Z = G.copy()
        values = linalg._objectives(F, Z, gammas)
        for g, z, gamma, value in zip(G, Z, gammas, values):
            g = g.copy()
            assert linalg._objectives(F, g, float(gamma)) == value
            assert g.tobytes() == z.tobytes()


def test_block_objective_checks_its_block_and_raises_like_the_per_row_one():
    F = linalg.SpdFactorization(lower=np.linalg.cholesky(np.eye(3) * 2.0))
    read_only = np.ones((2, 3))
    read_only.flags.writeable = False
    message = "writeable C-ordered float64 block of rows of length 3"
    for G in (np.ones((1, 2, 3)), np.ones((2, 4)), np.ones((2, 3), dtype=np.float32),
              np.ones((3, 2)).T, np.ones((2, 6))[:, ::2], read_only):
        with pytest.raises(ValueError, match=message):
            linalg._objectives(F, G, np.ones(len(G)))
    # A non-finite entry in one row raises, as it does for that row alone.
    G = np.ones((3, 3))
    G[1, 2] = np.inf
    with pytest.raises(ValueError, match="rhs contains non-finite values"):
        linalg._objectives(F, G, np.ones(3))
    # A ||z||^2 that overflows from a finite z does not: its value is -inf,
    # as for that row alone.
    G = np.ones((2, 3))
    G[1] = 1e200
    with np.errstate(over="ignore"):
        values = linalg._objectives(F, G.copy(), np.ones(2))
        assert values[1] == linalg._objectives(F, G[1].copy(), 1.0) == -np.inf
    assert values[0] == linalg._objectives(F, G[0].copy(), 1.0)
    # An infinite gamma less an overflowing ||z||^2 is NaN, which raises in a
    # block as it does for that row alone.
    gammas = np.array([1.0, np.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="rhs contains non-finite values"):
            linalg._objectives(F, G.copy(), gammas)
        with pytest.raises(ValueError, match="rhs contains non-finite values"):
            linalg._objectives(F, G[1].copy(), np.inf)


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
    assert frobenius_norm(A) == math.sqrt(np.einsum("ij,ij->", A, A))
    assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf


# ---------------------------------------------------------------------------
# GIL-free trsv
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 500])
def test_gil_free_trsv_matches_scipy_dtrsv(n):
    # The in-place ctypes solve calls the BLAS routine that scipy's f2py
    # dtrsv wraps, with the same arguments, so z keeps its bits.
    rng = np.random.default_rng(n)
    B = rng.normal(size=(n, n))
    F = linalg.SpdFactorization(lower=np.linalg.cholesky(B @ B.T + n * np.eye(n)))
    for x in rng.normal(size=(20, n)):
        expected = dtrsv(F.lower.T, x, trans=1)
        z = x.copy()
        value = linalg._objectives(F, z, 1.0)
        assert z.tobytes() == expected.tobytes()
        assert value == 1.0 - float(expected @ expected)


def test_gil_free_trsv_checks_its_arguments():
    # A factor is made nonempty, square, C-ordered, writeable and float64
    # once, when it is built (no copy of a Cholesky output); each solve
    # checks only g.
    lower = np.linalg.cholesky(np.eye(3) * 2.0)
    assert linalg.SpdFactorization(lower=lower).lower is lower
    read_only = lower.copy()
    read_only.flags.writeable = False
    for other in (np.asfortranarray(lower), np.eye(3, dtype=int) * 2, read_only):
        F = linalg.SpdFactorization(lower=other)
        assert F.lower.flags.carray and F.lower.dtype == np.float64
        assert np.array_equal(F.lower, other)
    for bad in (np.ones(3), np.ones((3, 2)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="nonempty square factor"):
            linalg.SpdFactorization(lower=bad)
    F = linalg.SpdFactorization(lower=lower)
    read_only = np.ones(3)
    read_only.flags.writeable = False
    message = "writeable C-ordered float64 vector of length 3"
    for g in (np.ones(4), np.ones(3, dtype=np.float32), np.ones(6)[::2], read_only):
        with pytest.raises(ValueError, match=message):
            linalg._objectives(F, g, 1.0)
    with pytest.raises(ValueError, match=message + r", got shape \(4,\)"):
        ridge_objective_from_factor(F, [1.0] * 4, 1.0)
    # A single rhs only: a (1, 3) g is not taken as a block of one row.
    with pytest.raises(ValueError, match=message + r", got shape \(1, 3\)"):
        ridge_objective_from_factor(F, [[1.0] * 3], 1.0)
