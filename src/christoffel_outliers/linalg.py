"""Dense symmetric positive-definite factors and the kernel-space ridge objective.

A matrix is factorized by one plain Cholesky, LAPACK dpotrf in place on a
C-ordered buffer; one that is not positive definite in double precision is
an error, never silently perturbed. With L L^T = rho I + G for a scaled Gram
matrix G, the ridge minimum

    min_theta ||V theta - v||^2 + rho ||theta||^2  =  gamma - ||L^{-1} g||^2

is the regularized distance of a feature vector v from the span of the
training columns V, expressed through the kernel triple (G, g, gamma).
``_objectives`` takes one g or a block of them, and each g gets its own
forward substitution, ``_forward``: BLAS calls that work in place on g and
release the GIL, so threads scoring other vectors run meanwhile. One binder,
``_cython_function``, takes BLAS dtrsv and LAPACK dpotrf from scipy's Cython
modules without ``import scipy.linalg``, which would take half of the
package's start-up; ``spd_solve``, which no scorer calls, imports
``scipy.linalg.solve_triangular`` on its first call.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._validate import NumericalError


class NotPositiveDefiniteError(NumericalError):
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

    The sum is one ``einsum`` reduction, with no squared copy of A and no
    BLAS call, so its bits depend on no thread count. When it overflows, the
    entries are first divided by the largest magnitude m and the result is
    m times the norm of the quotient, so every result that was finite keeps
    its bits.
    """
    a = np.asarray(A, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        norm = math.sqrt(np.einsum("i,i->", a, a))
    if not math.isfinite(norm):
        m = float(np.max(np.abs(a)))
        if math.isfinite(m):
            b = a / m
            return m * math.sqrt(np.einsum("i,i->", b, b))
    return norm


def spd_factor(A, *, overwrite_a: bool = False) -> SpdFactorization:
    """Cholesky-factorize a symmetric matrix.

    A is copied once and the copy is factorized in place. With
    ``overwrite_a`` (as in ``scipy.linalg.cho_factor``) a C-ordered,
    writeable float64 A is factorized in its own buffer, which the returned
    factor then holds; a fit does this with the ``rho I + G/n`` it built.

    Raises:
        NotPositiveDefiniteError: if A is not positive definite in double precision.
        ValueError: if A is empty, not square, not finite or not symmetric.
    """
    A = np.require(A, np.float64, "CAW") if overwrite_a else np.array(A, np.float64, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    # dpotrf would reject the leading dimension 0 through xerbla, which prints.
    if A.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite values")
    # Exact symmetry, as every Gram and moment matrix here has, needs no norms.
    if not np.array_equal(A, A.T):
        norm = frobenius_norm(A)
        if frobenius_norm(A - A.T) > 1e-8 * max(norm, 1e-300):
            raise ValueError("matrix is not symmetric")
    # dpotrf("U") reads the C-ordered A as the F-ordered A^T = A and writes
    # U, with U^T U = A, over its upper triangle: read C-ordered, that is L
    # over A's lower triangle. The strict upper triangle keeps A's values
    # and is zeroed row by row, with no n x n index arrays.
    n = A.shape[0]
    size, info = ctypes.c_int(n), ctypes.c_int(0)
    _DPOTRF(b"U", size, ctypes.c_double.from_buffer(A), size, info)
    if info.value:
        raise NotPositiveDefiniteError("not positive definite")
    for i in range(n - 1):
        A[i, i + 1:] = 0.0
    return SpdFactorization(lower=A)


def spd_solve(factorization: SpdFactorization, b) -> np.ndarray:
    """Solve A x = b from a prior factorization of A.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    from scipy.linalg import solve_triangular

    b = np.asarray(b, dtype=float)
    n = factorization.n
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"dimension mismatch: factorization is {n}, rhs has shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains non-finite values")
    # The factor was checked when built; only b is scanned.
    y = solve_triangular(factorization.lower, b, lower=True, check_finite=False)
    return solve_triangular(factorization.lower, y, lower=True, trans="T", check_finite=False)


def ridge_objective_from_factor(factorization: SpdFactorization, g, gamma: float) -> float:
    """Optimal regularized distance gamma - g^T (rho I + G)^{-1} g from the factor.

    The factorization must be of (rho I + G). With L L^T = rho I + G and
    z = L^{-1} g the value is gamma - ||z||^2: one forward substitution,
    on a copy of g, returned as computed, even a rounding error below zero.
    """
    g = np.array(g, dtype=np.float64)
    if g.ndim != 1:  # _objectives would score a 2-D g as a block of rows
        raise ValueError(f"rhs must be a writeable C-ordered float64 vector of length "
                         f"{factorization.n}, got shape {g.shape}")
    return float(_objectives(factorization, g, gamma))


def _objectives(factorization: SpdFactorization, G: np.ndarray, gammas):
    """gamma - ||z||^2 for a row g (1-D G) or each row of a block (2-D), with
    z = L^{-1} g written over g by ``_forward``. Only G is checked: the
    factor's layout was settled when it was built.

    ``np.vecdot`` makes one dot product per row, the call ``z @ z`` makes, so
    with ``_forward``'s per-row calls a row keeps its bits in any block. The
    rows are scanned only when the sum of their values is not finite; a NaN
    value (as from an infinite gamma less an infinite ||z||^2), or one with a
    non-finite entry of z (from g, or from a solve that overflowed), raises.
    """
    n = factorization.n
    if G.dtype != np.float64 or G.ndim not in (1, 2) or G.shape[-1] != n or not G.flags.carray:
        kind = "vector" if G.ndim == 1 else "block of rows"
        raise ValueError(
            f"rhs must be a writeable C-ordered float64 {kind} of length {n}, got shape {G.shape}"
        )
    _forward(factorization.lower, G)
    values = gammas - np.vecdot(G, G)
    if not math.isfinite(np.add.reduce(values, axis=None)) and (
            np.isnan(values).any() or not np.isfinite(G[~np.isfinite(values)]).all()):
        raise ValueError("rhs contains non-finite values")
    return values


def _forward(lower: np.ndarray, G: np.ndarray) -> None:
    """Overwrite each row g of G, one row (1-D) or a block of rows (2-D), by L^{-1} g.

    BLAS solves in place, reading L^T, the F-ordered view of the stored
    factor: no copy, and none of ``solve_triangular``'s argument handling,
    which at a few hundred rows costs as much as the solve. The solve runs
    over ``_panels(n)``: one dtrsv per row on a factor of up to
    ``_PANEL_VALUES`` entries; on a larger one, for each later panel of rows
    j0..j1-1 of L, one stacked product makes the GEMV ``g[:j0] @ L[j0:j1,
    :j0].T`` of each row, subtracted from g[j0:j1] before each row's dtrsv
    on the panel's diagonal block. A block thus reads each panel from cache
    for every row after the first, and every row gets the calls, and so the
    bits, of its one-row solve.
    """
    n = lower.shape[0]
    # A ctypes view of a buffer costs a fraction of ``ndarray.ctypes.data`` and holds it.
    view = ctypes.c_double.from_buffer
    lda = ctypes.c_int(n)
    for j0, j1 in _panels(n):
        if j0:
            G[..., j0:j1] -= np.matmul(G[..., None, :j0], lower[j0:j1, :j0].T)[..., 0, :]
        size, diagonal = ctypes.c_int(j1 - j0), view(lower, 8 * (j0 * n + j0))
        for offset in range(8 * j0, G.nbytes, 8 * n):
            _DTRSV(b"U", b"T", b"N", size, diagonal, lda, view(G, offset), _ONE)


# Factor entries per panel of the forward substitution, 3 MB: one panel up to
# n=627, two at n=628-886, three of 334 rows at n=1000. A block of rows is
# solved panel by panel, so the panel (its GEMV part L[j0:j1, :j0] and its
# diagonal block) stays in a core's 2 MB L2 across the block's rows, where a
# whole-factor dtrsv streams all of the triangle from L3 again for every row.
# Solving 1000 rows at n=1000 (2-core Xeon, one BLAS thread, medians of 5
# calls, 5 repeats) on 2 workers took 83-87 ms in panels of 334 rows, 87-90
# ms of 500, 86-89 ms of 250 and 98-107 ms of 200, against 101-121 ms by one
# dtrsv per row; on 1 worker 107-149 ms in panels of 334, against 219-247 ms.
_PANEL_VALUES = 3 * 2**17


@functools.cache
def _panels(n: int) -> tuple:
    """The (j0, j1) row ranges of L that the solves of order n take in turn:
    ceil(n^2 / ``_PANEL_VALUES``) panels of equal width, the last narrower."""
    width = -(-n // -(-n * n // _PANEL_VALUES))
    return tuple((j0, min(j0 + width, n)) for j0 in range(0, n, width))


def _cython_function(module: str, name: str, *argtypes):
    """The routine ``name`` of scipy's extension ``scipy.linalg.<module>``, as a
    ctypes call that takes ``argtypes``: the module is reused from ``sys.modules``
    or loaded from its file alone, its capsule holds the function pointer, and a
    ``CFUNCTYPE`` call releases the GIL for its duration."""
    fullname = f"scipy.linalg.{module}"
    extension = sys.modules.get(fullname)
    if extension is None:
        directory = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
        paths = [os.path.join(directory, module + end) for end in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            raise ImportError(f"scipy's {fullname} is not at {paths[0]}", name=fullname)
        loader = importlib.machinery.ExtensionFileLoader(fullname, path)
        extension = importlib.util.module_from_spec(importlib.util.spec_from_loader(fullname, loader))
        loader.exec_module(extension)
        # The module enters itself in sys.modules. Taken out, a later ``import
        # scipy.linalg`` imports it as usual (the extension hands back this same
        # module object) and binds it as that package's attribute.
        sys.modules.pop(fullname, None)
    capsule = extension.__pyx_capi__[name]
    as_py = ctypes.PYFUNCTYPE
    get_name = as_py(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = as_py(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT_P = ctypes.POINTER(ctypes.c_int)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_CHAR_P = ctypes.c_char_p
# void dtrsv(char *uplo, char *trans, char *diag, int *n, double *a, int *lda,
#            double *x, int *incx)
_DTRSV = _cython_function("cython_blas", "dtrsv",
                          _CHAR_P, _CHAR_P, _CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P)
# void dpotrf(char *uplo, int *n, double *a, int *lda, int *info)
_DPOTRF = _cython_function("cython_lapack", "dpotrf", _CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P)
_ONE = ctypes.c_int(1)
