"""Shared oracles and random-instance builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

from christoffel_outliers import apply_feature_map, build_feature_map, feature_matrix


def explicit_phi(X: np.ndarray, x: np.ndarray, d: int, rho: float) -> float:
    """Feature-space oracle for the kernelized score.

    Builds the scaled feature matrix V (columns v(x_i)/sqrt(n)) explicitly and
    evaluates v(x)^T (I + rho^{-1} V V^T)^{-1} v(x) by a dense solve.
    """
    n, p = X.shape
    fm = build_feature_map(p, d)
    V = feature_matrix(fm, X).T / math.sqrt(n)
    v = apply_feature_map(fm, x)
    A = np.eye(V.shape[0]) + (V @ V.T) / rho
    return float(v @ np.linalg.solve(A, v))


def explicit_moment_scores(X: np.ndarray, queries: np.ndarray, d: int) -> np.ndarray:
    """Dense-inverse oracle for the moment-matrix score, independent of the
    Cholesky path used by the library."""
    n, p = X.shape
    fm = build_feature_map(p, d)
    phi = feature_matrix(fm, X)
    M = phi.T @ phi / n
    Minv = np.linalg.inv(M)
    Q = feature_matrix(fm, queries)
    return np.einsum("ij,jk,ik->i", Q, Minv, Q)


def cdist_rbf(A: np.ndarray, B: np.ndarray, sigma: float) -> np.ndarray:
    """RBF kernel values between the rows of A and B from direct distances,
    sum_k (a_k - b_k)^2, which lose nothing to an offset shared by the rows."""
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma**2))


def cdist_rbf_scores(X: np.ndarray, queries: np.ndarray, sigma: float, rho: float) -> np.ndarray:
    """Kernelized RBF scores 1 - g^T (rho I + G/n)^{-1} g with g the scaled
    ``cdist_rbf`` column of each query, from one dense solve."""
    n = X.shape[0]
    K = cdist_rbf(X, queries, sigma) / math.sqrt(n)
    S = np.linalg.solve(rho * np.eye(n) + cdist_rbf(X, X, sigma) / n, K)
    return 1.0 - np.einsum("ij,ij->j", K, S)


def power_feature_matrix(fm, X: np.ndarray) -> np.ndarray:
    """Reference feature matrix: every coordinate raised to every exponent,
    an (n, s, p) array of powers multiplied along p."""
    return (X[:, None, :] ** fm.exponents).prod(axis=2) * fm.coefficients


def random_spd_triple(rng: np.random.Generator, n: int):
    """A consistent kernel-style triple (G, g, gamma) with gamma >= g^T G^+ g,
    built from explicit factors so the ridge objective is nonnegative."""
    B = rng.normal(size=(n + 2, n))
    v = rng.normal(size=n + 2)
    G = B.T @ B
    G = 0.5 * (G + G.T)
    g = B.T @ v
    gamma = float(v @ v)
    return G, g, gamma


def cluster_with_outlier(rng: np.random.Generator, n_cluster: int = 9, p: int = 2):
    """A tight cluster plus one far-away row appended last."""
    cluster = rng.normal(size=(n_cluster, p)) * 0.1
    outlier = np.full((1, p), 8.0)
    return np.vstack([cluster, outlier])
