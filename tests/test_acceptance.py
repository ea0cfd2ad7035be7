"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output of failures). Criterion 5 runs the full-size synthetic
benchmark and takes several seconds; everything else is fast.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtri

from christoffel_outliers import (
    FeatureDimensionError,
    KernelSpec,
    build_feature_map,
    default_sigma,
    feature_matrix,
    fit_kic,
    ic_scores,
    kic_score,
    kic_scores,
    knn_scores,
    ksp2_scores,
    ksp_scores,
    normalize,
    pr_curve,
    synth_gaussian,
)
from christoffel_outliers.christoffel import FeatureMap, _ic_scores_from_map
from christoffel_outliers.dataio import DataMatrix
from christoffel_outliers.kernels import cross_vector
from christoffel_outliers.cli import main as cli_main

from helpers import explicit_phi


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


# ---------------------------------------------------------------------------
# 1. kernelized score equals the explicit feature-space value
# ---------------------------------------------------------------------------


def test_criterion_1_kernelization_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        rho = float(10.0 ** rng.uniform(-4, 0))
        X = rng.normal(size=(n, p))
        x = rng.normal(size=p) * 1.5
        kernel_value = kic_score(fit_kic(X, KernelSpec.polynomial(d), rho), x)
        explicit_value = explicit_phi(X, x, d, rho)
        rel = abs(kernel_value - explicit_value) / max(abs(explicit_value), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "kernelization exactness",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. lower bound on the moment-matrix score and convergence as rho -> 0
# ---------------------------------------------------------------------------


def test_criterion_2_lower_bound_and_convergence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    bound_ok = True
    gap_ok = True
    worst_gap = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        s = math.comb(p + d, d)
        n = s + int(rng.integers(5, 26))
        X = rng.normal(size=(n, p))
        queries = np.vstack([X[:3], rng.normal(size=(3, p)) * 1.5])
        q = ic_scores(X, queries, d)
        kernel = KernelSpec.polynomial(d)
        for k in range(1, 7):
            rho = 10.0 ** (-k)
            model = fit_kic(X, kernel, rho)
            bound = np.array([kic_score(model, row) for row in queries]) / rho
            if not np.all(bound <= q + 1e-6):
                bound_ok = False
        model = fit_kic(X, kernel, 1e-8)
        bound8 = np.array([kic_score(model, row) for row in queries]) / 1e-8
        gap = float(np.max(np.abs(bound8 - q) / q))
        worst_gap = max(worst_gap, gap)
        if gap >= 1e-4:
            gap_ok = False
    elapsed = time.perf_counter() - start
    _report(
        2,
        "lower bound and rho->0 convergence",
        bound_ok and gap_ok and elapsed < 10.0,
        f"worst gap at rho=1e-8: {worst_gap:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. the kernelized score equals the explicit-feature ridge minimum
# ---------------------------------------------------------------------------


def _ridge_minimum(X: np.ndarray, x: np.ndarray, d: int, rho: float) -> float:
    """min_theta ||V theta - v||^2 + rho ||theta||^2 over explicit features, with
    V the scaled feature matrix (columns v(x_i)/sqrt(n)) and v = v(x): the
    least-squares residual of the stacked system [V; sqrt(rho) I] theta = [v; 0]."""
    n, p = X.shape
    fm = build_feature_map(p, d)
    V = feature_matrix(fm, X).T / math.sqrt(n)
    A = np.vstack([V, math.sqrt(rho) * np.eye(n)])
    b = np.concatenate([feature_matrix(fm, [x])[0], np.zeros(n)])
    theta = np.linalg.lstsq(A, b, rcond=None)[0]
    r = A @ theta - b
    return float(r @ r)


def test_criterion_3_ridge_equivalence():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        rho = float(10.0 ** rng.uniform(-3, 0))
        X = rng.normal(size=(n, p))
        x = rng.normal(size=p) * 1.5
        score = kic_score(fit_kic(X, KernelSpec.polynomial(d), rho), x)
        minimum = _ridge_minimum(X, x, d, rho)
        rel = abs(score - minimum) / max(abs(minimum), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "kernelized score equals the explicit ridge minimum",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. polynomial kernel equals the explicit feature-map dot product
# ---------------------------------------------------------------------------


def test_criterion_4_kernel_identity():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    maps = {}
    worst = 0.0
    ok = True
    for _ in range(1000):
        p = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        x = rng.normal(size=p)
        y = rng.normal(size=p)
        fm = maps.setdefault((p, d), build_feature_map(p, d))
        direct = cross_vector(KernelSpec.polynomial(d), [x], y)[0][0]
        mapped = float(feature_matrix(fm, [x])[0] @ feature_matrix(fm, [y])[0])
        err = abs(direct - mapped)
        tol = 1e-10 * max(1.0, abs(mapped))
        worst = max(worst, err / tol)
        if err > tol:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        4,
        "kernel identity over 1000 draws",
        ok and elapsed < 2.0,
        f"worst err/tol {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. synthetic Gaussian benchmark: near-perfect AUPRC
# ---------------------------------------------------------------------------


def _gaussian_auprcs(p: int, seed: int) -> tuple[dict[str, float], dict[str, float]]:
    dm = normalize(synth_gaussian(dimension=p, seed=seed))
    X, labels = dm.values, dm.labels
    results = {}
    timings = {}

    start = time.perf_counter()
    results["KNN"] = pr_curve(knn_scores(X, 5), labels).auprc
    timings["KNN"] = time.perf_counter() - start

    start = time.perf_counter()
    kernel = KernelSpec.polynomial(2)
    results["KIC"] = pr_curve(kic_scores(fit_kic(X, kernel, C=500.0), X), labels).auprc
    timings["KIC"] = time.perf_counter() - start

    start = time.perf_counter()
    rbf = KernelSpec.rbf(default_sigma(p, "KIC"))
    results["KIC-RBF"] = pr_curve(kic_scores(fit_kic(X, rbf, C=500.0), X), labels).auprc
    timings["KIC-RBF"] = time.perf_counter() - start
    return results, timings


@pytest.mark.parametrize("p,label", [(50, "smoke"), (1000, "full")])
def test_criterion_5_gaussian_reproduction(p, label):
    min_auprc = {m: 1.0 for m in ("KNN", "KIC", "KIC-RBF")}
    max_time = {m: 0.0 for m in ("KNN", "KIC", "KIC-RBF")}
    for seed in range(5):
        results, timings = _gaussian_auprcs(p, seed)
        for method, value in results.items():
            min_auprc[method] = min(min_auprc[method], value)
            max_time[method] = max(max_time[method], timings[method])
    auprc_ok = all(v >= 0.99 for v in min_auprc.values())
    time_ok = all(t < 120.0 for t in max_time.values())
    detail = ", ".join(
        f"{m}: min AUPRC {min_auprc[m]:.4f}, max {max_time[m]:.1f}s" for m in min_auprc
    )
    _report(5, f"synthetic Gaussian p={p} ({label})", auprc_ok and time_ok, detail)


# ---------------------------------------------------------------------------
# 6. infeasible explicit basis fails fast; kernel route completes
# ---------------------------------------------------------------------------


def test_criterion_6_infeasibility_regime():
    start = time.perf_counter()
    with pytest.raises(FeatureDimensionError, match="feature dimension too large"):
        build_feature_map(784, 2)
    X784 = np.zeros((5, 784))
    with pytest.raises(FeatureDimensionError):
        ic_scores(X784, X784, 2)
    fail_time = time.perf_counter() - start

    rng = np.random.default_rng(106)
    dm = normalize(DataMatrix(values=rng.normal(size=(750, 784))))
    start = time.perf_counter()
    scores = kic_scores(fit_kic(dm.values, KernelSpec.polynomial(2), C=500.0), dm.values)
    kic_time = time.perf_counter() - start
    ok = fail_time < 1.0 and kic_time < 30.0 and np.all(np.isfinite(scores))
    _report(
        6,
        "explicit route fails fast at p=784, kernel route completes",
        ok,
        f"error path {fail_time * 1000:.0f}ms, kernel scores {kic_time:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. PR-curve hand cases reproduce exactly
# ---------------------------------------------------------------------------


def test_criterion_7_auprc_hand_cases():
    perfect = pr_curve([3.0, 2.0, 1.0], [1, 0, 0])
    worst = pr_curve([1.0, 2.0, 3.0], [1, 0, 0])
    tied = pr_curve([1.0, 1.0], [1, 0])

    def points(curve):
        return list(zip(curve.recalls, curve.precisions))

    ok = (
        perfect.auprc == 1.0
        and points(perfect) == [(1.0, 1.0), (1.0, 0.5), (1.0, 1.0 / 3.0)]
        and worst.auprc == 1.0 / 3.0
        and points(worst) == [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0 / 3.0)]
        and tied.auprc == 0.5
        and points(tied) == [(1.0, 0.5)]
    )
    _report(7, "PR hand cases (perfect 1.0, worst 1/3, tie 0.5)", ok)


# ---------------------------------------------------------------------------
# 8. bench produces a complete, well-formed row on user-supplied data
# ---------------------------------------------------------------------------


def test_criterion_8_bench_contract_on_prepared_csv(tmp_path):
    # Table values on the real Ionosphere data are not reproducible from
    # this artifact (acquisition and preparation are external); a stand-in
    # with the same shape (n=351, p=34, 126 outliers) exercises the
    # contract: complete row, deterministic std 0, values in [0, 1].
    rng = np.random.default_rng(108)
    n_inlier, n_outlier, p = 225, 126, 34
    inliers = np.vstack([
        rng.normal(size=(n_inlier // 2, p)) * 0.7 - 1.0,
        rng.normal(size=(n_inlier - n_inlier // 2, p)) * 0.7 + 1.0,
    ])
    outliers = rng.uniform(-6.0, 6.0, size=(n_outlier, p))
    values = np.vstack([inliers, outliers])
    labels = np.concatenate([np.zeros(n_inlier, int), np.ones(n_outlier, int)])
    path = tmp_path / "standin.csv"
    header = ",".join(f"f{j}" for j in range(p)) + ",outlier"
    lines = [header] + [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(values, labels)
    ]
    path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "bench.csv"
    methods = ["KNN", "KSP", "KSP2", "KIC", "KIC2", "KIC-RBF", "KIC-RBF2", "IC"]
    code = cli_main([
        "bench", "--method", ",".join(methods), "--input", str(path),
        "--label-column", "outlier", "--trials", "3", "--seed", "5",
        "--output", str(out),
    ])

    cells = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or not line.startswith("cell,"):
            continue
        _, dataset, method, value, std, trials = line.split(",")
        cells[method] = (value, std, trials)

    deterministic = set(methods) - {"KSP", "KSP2"}
    ok = code == 0 and set(cells) == set(methods)
    for method, (value, std, trials) in cells.items():
        if value == "-":
            # On this shape (n=351 < binomial(36,2)=630) the moment matrix is
            # singular, so IC is unavailable by contract; every kernelized and
            # distance method must still produce a value.
            if method != "IC":
                ok = False
            continue
        if not 0.0 <= float(value) <= 1.0:
            ok = False
        if method in deterministic and float(std) != 0.0:
            ok = False
        if method in ("KSP", "KSP2") and int(trials) != 3:
            ok = False
    _report(8, "bench contract on prepared CSV (complete row, std 0, [0,1])", ok,
            f"{len(cells)} methods")


# ---------------------------------------------------------------------------
# 9. property suites, 100 randomized cases each
# ---------------------------------------------------------------------------


def _prop_ordering_invariance(rng) -> bool:
    for _ in range(100):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        n = math.comb(p + d, d) + int(rng.integers(5, 15))
        X = rng.normal(size=(n, p))
        queries = rng.normal(size=(4, p))
        fm = build_feature_map(p, d)
        perm = rng.permutation(fm.dimension)
        shuffled = FeatureMap(
            exponents=fm.exponents[perm], coefficients=fm.coefficients[perm], degree=d
        )
        a = _ic_scores_from_map(fm, X, queries)
        b = _ic_scores_from_map(shuffled, X, queries)
        if not np.all(np.abs(a - b) <= 1e-10 * np.maximum(1.0, np.abs(a))):
            return False
    return True


def _prop_monotone_phi(rng) -> bool:
    rhos = (1e-6, 1e-4, 1e-2, 1.0, 1e2)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        x = rng.normal(size=p)
        if rng.random() < 0.5:
            kernel = KernelSpec.polynomial(int(rng.integers(1, 4)))
        else:
            kernel = KernelSpec.rbf(float(rng.uniform(0.5, 2.0)))
        values = [kic_score(fit_kic(X, kernel, rho), x) for rho in rhos]
        if not np.all(np.diff(values) >= -1e-10 * max(max(values), 1.0)):
            return False
    return True


def _prop_knn_scale(rng) -> bool:
    for _ in range(100):
        n = int(rng.integers(5, 21))
        p = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(5, n - 1) + 1))
        X = rng.normal(size=(n, p))
        base = knn_scores(X, k)
        if not np.array_equal(knn_scores(2.0 * X, k), 2.0 * base):
            return False
        c = float(rng.uniform(0.3, 3.0))
        scaled = knn_scores(c * X, k)
        if not np.allclose(scaled, c * base, rtol=1e-10):
            return False
        if not np.array_equal(np.argsort(base, kind="stable"),
                              np.argsort(scaled, kind="stable")):
            return False
    return True


def _prop_normalize_idempotent(rng) -> bool:
    for _ in range(100):
        n = int(rng.integers(2, 30))
        p = int(rng.integers(1, 6))
        values = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0) + rng.normal() * 5.0
        if p > 1 and rng.random() < 0.3:
            values[:, 0] = rng.normal()  # constant column
        once = normalize(DataMatrix(values=values))
        twice = normalize(once)
        if not np.all(np.abs(twice.values - once.values) <= 1e-10):
            return False
    return True


def _prop_seed_determinism(rng) -> bool:
    for _ in range(100):
        n = int(rng.integers(3, 25))
        p = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2**32))
        X = rng.normal(size=(n, p))
        if not np.array_equal(ksp_scores(X, 4, seed), ksp_scores(X, 4, seed)):
            return False
        if not np.array_equal(
            ksp2_scores(X, 4, 0.5, seed), ksp2_scores(X, 4, 0.5, seed)
        ):
            return False
    for seed in (0, 1, 2):
        cfg = dict(num_clusters=2, samples_per_cluster=8, num_outliers=3, dimension=5, seed=seed)
        if not np.array_equal(synth_gaussian(**cfg).values, synth_gaussian(**cfg).values):
            return False
    return True


def test_criterion_9_property_suites():
    rng = np.random.default_rng(109)
    suites = {
        "ic ordering invariance": _prop_ordering_invariance(rng),
        "monotone phi in rho": _prop_monotone_phi(rng),
        "knn scale equivariance": _prop_knn_scale(rng),
        "normalize idempotence": _prop_normalize_idempotent(rng),
        "seed determinism": _prop_seed_determinism(rng),
    }
    failed = [name for name, result in suites.items() if not result]
    _report(9, "property suites (100 cases each)", not failed,
            "all green" if not failed else f"failed: {failed}")


# ---------------------------------------------------------------------------
# 10. training-row scores equal the ridge-leverage identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["poly", "rbf"])
@pytest.mark.parametrize("p", [2, 20, 1000])
def test_criterion_10_training_scores_match_leverage_identity(p, family):
    # With A = rho I + G/n = L L^T and a_ii = [A^-1]_ii, a training row scores
    # exactly n rho (1 - rho a_ii) (Pauwels, Bach & Vert, NeurIPS 2018), and
    # a_ii is the squared norm of column i of L^-1: an oracle that shares no
    # kernel row, trsv or dot product with kic_scores.
    X = normalize(synth_gaussian(dimension=p, seed=0)).values
    kernel = KernelSpec.polynomial(2) if family == "poly" else KernelSpec.rbf(math.sqrt(p) / 2.0)
    start = time.perf_counter()
    model = fit_kic(X, kernel, C=500.0)
    scores = kic_scores(model, model.training)
    inverse, info = dtrtri(model.factorization.lower, lower=1)
    assert info == 0
    n, rho = model.n, model.rho
    identity = n * rho * (1.0 - rho * np.einsum("ki,ki->i", inverse, inverse))
    worst = float(np.max(np.abs(scores - identity) / np.abs(identity)))
    elapsed = time.perf_counter() - start
    _report(10, f"leverage identity {family} p={p}", worst <= 1e-9,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")
