"""The benchmark's contract with the program.

``perfbench/run.py --trace 1`` wraps every listed ``<layer>.<function>`` and
reads attributes of what some of them return. A renamed function or a
dropped attribute would otherwise show only when the benchmark runs.
"""

import json
from pathlib import Path

import numpy as np

import christoffel_outliers.cli  # noqa: F401  (imports every traced layer)
from christoffel_outliers import christoffel
from christoffel_outliers.kernels import KernelSpec

ROOT = Path(__file__).resolve().parents[1]


def test_traced_fit_and_scores_meet_the_benchmark_contract(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    # A fit of fewer than christoffel._SPLIT_MIN_N rows keeps the scoring on
    # the calling thread: the tracer's self-time stack is shared by all threads.
    t = tracer.Tracer()
    with t.installed():
        model = christoffel.fit_kic(X, KernelSpec.polynomial(2), C=500.0)
        christoffel.kic_scores(model, X)
        christoffel.ic_scores(X, X, 2)
    assert t.calls["linalg.spd_factor"] == 2
    assert t.counters["linalg.jitter_applied"] == 0

    # A kernel-route fit builds its Gram once, takes its norm once and
    # factors once; scoring adds none of these calls, so the benchmark's
    # kernels.gram_per_fit and linalg.gflop stay what they are.
    t = tracer.Tracer()
    with t.installed():
        model = christoffel.fit_kic(X, KernelSpec.rbf(1.0), C=500.0)
        christoffel.kic_scores(model, X)
        christoffel.kic_score(model, X[0])
    assert model.factorization.n == len(X) < christoffel._SPLIT_MIN_N
    for name in ("kernels.gram_matrix", "linalg.frobenius_norm", "linalg.spd_factor"):
        assert t.calls[name] == 1, name
    assert t.counters["kernels.evals"] == len(X) ** 2
    assert t.counters["linalg.flop"] == len(X) ** 3 / 3.0

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {m["name"][: -len(".calls")] for m in listed if m["name"].endswith(".calls")}
    assert functions
    assert sorted(functions - set(t.calls)) == []
