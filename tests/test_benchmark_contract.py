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

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {m["name"][: -len(".calls")] for m in listed if m["name"].endswith(".calls")}
    assert functions
    assert sorted(functions - set(t.calls)) == []
