"""Benchmark of the christoffel-outliers scoring pipeline.

    python3 perfbench/run.py --workload table --seed 0 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same tree; nothing is installed. With ``--trace 0`` the workload's closed
loop (one caller, one process) repeats its unit until ``--seconds`` have
passed, always finishing the unit in progress, and the end-to-end metrics of
BENCHMARK.json are reported. With ``--trace 1`` the run does one untraced
unit and then one traced unit of the same fixed work, so every count repeats
exactly for the same code and seed, and reports the per-layer metrics.

Every output is checked against ``oracle``; each operation that exits
non-zero, raises or disagrees counts as failed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it print each metric by name with its unit.
"""

from __future__ import annotations

import os

# Pinned before numpy loads. One BLAS thread: the caller is a single closed
# loop on a 2-core machine shared with other work, the per-query solves
# (n <= 1000) are too small to gain from a thread pool, and a second thread
# made single-query tail latency several times less steady in probes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The CLI reads CHRISTOFFEL_* variables as flag defaults; none may leak in.
for _var in [v for v in os.environ if v.startswith("CHRISTOFFEL_")]:
    del os.environ[_var]

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Import time is sampled in fresh interpreters: one in-process import is a
# single cold sample that varies by a fifth between runs and swamps the rest
# of set-up.
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, 'src'); "
    "import christoffel_outliers.cli; print(time.perf_counter() - start)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import numpy, scipy and the package from ./src."""
    sys.path.insert(0, str(ROOT / "src"))
    import christoffel_outliers.cli  # noqa: F401  (pulls in every layer)

    origin = Path(christoffel_outliers.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"christoffel_outliers was imported from {origin}, not {ROOT / 'src'}")


def fresh_import_seconds() -> list[float]:
    """Seconds to import the package in each of IMPORT_REPEATS new interpreters."""
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def measure_untraced(workload, seconds: float) -> tuple[dict, list[str]]:
    import_times = fresh_import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    unit_times: list[float] = []
    rows = 0
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        rows += workload.unit(len(unit_times))
        unit_times.append(time.perf_counter() - start)
        if time.perf_counter() - loop_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check()
    lat = workload.latencies_ms
    metrics = {
        "wall_s": statistics.median(unit_times),
        "rows_per_s": rows / sum(unit_times),
        "query_ms.p50": percentile(lat, 50),
        "query_ms.p90": percentile(lat, 90),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"units = {len(unit_times)} (wall_s is their median), score values = {rows}",
        f"query_ms samples = {len(lat)}; p99 = {percentile(lat, 99)} ms "
        f"(not gated: set by host interference bursts on a shared machine)",
        f"setup_s = median of {IMPORT_REPEATS} fresh-interpreter imports "
        + ", ".join(f"{t:.4f}" for t in import_times)
        + f" s + median of {SETUP_REPEATS} set-ups "
        + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
    ]
    return metrics, notes


def measure_traced(workload) -> tuple[dict, list[str]]:
    import tracer

    workload.setup()
    start = time.perf_counter()
    workload.unit(0)
    untraced = time.perf_counter() - start
    written_before = workload.bytes_written
    t = tracer.Tracer()
    with t.installed():
        start = time.perf_counter()
        workload.unit(1)
        traced = time.perf_counter() - start
    workload.check()
    fits = t.calls.get("christoffel.fit_kic", 0)
    metrics = {
        "kernels.evals": t.counters["kernels.evals"],
        "kernels.gram_per_fit": t.calls.get("kernels.gram_matrix", 0) / fits if fits else 0.0,
        "linalg.gflop": t.counters["linalg.flop"] / 1e9,
        "linalg.jitter_applied": t.counters["linalg.jitter_applied"],
        "dataio.bytes_read": t.counters["dataio.bytes_read"],
        "cli.bytes_written": workload.bytes_written - written_before,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.self_total_s": t.self_total(),
    }
    for name in t.calls:
        metrics[f"{name}.calls"] = t.calls[name]
        metrics[f"{name}.self_s"] = t.self_s[name]
    ranked = sorted(t.self_s, key=t.self_s.get, reverse=True)
    notes = [
        f"traced unit {traced:.4f} s, untraced unit {untraced:.4f} s, "
        f"self times sum to {t.self_total():.4f} s, "
        f"unattributed (benchmark glue) {traced - t.self_total():.4f} s",
        "kernels.evals and linalg.gflop are computed from argument shapes "
        "(gflop: n^3/3 per factorization, 2n^2 per solve column and objective)",
        "top self time: " + ", ".join(f"{n} {t.self_s[n]:.4f} s" for n in ranked[:6]),
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Relative paths keep output files (which echo their inputs) the same
    # wherever the tree is checked out.
    os.chdir(ROOT)
    work = Path(".perfbench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            measured, notes = measure_traced(workload)
        else:
            measured, notes = measure_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A listed function that a later program version renamed or inlined must
    # fail the run, not read as a cost of 0.
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if missing:
        print(f"listed metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    frac = workload.failed / workload.attempted if workload.attempted else 1.0
    print(f"failed_frac = {frac} ({workload.failed} failed of {workload.attempted} "
          f"attempted operations: CLI calls plus single queries)")
    for problem in workload.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
