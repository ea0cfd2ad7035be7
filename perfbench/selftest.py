"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it makes two traced runs
with the same seed and asserts that every exact count (call counts, kernel
evaluations, nominal flops, Gram-per-fit ratio, jitter count, bytes read
and written) is identical and that both runs are correct; then one short
untraced run on a second seed, which must also be correct. Last, it copies
only BENCHMARK.json and perfbench/ into a directory under .perfbench_work
and asserts that the benchmark fails there without printing a result. Takes about seven
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
TIMEOUT_S = 180
COUNT_UNITS = ("count", "ratio", "GFLOP", "bytes")
SEED = 0
SECOND_SEED = 1


def run(cwd: Path, workload: str, seed: int, trace: int, seconds: int = 1):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    failures: list[str] = []

    for w in (w["name"] for w in spec["workloads"]):
        results = []
        for _ in range(2):
            code, result, err = run(ROOT, w, SEED, trace=1)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{w} traced run failed (exit {code}): {err.strip()[-300:]}")
            results.append(result)
        if all(results):
            diff = [n for n in counts
                    if results[0]["metrics"][n]["value"] != results[1]["metrics"][n]["value"]]
            if diff:
                failures.append(f"{w}: counts differ between identical runs: {diff}")
            print(f"{w}: {len(counts)} counts identical across two traced runs"
                  if not diff else f"{w}: counts differ: {diff}")
        code, result, err = run(ROOT, w, SECOND_SEED, trace=0)
        ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
        if not ok:
            failures.append(f"{w} seed {SECOND_SEED} not clean (exit {code}): {err.strip()[-300:]}")
        print(f"{w}: seed {SECOND_SEED} {'clean' if ok else 'NOT clean'}")

    stripped = ROOT / ".perfbench_work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(stripped, spec["workloads"][0]["name"], SEED, trace=0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    if code == 0 or result is not None:
        failures.append(f"run without the program exited {code} and printed a result: {result}")
    print(f"without the program: exit {code}, result printed: {result is not None}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
