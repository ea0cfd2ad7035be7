"""The three benchmark workloads: inputs, one closed-loop unit, output checks.

Each workload generates its inputs from the seed with its own numpy
generator (the program only ever sees the written CSV files and arrays),
drives the program through ``cli.main`` and the library entry points, and
records every output so that ``check`` can compare it with the independent
reference in ``oracle`` after timing ends.

Every unit of every workload ends with a block of single-point
``kic_score`` calls on fresh out-of-sample points against a model fitted
during set-up, so the single-query latency is measured on each data shape.
A unit's query points are drawn from the seed and the unit index, and drawn
again for the check, so that the benchmark holds no more of them than one
block and the peak RSS stays the program's.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from christoffel_outliers import christoffel, cli, dataio, kernels

import oracle

METHODS = ("IC", "KIC", "KIC2", "KIC-RBF", "KIC-RBF2", "KNN", "KSP", "KSP2")
TRIALS = 30
CLUSTERS = 5
OUTLIERS = 30


def gaussian_benchmark(rng, p: int, per_cluster: int) -> tuple[np.ndarray, np.ndarray]:
    """Clustered Gaussian inliers plus box-uniform outliers (labels 1 last)."""
    means = rng.standard_normal((CLUSTERS, p))
    variances = np.abs(rng.standard_normal((CLUSTERS, p)))
    inliers = np.vstack([
        means[c] + rng.standard_normal((per_cluster, p)) * np.sqrt(variances[c])
        for c in range(CLUSTERS)
    ])
    outliers = rng.uniform(inliers.min(axis=0), inliers.max(axis=0), size=(OUTLIERS, p))
    labels = np.r_[np.zeros(inliers.shape[0], int), np.ones(OUTLIERS, int)]
    return np.vstack([inliers, outliers]), labels


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """Round-trip precision CSV, written row by row so that the benchmark's
    own memory stays small next to the program's peak."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"f{j + 1}" for j in range(X.shape[1])) + ",outlier\n")
        for row, label in zip(X, y.tolist()):
            handle.write(",".join(map(repr, row.tolist())) + f",{label}\n")


def data_rows(path: Path) -> list[str]:
    """Non-comment lines of an output file."""
    text = path.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


class Workload:
    """Shared bookkeeping: operations attempted and failed, latencies, outputs."""

    name = ""
    queries_per_unit = 1000

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies_ms: list[float] = []
        self.bytes_written = 0
        # unit index -> (scores, mask of queries that returned a score)
        self.query_values: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def query_rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 7, index])

    def queries(self, index: int) -> np.ndarray:
        """The out-of-sample query points of unit ``index``."""
        raise NotImplementedError

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def run_cli(self, argv: list[str], output: Path) -> bool:
        self.attempted += 1
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, not a dead run
            self.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
            return False
        if code != 0:
            self.fail(f"{argv[0]} exited with {code}")
            return False
        self.bytes_written += output.stat().st_size
        return True

    def query_block(self, models, index: int) -> int:
        """Closed-loop single-point scoring of unit ``index``'s queries,
        cycling through ``models``."""
        points = self.queries(index)
        values = np.zeros(len(points))
        returned = np.zeros(len(points), dtype=bool)
        for i, q in enumerate(points):
            self.attempted += 1
            start = time.perf_counter()
            try:
                values[i] = christoffel.kic_score(models[i % len(models)], q)
            except Exception as exc:
                self.fail(f"kic_score raised {type(exc).__name__}: {exc}")
                continue
            self.latencies_ms.append((time.perf_counter() - start) * 1e3)
            returned[i] = True
        self.query_values[index] = (values, returned)
        return len(points)

    def fit_library(self, X: np.ndarray, spec) -> object:
        """Fit through the library as a user would, rho by the default rule."""
        G = kernels.gram_matrix(spec, X)
        rho = christoffel.default_rho(G / X.shape[0], oracle.C_RULE)
        return christoffel.fit_kic(X, spec, rho)

    def check_queries(self, refs) -> None:
        """Compare every single-query result with the batched reference."""
        bad = 0
        for index, (got, done) in self.query_values.items():
            Q = self.queries(index)
            expected = np.empty(len(Q))
            gamma = np.empty(len(Q))
            for which, ref in enumerate(refs):
                idx = np.arange(which, len(Q), len(refs))
                expected[idx] = ref.query_scores(Q[idx])
                gamma[idx] = oracle.self_kernel(ref.kind, ref.param, Q[idx])
            bad += int((~oracle.scores_match(got[done], expected[done], gamma[done])).sum())
        if bad:
            self.fail(f"{bad} single-query scores differ from the reference", bad)

    def check_scores(self, path: Path, header: str, expected: np.ndarray,
                     gamma: np.ndarray, coords: np.ndarray | None = None) -> None:
        """One failed operation if the file is malformed or any score disagrees.

        The score is the last column; ``coords``, when given, must match the
        leading columns.
        """
        try:
            rows = data_rows(path)
            table = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        except (OSError, ValueError) as exc:
            self.fail(f"{path.name}: unreadable ({exc})")
            return
        width = 1 if coords is None else 1 + coords.shape[1]
        if (rows[0] != header or table.shape != (len(expected), width)
                or (coords is not None
                    and not np.allclose(table[:, :-1], coords, rtol=0.0, atol=1e-12))):
            self.fail(f"{path.name}: malformed output")
            return
        bad = int((~oracle.scores_match(table[:, -1], expected, gamma)).sum())
        if bad:
            self.fail(f"{path.name}: {bad} scores differ from the reference")


class Table(Workload):
    """One ``bench`` call: eight methods on two n=1000 sets, p=20 and p=50."""

    name = "table"
    dims = (20, 50)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.data = {}
        for p in self.dims:
            X, y = gaussian_benchmark(rng, p, 194)
            path = self.work / f"gauss_p{p}.csv"
            write_csv(path, X, y)
            self.data[p] = (str(path), X, y)
        X50 = dataio.normalize(dataio.DataMatrix(self.data[50][1])).values
        self.model = self.fit_library(X50, kernels.KernelSpec.polynomial(oracle.DEGREE))
        self.outputs: list[Path] = []
        warm = self.work / "warm.csv"
        Xw, yw = gaussian_benchmark(np.random.default_rng([self.seed, 2]), 3, 10)
        write_csv(warm, Xw, yw)
        out = self.work / "warm_table.csv"
        if cli.main(["bench", "--method", ",".join(METHODS), "--input", str(warm),
                     "--label-column", "outlier", "--trials", "2", "--output", str(out)]) != 0:
            raise RuntimeError("warm-up bench call failed")
        for q in np.random.default_rng(0).standard_normal((10, 50)):
            christoffel.kic_score(self.model, q)

    def unit(self, index: int) -> int:
        out = self.work / f"table_{index}.csv"
        argv = ["bench", "--method", ",".join(METHODS)]
        for p in self.dims:
            argv += ["--input", self.data[p][0]]
        argv += ["--label-column", "outlier", "--trials", str(TRIALS),
                 "--seed", str(self.seed), "--output", str(out)]
        rows = 0
        if self.run_cli(argv, out):
            self.outputs.append(out)
            sizes = {path: len(X) for path, X, _ in self.data.values()}
            for line in data_rows(out):
                record, dataset, _, _, _, trials = line.split(",")
                if record == "cell" and trials != "-":
                    rows += sizes[dataset] * int(trials)
        return rows + self.query_block([self.model], index)

    def queries(self, index: int) -> np.ndarray:
        return self.query_rng(index).standard_normal((self.queries_per_unit, 50))

    def check(self) -> None:
        datasets = [(self.data[p][0], oracle.zscore(self.data[p][1]), self.data[p][2])
                    for p in self.dims]
        sigma = {"KIC": lambda p: math.sqrt(p) / 2.0, "KIC2": lambda p: math.sqrt(p) / 4.0}
        expected = oracle.bench_cells(datasets, METHODS, TRIALS, self.seed, sigma)
        for out in self.outputs:
            self._check_table(out, expected)
        self.check_queries([oracle.KicReference(datasets[1][1], "poly", oracle.DEGREE)])

    def _check_table(self, out: Path, expected: dict) -> None:
        names = [self.data[p][0] for p in self.dims]
        cells, rows = {}, {}
        for line in data_rows(out)[1:]:
            record, dataset, method, value, std, trials = line.split(",")
            if record == "cell":
                cells[(dataset, method)] = (value, std, trials)
            else:
                rows[(record, method)] = value
        if set(cells) != set(expected):
            self.fail(f"{out.name}: cell set differs")
            return
        mismatches = []
        means = {}
        for key, want in expected.items():
            got = cells[key]
            if want is None or got[0] == "-":
                means[key] = None
                if want is not None or got != ("-", "-", "-"):
                    mismatches.append(f"{key}: got {got}, expected {want or '-'}")
                continue
            means[key] = float(got[0])
            if not (abs(float(got[0]) - want[0]) <= oracle.TABLE_ATOL
                    and abs(float(got[1]) - want[1]) <= oracle.TABLE_ATOL
                    and int(got[2]) == want[2]):
                mismatches.append(f"{key}: got {got}, expected {want}")
        if not mismatches:
            agg = oracle.aggregates(means, names, METHODS)
            if set(rows) != set(agg):
                mismatches.append("aggregate row set differs")
            else:
                mismatches += [f"{key}: got {rows[key]}, expected {want}"
                               for key, want in agg.items()
                               if not abs(float(rows[key]) - want) <= oracle.TABLE_ATOL]
        if mismatches:
            self.fail(f"{out.name}: " + "; ".join(mismatches[:3]))


class ScoreWide(Workload):
    """``score`` with KIC and KIC-RBF on a 1000 x 1000 CSV."""

    name = "score-p1000"
    p = 1000

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.X, self.y = gaussian_benchmark(rng, self.p, 194)
        self.path = self.work / "gauss_p1000.csv"
        write_csv(self.path, self.X, self.y)
        Xn = dataio.normalize(dataio.DataMatrix(self.X)).values
        self.model = self.fit_library(Xn, kernels.KernelSpec.polynomial(oracle.DEGREE))
        self.outputs: list[tuple[str, Path]] = []
        warm = self.work / "warm.csv"
        Xw, yw = gaussian_benchmark(np.random.default_rng([self.seed, 4]), 3, 10)
        write_csv(warm, Xw, yw)
        for method in ("KIC", "KIC-RBF"):
            if cli.main(["score", "--method", method, "--input", str(warm), "--label-column",
                         "outlier", "--output", str(self.work / "warm_out.csv")]) != 0:
                raise RuntimeError("warm-up score call failed")
        for q in np.random.default_rng(0).standard_normal((10, self.p)):
            christoffel.kic_score(self.model, q)

    def unit(self, index: int) -> int:
        rows = 0
        for method in ("KIC", "KIC-RBF"):
            out = self.work / f"score_{method}_{index}.csv"
            argv = ["score", "--method", method, "--input", str(self.path),
                    "--label-column", "outlier", "--output", str(out)]
            if self.run_cli(argv, out):
                self.outputs.append((method, out))
                rows += self.X.shape[0]
        return rows + self.query_block([self.model], index)

    def queries(self, index: int) -> np.ndarray:
        return self.query_rng(index).standard_normal((self.queries_per_unit, self.p))

    def check(self) -> None:
        Xn = oracle.zscore(self.X)
        refs = {
            "KIC": oracle.KicReference(Xn, "poly", oracle.DEGREE),
            "KIC-RBF": oracle.KicReference(Xn, "rbf", math.sqrt(self.p) / 2.0),
        }
        expected = {m: r.training_scores() for m, r in refs.items()}
        for method, out in self.outputs:
            self.check_scores(out, "score", expected[method], np.diag(refs[method].G))
        self.check_queries([refs["KIC"]])


class Queries2d(Workload):
    """Contour grids plus a single-query stream on a fitted 2-feature model."""

    name = "queries-2d"
    per_cluster = 94  # n = 5 * 94 + 30 = 500 training rows
    grid = (-3.0, 3.0, 30)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 5])
        self.X, self.y = gaussian_benchmark(rng, 2, self.per_cluster)
        self.path = self.work / "gauss_p2.csv"
        write_csv(self.path, self.X, self.y)
        Xn = dataio.normalize(dataio.DataMatrix(self.X)).values
        self.models = [
            self.fit_library(Xn, kernels.KernelSpec.polynomial(oracle.DEGREE)),
            self.fit_library(Xn, kernels.KernelSpec.rbf(christoffel.default_sigma(2, "KIC"))),
        ]
        self.outputs: list[tuple[str, Path]] = []
        for method in ("KIC", "KIC-RBF"):
            if cli.main(["contour", "--method", method, "--input", str(self.path),
                         "--label-column", "outlier", "--grid=-1,1,3,-1,1,3",
                         "--output", str(self.work / "warm_grid.csv")]) != 0:
                raise RuntimeError("warm-up contour call failed")
        for q in np.random.default_rng(0).uniform(-3.0, 3.0, size=(10, 2)):
            christoffel.kic_score(self.models[0], q)

    def unit(self, index: int) -> int:
        lo, hi, steps = self.grid
        spec = f"--grid={lo},{hi},{steps},{lo},{hi},{steps}"
        rows = 0
        for method in ("KIC", "KIC-RBF"):
            out = self.work / f"grid_{method}_{index}.csv"
            argv = ["contour", "--method", method, "--input", str(self.path),
                    "--label-column", "outlier", spec, "--output", str(out)]
            if self.run_cli(argv, out):
                self.outputs.append((method, out))
                rows += steps * steps
        return rows + self.query_block(self.models, index)

    def queries(self, index: int) -> np.ndarray:
        lo, hi, _ = self.grid
        return self.query_rng(index).uniform(lo, hi, size=(self.queries_per_unit, 2))

    def check(self) -> None:
        Xn = oracle.zscore(self.X)
        refs = [oracle.KicReference(Xn, "poly", oracle.DEGREE),
                oracle.KicReference(Xn, "rbf", math.sqrt(2.0) / 2.0)]
        lo, hi, steps = self.grid
        axis = np.linspace(lo, hi, steps)
        grid = np.array([(x, y) for y in axis for x in axis])
        expected = {"KIC": refs[0].query_scores(grid), "KIC-RBF": refs[1].query_scores(grid)}
        gamma = {"KIC": oracle.self_kernel("poly", oracle.DEGREE, grid), "KIC-RBF": np.ones(len(grid))}
        for method, out in self.outputs:
            self.check_scores(out, "x,y,score", expected[method], gamma[method], coords=grid)
        self.check_queries(refs)


WORKLOADS = {w.name: w for w in (Table, ScoreWide, Queries2d)}

