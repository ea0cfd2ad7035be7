"""Command-line front end.

Four subcommands: ``score`` writes one outlierness score per input row,
``bench`` evaluates methods x datasets into an AUPRC table, ``synth``
generates the synthetic Gaussian benchmark and ``contour`` emits a score
grid for external contour plotting.

Output files are CSV with a '#'-prefixed metadata header that pins method,
hyperparameters, seed and normalization convention, so a file can be
reproduced byte for byte with the same binary. Every flag can also be set
through an environment variable with the ``CHRISTOFFEL_`` prefix
(command-line values win).

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import knn_scores, ksp2_scores, ksp_scores
from .christoffel import (
    DEFAULT_FEATURE_DIM_LIMIT,
    FeatureDimensionError,
    MomentMatrixError,
    default_sigma,
    fit_kic,
    grid_scores,
    ic_scores,
    kic2_scores,
    kic_scores,
)
from .dataio import CsvFormatError, DataMatrix, SynthGaussianConfig, load_csv, normalize, synth_gaussian
from .evaluation import pr_curve, summarize
from .kernels import KernelSpec
from .linalg import ConvergenceError, NotPositiveDefiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ENV_PREFIX = "CHRISTOFFEL_"
PRNG_NAME = "numpy-PCG64"

METHODS = ("IC", "KIC", "KIC2", "KIC-RBF", "KIC-RBF2", "KNN", "KSP", "KSP2")
RANDOMIZED_METHODS = {"KSP", "KSP2"}

# Method-specific flags: type, value when omitted, accepted range on n rows
# and that range in words. Supplying one for a method outside its
# _METHOD_FLAGS column is a configuration error caught before any
# computation.
_HYPERPARAMETERS = {
    "degree": (int, 2, lambda v, n: v >= 1, "be >= 1"),
    "C": (float, 500.0, lambda v, n: v > 0, "be positive"),
    "rho": (float, None, lambda v, n: v > 0, "be positive"),
    "sigma": (float, None, lambda v, n: v > 0, "be positive"),
    "alpha": (float, 0.6, lambda v, n: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "k": (int, 5, lambda v, n: 1 <= v <= n - 1, "satisfy 1 <= k <= n - 1 = {m}"),
    "sample_size": (int, 20, lambda v, n: v >= 1, "be >= 1"),
    "feature_dim_limit": (int, DEFAULT_FEATURE_DIM_LIMIT, lambda v, n: v >= 1, "be >= 1"),
}

_METHOD_FLAGS = {
    "IC": {"degree", "feature_dim_limit"},
    "KIC": {"degree", "C", "rho"},
    "KIC2": {"degree", "C", "alpha"},
    "KIC-RBF": {"sigma", "C", "rho"},
    "KIC-RBF2": {"sigma", "C", "alpha"},
    "KNN": {"k"},
    "KSP": {"sample_size"},
    "KSP2": {"sample_size", "alpha"},
}

_NUMERIC_ERRORS = (
    FeatureDimensionError,
    MomentMatrixError,
    NotPositiveDefiniteError,
    ConvergenceError,
    np.linalg.LinAlgError,
)


class ConfigError(Exception):
    """Invalid flag combination or invalid run configuration."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="christoffel-outliers",
        description="Christoffel-function outlier scoring, benchmarking and synthesis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, multi_input=False):
        if multi_input:
            p.add_argument("--input", action="append", default=None,
                           help="input CSV path(s); repeat or comma-separate")
        else:
            p.add_argument("--input", default=None, help="input CSV path")
        p.add_argument("--output", default=None, help="output file path")
        p.add_argument("--label-column", dest="label_column", default=None,
                       help="label column name or zero-based index")
        p.add_argument("--no-normalize", dest="no_normalize", action="store_true",
                       default=False, help="skip zero-mean unit-variance normalization")

    def add_method(p, multi=False):
        if multi:
            p.add_argument("--method", action="append", default=None,
                           help="method name(s); repeat or comma-separate")
        else:
            p.add_argument("--method", default=None, help="method name")

    def add_hyper(p):
        p.add_argument("--degree", default=None, help="polynomial degree d")
        p.add_argument("--C", dest="C", default=None, help="regularization divisor C")
        p.add_argument("--rho", default=None, help="explicit rho, bypassing the C rule")
        p.add_argument("--sigma", default=None, help="RBF lengthscale")
        p.add_argument("--alpha", default=None, help="filtered-variant keep fraction")
        p.add_argument("--k", default=None, help="neighbor count for KNN")
        p.add_argument("--sample-size", dest="sample_size", default=None,
                       help="subsample size for KSP/KSP2")
        p.add_argument("--feature-dim-limit", dest="feature_dim_limit", default=None,
                       help="monomial feature dimension cap for IC")
        p.add_argument("--seed", default=None, help="PRNG seed")

    p_score = sub.add_parser("score", help="score every row of a dataset")
    add_io(p_score)
    add_method(p_score)
    add_hyper(p_score)

    p_bench = sub.add_parser("bench", help="AUPRC benchmark over datasets x methods")
    add_io(p_bench, multi_input=True)
    add_method(p_bench, multi=True)
    add_hyper(p_bench)
    p_bench.add_argument("--trials", default=None,
                         help="trials for randomized methods (default 30)")

    p_synth = sub.add_parser("synth", help="generate the synthetic Gaussian benchmark")
    p_synth.add_argument("--output", default=None)
    p_synth.add_argument("--seed", default=None)
    p_synth.add_argument("--dimension", default=None, help="feature count (default 1000)")
    p_synth.add_argument("--clusters", default=None, help="cluster count (default 5)")
    p_synth.add_argument("--samples-per-cluster", dest="samples_per_cluster",
                         default=None, help="inliers per cluster (default 194)")
    p_synth.add_argument("--outliers", default=None, help="outlier count (default 30)")
    p_synth.add_argument("--variance-repair", dest="variance_repair", default=None,
                         help="'abs' (default) or 'square'")

    p_contour = sub.add_parser("contour", help="score grid for contour plotting")
    add_io(p_contour)
    add_method(p_contour)
    add_hyper(p_contour)
    p_contour.add_argument("--grid", default=None,
                           help="x_lo,x_hi,x_steps,y_lo,y_hi,y_steps")

    return parser


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper())


def _resolve(args, field: str, cast, default=None):
    """Command-line value, else environment value, else default."""
    value = getattr(args, field, None)
    if value is None or value is False:
        env_value = _env(field)
        if env_value is not None:
            value = env_value
        elif value is None:
            return default
    if isinstance(value, str) and cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            raise ConfigError(f"invalid value for --{field.replace('_', '-')}: {value!r}")
    if cast is bool:
        if isinstance(value, bool):
            return value
        return str(value).strip().lower() in ("1", "true", "yes", "on")
    return cast(value) if not isinstance(value, cast) else value


def _given(args, field: str) -> bool:
    value = getattr(args, field, None)
    if isinstance(value, bool):
        return value or _env(field) is not None
    return value is not None or _env(field) is not None


def _split_multi(args, field: str) -> list[str]:
    value = getattr(args, field, None)
    if value is None:
        env_value = _env(field)
        if env_value is None:
            return []
        value = env_value
    if isinstance(value, str):
        value = [value]
    flat: list[str] = []
    for item in value:
        flat.extend(part.strip() for part in str(item).split(",") if part.strip())
    return flat


def _check_method_flags(args, methods: list[str]) -> None:
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    allowed = set().union(*(_METHOD_FLAGS[m] for m in methods))
    for flag in _HYPERPARAMETERS:
        if _given(args, flag) and flag not in allowed:
            pretty = "--" + flag.replace("_", "-")
            raise ConfigError(
                f"{pretty} does not apply to method(s) {', '.join(methods)}"
            )


def _method_params(method: str, p: int, n: int, args) -> dict:
    """Effective hyperparameters for one method on n x p data.

    Raises:
        ConfigError: if a value lies outside the range its method accepts.
    """
    params: dict = {}
    for flag, (cast, default, accepts, rule) in _HYPERPARAMETERS.items():
        if flag not in _METHOD_FLAGS[method]:
            continue
        if method == "KSP2" and flag == "alpha":
            default = 0.5
        value = _resolve(args, flag, cast, default)
        if value is not None and not accepts(value, n):
            pretty = "--" + flag.replace("_", "-")
            raise ConfigError(f"{pretty} must {rule.format(m=n - 1)}, got {value}")
        params[flag] = value
    if method in ("KIC-RBF", "KIC-RBF2") and params["sigma"] is None:
        params["sigma"] = default_sigma(p, "KIC" if method == "KIC-RBF" else "KIC2")
    return params


def _seed(args) -> int:
    """The PRNG seed: command line, environment or 0; must be >= 0."""
    seed = _resolve(args, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    return seed


def _kernel(method: str, params: dict) -> KernelSpec:
    """Polynomial kernel for KIC/KIC2, RBF for KIC-RBF/KIC-RBF2; bad values are ConfigErrors."""
    try:
        if method.startswith("KIC-RBF"):
            return KernelSpec.rbf(params["sigma"])
        return KernelSpec.polynomial(params["degree"])
    except ValueError as exc:
        raise ConfigError(str(exc))


def _fit(method: str, X: np.ndarray, params: dict):
    """Fit a KIC or KIC-RBF model and record its effective rho in ``params``."""
    model = fit_kic(X, _kernel(method, params), params["rho"], params["C"])
    params["rho"] = model.rho
    return model


def _run_method(method: str, X: np.ndarray, params: dict, seed: int) -> np.ndarray:
    if method == "IC":
        return ic_scores(X, X, params["degree"], dim_limit=params["feature_dim_limit"])
    if method in ("KIC", "KIC-RBF"):
        return kic_scores(_fit(method, X, params), X)
    if method in ("KIC2", "KIC-RBF2"):
        return kic2_scores(X, _kernel(method, params), params["C"], params["alpha"])
    if method == "KNN":
        return knn_scores(X, params["k"])
    if method == "KSP":
        return ksp_scores(X, params["sample_size"], seed)
    if method == "KSP2":
        return ksp2_scores(X, params["sample_size"], params["alpha"], seed)
    raise ConfigError(f"unknown method {method!r}")


def _fmt(x) -> str:
    return repr(float(x))


def _csv_lines(rows) -> list[str]:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue().splitlines()


def _meta_lines(pairs) -> list[str]:
    return [f"# {key} = {value}" for key, value in pairs]


def _write_file(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _base_meta(command: str, normalize_on: bool, seed: int) -> list[tuple[str, str]]:
    return [
        ("tool", "christoffel-outliers"),
        ("version", __version__),
        ("command", command),
        ("normalize", "population-zscore" if normalize_on else "none"),
        ("seed", str(seed)),
        ("prng", PRNG_NAME),
    ]


def _load_for_run(args, path: str, normalize_on: bool) -> DataMatrix:
    label_column = _resolve(args, "label_column", str, None)
    dm = load_csv(path, label_column=label_column)
    if normalize_on:
        dm = normalize(dm)
    return dm


def _cmd_score(args) -> None:
    methods = _split_multi(args, "method")
    if len(methods) != 1:
        raise ConfigError("score requires exactly one --method")
    method = methods[0]
    _check_method_flags(args, [method])
    input_path = _resolve(args, "input", str, None)
    output_path = _resolve(args, "output", str, None)
    if not input_path or not output_path:
        raise ConfigError("score requires --input and --output")
    normalize_on = not _resolve(args, "no_normalize", bool, False)
    seed = _seed(args)

    dm = _load_for_run(args, input_path, normalize_on)
    params = _method_params(method, dm.p, dm.n, args)
    scores = _run_method(method, dm.values, params, seed)

    meta = _base_meta("score", normalize_on, seed)
    meta.append(("method", method))
    meta.append(("input", str(input_path)))
    for key in sorted(params):
        meta.append((key, str(params[key])))
    lines = _meta_lines(meta)
    lines.append("score")
    lines.extend(_fmt(s) for s in scores)
    _write_file(output_path, lines)


def _cmd_bench(args) -> None:
    methods = _split_multi(args, "method")
    inputs = _split_multi(args, "input")
    if not methods:
        raise ConfigError("bench requires --method")
    if not inputs:
        raise ConfigError("bench requires --input")
    _check_method_flags(args, methods)
    output_path = _resolve(args, "output", str, None)
    if not output_path:
        raise ConfigError("bench requires --output")
    normalize_on = not _resolve(args, "no_normalize", bool, False)
    seed = _seed(args)
    trials = _resolve(args, "trials", int, 30)
    if trials < 1:
        raise ConfigError("--trials must be >= 1")

    datasets: list[tuple[str, DataMatrix]] = []
    for path in inputs:
        dm = _load_for_run(args, path, normalize_on)
        if dm.labels is None:
            raise ConfigError(
                f"dataset {path} has no labels; bench requires --label-column"
            )
        if int(dm.labels.sum()) in (0, dm.n):
            raise ConfigError(f"dataset {path} has degenerate labels (single class)")
        datasets.append((str(path), dm))

    cells: dict[tuple[str, str], list[float] | None] = {}
    for name, dm in datasets:
        labels = dm.labels
        for method in methods:
            try:
                params = _method_params(method, dm.p, dm.n, args)
                runs = trials if method in RANDOMIZED_METHODS else 1
                values = []
                for trial in range(runs):
                    scores = _run_method(method, dm.values, params, seed + trial)
                    values.append(pr_curve(scores, labels).auprc)
                cells[(name, method)] = values
            except _NUMERIC_ERRORS:
                cells[(name, method)] = None

    table = summarize(cells, datasets=[n for n, _ in datasets], methods=methods)

    meta = _base_meta("bench", normalize_on, seed)
    meta.append(("methods", ",".join(methods)))
    meta.append(("inputs", ",".join(inputs)))
    meta.append(("trials", str(trials)))
    for flag in _HYPERPARAMETERS:
        if _given(args, flag):
            meta.append((flag, str(_resolve(args, flag, str, None))))
    lines = _meta_lines(meta)
    rows: list[list] = [["record", "dataset", "method", "value", "std", "trials"]]
    for name in table.datasets:
        for method in table.methods:
            cell = table.cells[(name, method)]
            if cell is None:
                rows.append(["cell", name, method, "-", "-", "-"])
            else:
                rows.append(
                    ["cell", name, method, _fmt(cell.mean), _fmt(cell.std), cell.trials]
                )
    for method in table.methods:
        rows.append(["average", "-", method, _fmt(table.average[method]), "-", "-"])
    for method in table.methods:
        rows.append(["avg_rank", "-", method, _fmt(table.avg_rank[method]), "-", "-"])
    for method in table.methods:
        rows.append(["rmsd", "-", method, _fmt(table.rmsd[method]), "-", "-"])
    lines.extend(_csv_lines(rows))
    _write_file(output_path, lines)


def _cmd_synth(args) -> None:
    output_path = _resolve(args, "output", str, None)
    if not output_path:
        raise ConfigError("synth requires --output")
    try:
        cfg = SynthGaussianConfig(
            num_clusters=_resolve(args, "clusters", int, 5),
            samples_per_cluster=_resolve(args, "samples_per_cluster", int, 194),
            num_outliers=_resolve(args, "outliers", int, 30),
            dimension=_resolve(args, "dimension", int, 1000),
            seed=_seed(args),
            variance_repair=_resolve(args, "variance_repair", str, "abs"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    dm = synth_gaussian(cfg)

    meta = _base_meta("synth", False, cfg.seed)
    meta.append(("clusters", str(cfg.num_clusters)))
    meta.append(("samples_per_cluster", str(cfg.samples_per_cluster)))
    meta.append(("outliers", str(cfg.num_outliers)))
    meta.append(("dimension", str(cfg.dimension)))
    meta.append(("variance_repair", cfg.variance_repair))
    lines = _meta_lines(meta)
    header = [f"f{j + 1}" for j in range(dm.p)] + ["outlier"]
    rows: list[list] = [header]
    for i in range(dm.n):
        rows.append([_fmt(v) for v in dm.values[i]] + [int(dm.labels[i])])
    lines.extend(_csv_lines(rows))
    _write_file(output_path, lines)


def _cmd_contour(args) -> None:
    methods = _split_multi(args, "method")
    if len(methods) != 1:
        raise ConfigError("contour requires exactly one --method")
    method = methods[0]
    if method not in ("KIC", "KIC-RBF"):
        raise ConfigError("contour supports the KIC and KIC-RBF methods")
    _check_method_flags(args, [method])
    input_path = _resolve(args, "input", str, None)
    output_path = _resolve(args, "output", str, None)
    grid_spec = _resolve(args, "grid", str, None)
    if not input_path or not output_path:
        raise ConfigError("contour requires --input and --output")
    if not grid_spec:
        raise ConfigError("contour requires --grid x_lo,x_hi,x_steps,y_lo,y_hi,y_steps")
    parts = [part.strip() for part in str(grid_spec).split(",")]
    if len(parts) != 6:
        raise ConfigError("--grid expects 6 comma-separated values")
    try:
        x_lo, x_hi, y_lo, y_hi = map(float, (parts[0], parts[1], parts[3], parts[4]))
        x_steps, y_steps = int(parts[2]), int(parts[5])
    except ValueError:
        raise ConfigError(f"invalid --grid value: {grid_spec!r}")
    normalize_on = not _resolve(args, "no_normalize", bool, False)
    seed = _seed(args)

    dm = _load_for_run(args, input_path, normalize_on)
    if dm.p != 2:
        raise ConfigError(f"contour requires 2-feature data, got p={dm.p}")
    params = _method_params(method, dm.p, dm.n, args)
    model = _fit(method, dm.values, params)
    xs, ys, scores = grid_scores(model, (x_lo, x_hi, x_steps), (y_lo, y_hi, y_steps))

    meta = _base_meta("contour", normalize_on, seed)
    meta.append(("method", method))
    meta.append(("input", str(input_path)))
    meta.append(("grid", f"{x_lo},{x_hi},{x_steps},{y_lo},{y_hi},{y_steps}"))
    for key in sorted(params):
        meta.append((key, str(params[key])))
    lines = _meta_lines(meta)
    rows: list[list] = [["x", "y", "score"]]
    for i in range(ys.shape[0]):
        for j in range(xs.shape[0]):
            rows.append([_fmt(xs[j]), _fmt(ys[i]), _fmt(scores[i, j])])
    lines.extend(_csv_lines(rows))
    _write_file(output_path, lines)


_COMMANDS = {
    "score": _cmd_score,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
    "contour": _cmd_contour,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CsvFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
