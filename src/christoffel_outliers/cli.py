"""Command-line front end.

Four subcommands: ``score`` writes one outlierness score per input row,
``bench`` evaluates methods x datasets into an AUPRC table, ``synth``
generates the synthetic Gaussian benchmark and ``contour`` emits a score
grid for external contour plotting.

Output files are CSV with a '#'-prefixed metadata header that pins method,
hyperparameters, seed and normalization convention, so a file can be
reproduced byte for byte with the same binary. Every flag can also be set
through an environment variable with the ``CHRISTOFFEL_`` prefix and the
flag's name in upper case, '-' read as '_' (``CHRISTOFFEL_SAMPLE_SIZE`` for
``--sample-size``); command-line values win. The environment is read once,
right after parsing, and a comma-separated value lists several inputs or
methods for ``bench``.

Exit codes: 0 success, 2 configuration error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
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
    _grid_axis,
    _kic2_stage_two,
    default_sigma,
    fit_kic,
    grid_scores,
    ic_scores,
    kic_scores,
)
from .dataio import CsvFormatError, DataMatrix, SynthGaussianConfig, load_csv, normalize, synth_gaussian
from .evaluation import pr_curve, summarize
from .kernels import KernelSpec
from .linalg import NotPositiveDefiniteError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ENV_PREFIX = "CHRISTOFFEL_"
PRNG_NAME = "numpy-PCG64"

METHODS = ("IC", "KIC", "KIC2", "KIC-RBF", "KIC-RBF2", "KNN", "KSP", "KSP2")
RANDOMIZED_METHODS = {"KSP", "KSP2"}

# Method-specific flags: type, value when omitted, accepted range on n rows,
# that range in words and the help text. Supplying one for a method outside
# its _METHOD_FLAGS column is a configuration error caught before any
# computation.
_POSITIVE_FINITE = (lambda v, n: 0 < v < math.inf, "be positive and finite")
_HYPERPARAMETERS = {
    "degree": (int, 2, lambda v, n: v >= 1, "be >= 1", "polynomial degree d"),
    "C": (float, 500.0, *_POSITIVE_FINITE, "regularization divisor C"),
    "rho": (float, None, *_POSITIVE_FINITE, "explicit rho, bypassing the C rule"),
    "sigma": (float, None, *_POSITIVE_FINITE, "RBF lengthscale"),
    "alpha": (float, 0.6, lambda v, n: 0.0 < v <= 1.0, "lie in (0, 1]",
              "filtered-variant keep fraction"),
    "k": (int, 5, lambda v, n: 1 <= v <= n - 1, "satisfy 1 <= k <= n - 1 = {m}",
          "neighbor count for KNN"),
    "sample_size": (int, 20, lambda v, n: v >= 1, "be >= 1", "subsample size for KSP/KSP2"),
    "feature_dim_limit": (int, DEFAULT_FEATURE_DIM_LIMIT, lambda v, n: v >= 1, "be >= 1",
                          "monomial feature dimension cap for IC"),
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
    np.linalg.LinAlgError,
)


# Spellings of a boolean flag's value, read after strip() and lower().
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False, "": False}


class ConfigError(Exception):
    """Invalid flag combination or invalid run configuration."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="christoffel-outliers",
        description="Christoffel-function outlier scoring, benchmarking and synthesis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(p, multi=False):
        """Flags of score, bench and contour; bench takes several inputs and methods."""
        many = {"action": "append"} if multi else {}
        plural = "(s); repeat or comma-separate" if multi else ""
        p.add_argument("--input", **many, help=f"input CSV path{plural}")
        p.add_argument("--output", help="output file path")
        p.add_argument("--label-column", help="label column name or zero-based index")
        p.add_argument("--no-normalize", action="store_true",
                       help="skip zero-mean unit-variance normalization")
        p.add_argument("--method", **many, help=f"method name{plural}")
        for flag, (*_, text) in _HYPERPARAMETERS.items():
            p.add_argument(_flag(flag), dest=flag, help=text)
        p.add_argument("--seed", help="PRNG seed")

    add_run(sub.add_parser("score", help="score every row of a dataset"))

    p_bench = sub.add_parser("bench", help="AUPRC benchmark over datasets x methods")
    add_run(p_bench, multi=True)
    p_bench.add_argument("--trials", help="trials for randomized methods (default 30)")

    p_synth = sub.add_parser("synth", help="generate the synthetic Gaussian benchmark")
    p_synth.add_argument("--output")
    p_synth.add_argument("--seed")
    p_synth.add_argument("--dimension", help="feature count (default 1000)")
    p_synth.add_argument("--clusters", help="cluster count (default 5)")
    p_synth.add_argument("--samples-per-cluster", help="inliers per cluster (default 194)")
    p_synth.add_argument("--outliers", help="outlier count (default 30)")
    p_synth.add_argument("--variance-repair", help="'abs' (default) or 'square'")

    p_contour = sub.add_parser("contour", help="score grid for contour plotting")
    add_run(p_contour)
    p_contour.add_argument("--grid", help="x_lo,x_hi,x_steps,y_lo,y_hi,y_steps")

    return parser


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _apply_env(args) -> None:
    """Fill every flag left unset on the command line from its environment variable."""
    for field, value in vars(args).items():
        if value is None or value is False:
            setattr(args, field, os.environ.get(ENV_PREFIX + field.upper(), value))


def _resolve(args, field: str, cast, default):
    """The flag's value as ``cast``, or ``default`` when it was not set."""
    value = getattr(args, field)
    if value is None:
        return default
    try:
        if cast is bool:
            return value is True or _BOOLEANS[str(value).strip().lower()]
        return cast(value)
    except (KeyError, ValueError):
        raise ConfigError(f"invalid value for {_flag(field)}: {value!r}")


def _split_multi(value) -> list[str]:
    """The names of a repeated or comma-separated flag, in order."""
    if isinstance(value, str):
        value = [value]
    return [part.strip() for item in value or () for part in item.split(",") if part.strip()]


def _check_method_flags(args, methods: list[str]) -> None:
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    allowed = set().union(*(_METHOD_FLAGS[m] for m in methods))
    for flag in _HYPERPARAMETERS:
        if getattr(args, flag) is not None and flag not in allowed:
            raise ConfigError(
                f"{_flag(flag)} does not apply to method(s) {', '.join(methods)}"
            )


def _method_params(method: str, p: int, n: int, args) -> dict:
    """Effective hyperparameters for one method on n x p data.

    Raises:
        ConfigError: if a value lies outside the range its method accepts.
    """
    params: dict = {}
    for flag, (cast, default, accepts, rule, _) in _HYPERPARAMETERS.items():
        if flag not in _METHOD_FLAGS[method]:
            continue
        if method == "KSP2" and flag == "alpha":
            default = 0.5
        value = _resolve(args, flag, cast, default)
        if value is not None and not accepts(value, n):
            raise ConfigError(f"{_flag(flag)} must {rule.format(m=n - 1)}, got {value}")
        params[flag] = value
    if method in ("KIC-RBF", "KIC-RBF2") and params["sigma"] is None:
        params["sigma"] = default_sigma(p, "KIC" if method == "KIC-RBF" else "KIC2")
    return params


def _seed(args) -> int:
    """The PRNG seed, 0 when not set; must be >= 0."""
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


def _c_rule_scores(X: np.ndarray, kernel: KernelSpec, C: float, fits: dict):
    """The effective rho of the C-rule fit on X, and its scores of the rows of X.

    ``fits`` keeps both per (kernel, C) for one dataset, so KIC and the first
    stage of KIC2 fit and score X once between them; a failed fit stores nothing.
    """
    key = (kernel, C)
    if key not in fits:
        model = fit_kic(X, kernel, C=C)
        fits[key] = model.rho, kic_scores(model, X)
    return fits[key]


def _run_method(method: str, X: np.ndarray, params: dict, seed: int, fits: dict) -> np.ndarray:
    """Score the rows of X; ``fits`` is ``_c_rule_scores``'s store for this X."""
    if method == "IC":
        return ic_scores(X, X, params["degree"], dim_limit=params["feature_dim_limit"])
    if method in ("KIC", "KIC-RBF"):
        if params["rho"] is not None:
            return kic_scores(_fit(method, X, params), X)
        params["rho"], scores = _c_rule_scores(X, _kernel(method, params), params["C"], fits)
        return scores
    if method in ("KIC2", "KIC-RBF2"):
        kernel = _kernel(method, params)
        _, stage1 = _c_rule_scores(X, kernel, params["C"], fits)
        return _kic2_stage_two(X, kernel, params["C"], params["alpha"], stage1)
    if method == "KNN":
        return knn_scores(X, params["k"])
    if method == "KSP":
        return ksp_scores(X, params["sample_size"], seed)
    if method == "KSP2":
        return ksp2_scores(X, params["sample_size"], params["alpha"], seed)
    raise ConfigError(f"unknown method {method!r}")


def _fmt(x) -> str:
    return repr(float(x))


def _write(path, command: str, normalize_on: bool, seed: int, meta, rows) -> None:
    """Write the '# key = value' header (run settings, then ``meta``) and the CSV rows."""
    buffer = io.StringIO()
    header = [
        ("tool", "christoffel-outliers"),
        ("version", __version__),
        ("command", command),
        ("normalize", "population-zscore" if normalize_on else "none"),
        ("seed", seed),
        ("prng", PRNG_NAME),
        *meta,
    ]
    buffer.writelines(f"# {key} = {value}\n" for key, value in header)
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    Path(path).write_text(buffer.getvalue(), encoding="utf-8")


def _one_method(args, command: str, supported=None) -> str:
    """The method of a single-method command; checks it, its flags, then --input/--output."""
    methods = _split_multi(args.method)
    if len(methods) != 1:
        raise ConfigError(f"{command} requires exactly one --method")
    if supported and methods[0] not in supported:
        raise ConfigError(f"{command} supports the {' and '.join(supported)} methods")
    _check_method_flags(args, methods)
    if not args.input or not args.output:
        raise ConfigError(f"{command} requires --input and --output")
    return methods[0]


def _run_settings(args) -> tuple[bool, int]:
    """Whether to normalize the input, and the PRNG seed."""
    return not _resolve(args, "no_normalize", bool, False), _seed(args)


def _load_for_run(args, path: str, normalize_on: bool) -> DataMatrix:
    dm = load_csv(path, label_column=args.label_column)
    return normalize(dm) if normalize_on else dm


def _cmd_score(args) -> None:
    method = _one_method(args, "score")
    normalize_on, seed = _run_settings(args)

    dm = _load_for_run(args, args.input, normalize_on)
    params = _method_params(method, dm.p, dm.n, args)
    scores = _run_method(method, dm.values, params, seed, {})

    meta = [("method", method), ("input", args.input)]
    meta += [(key, params[key]) for key in sorted(params)]
    rows = [["score"], *([_fmt(s)] for s in scores)]
    _write(args.output, "score", normalize_on, seed, meta, rows)


def _cmd_bench(args) -> None:
    methods = _split_multi(args.method)
    inputs = _split_multi(args.input)
    if not methods:
        raise ConfigError("bench requires --method")
    if not inputs:
        raise ConfigError("bench requires --input")
    resolved = [Path(path).resolve() for path in inputs]
    for i, path in enumerate(inputs):
        if resolved[i] in resolved[:i]:
            raise ConfigError(f"bench input {path} names a dataset already given")
    _check_method_flags(args, methods)
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ConfigError(f"bench method {method} is given more than once")
    if not args.output:
        raise ConfigError("bench requires --output")
    normalize_on, seed = _run_settings(args)
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
        datasets.append((path, dm))

    cells: dict[tuple[str, str], list[float] | None] = {}
    for name, dm in datasets:
        labels = dm.labels
        fits: dict = {}
        for method in methods:
            try:
                params = _method_params(method, dm.p, dm.n, args)
                runs = trials if method in RANDOMIZED_METHODS else 1
                values = []
                for trial in range(runs):
                    scores = _run_method(method, dm.values, params, seed + trial, fits)
                    values.append(pr_curve(scores, labels).auprc)
                cells[(name, method)] = values
            except _NUMERIC_ERRORS:
                cells[(name, method)] = None

    table = summarize(cells, datasets=[n for n, _ in datasets], methods=methods)

    meta = [("methods", ",".join(methods)), ("inputs", ",".join(inputs)), ("trials", trials)]
    given = [flag for flag in _HYPERPARAMETERS if getattr(args, flag) is not None]
    meta += [(flag, getattr(args, flag)) for flag in given]
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
    for kind in ("average", "avg_rank", "rmsd"):
        for method in table.methods:
            rows.append([kind, "-", method, _fmt(getattr(table, kind)[method]), "-", "-"])
    _write(args.output, "bench", normalize_on, seed, meta, rows)


def _cmd_synth(args) -> None:
    if not args.output:
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

    meta = [
        ("clusters", cfg.num_clusters),
        ("samples_per_cluster", cfg.samples_per_cluster),
        ("outliers", cfg.num_outliers),
        ("dimension", cfg.dimension),
        ("variance_repair", cfg.variance_repair),
    ]
    rows: list[list] = [[f"f{j + 1}" for j in range(dm.p)] + ["outlier"]]
    for i in range(dm.n):
        rows.append([_fmt(v) for v in dm.values[i]] + [int(dm.labels[i])])
    _write(args.output, "synth", False, cfg.seed, meta, rows)


def _cmd_contour(args) -> None:
    method = _one_method(args, "contour", ("KIC", "KIC-RBF"))
    if not args.grid:
        raise ConfigError("contour requires --grid x_lo,x_hi,x_steps,y_lo,y_hi,y_steps")
    try:
        x_lo, x_hi, x_steps, y_lo, y_hi, y_steps = args.grid.split(",")
        x_range = (float(x_lo), float(x_hi), int(x_steps))
        y_range = (float(y_lo), float(y_hi), int(y_steps))
        _grid_axis(x_range, "its x range")
        _grid_axis(y_range, "its y range")
    except ValueError as exc:
        raise ConfigError(f"invalid --grid {args.grid!r}: {exc}")
    normalize_on, seed = _run_settings(args)

    dm = _load_for_run(args, args.input, normalize_on)
    if dm.p != 2:
        raise ConfigError(f"contour requires 2-feature data, got p={dm.p}")
    params = _method_params(method, dm.p, dm.n, args)
    model = _fit(method, dm.values, params)
    xs, ys, scores = grid_scores(model, x_range, y_range)

    grid = ",".join(map(str, x_range + y_range))
    meta = [("method", method), ("input", args.input), ("grid", grid)]
    meta += [(key, params[key]) for key in sorted(params)]
    rows: list[list] = [["x", "y", "score"]]
    for i in range(ys.shape[0]):
        for j in range(xs.shape[0]):
            rows.append([_fmt(xs[j]), _fmt(ys[i]), _fmt(scores[i, j])])
    _write(args.output, "contour", normalize_on, seed, meta, rows)


_COMMANDS = {
    "score": _cmd_score,
    "bench": _cmd_bench,
    "synth": _cmd_synth,
    "contour": _cmd_contour,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_env(args)
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
    except (*_NUMERIC_ERRORS, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
