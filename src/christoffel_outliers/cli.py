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
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._validate import NumericalError
from .baselines import knn_scores, ksp2_scores, ksp_scores
from .christoffel import (
    DEFAULT_FEATURE_DIM_LIMIT,
    _grid_range,
    _kic2_stage_two,
    default_sigma,
    fit_kic,
    grid_scores,
    ic_scores,
    kic_scores,
)
from .dataio import CsvFormatError, DataMatrix, _check_synth, load_csv, normalize, synth_gaussian
from .evaluation import pr_curve, summarize
from .kernels import KernelSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

ENV_PREFIX = "CHRISTOFFEL_"
PRNG_NAME = "numpy-PCG64"

RANDOMIZED_METHODS = {"KSP", "KSP2"}

# Method-specific flags: type, accepted range on n rows, that range in words
# and the help text. _METHOD_FLAGS gives each method's flags and their values
# when omitted; supplying a flag outside its method's entry is a
# configuration error caught before any computation.
_POSITIVE_FINITE = (lambda v, n: 0 < v < math.inf, "be positive and finite")
_HYPERPARAMETERS = {
    "degree": (int, lambda v, n: v >= 1, "be >= 1", "polynomial degree d"),
    "C": (float, *_POSITIVE_FINITE, "regularization divisor C"),
    "rho": (float, *_POSITIVE_FINITE, "explicit rho, bypassing the C rule"),
    "sigma": (float, *_POSITIVE_FINITE, "RBF lengthscale"),
    "alpha": (float, lambda v, n: 0.0 < v <= 1.0, "lie in (0, 1]", "filtered-variant keep fraction"),
    "k": (int, lambda v, n: 1 <= v <= n - 1, "satisfy 1 <= k <= n - 1 = {m}",
          "neighbor count for KNN"),
    "sample_size": (int, lambda v, n: v >= 1, "be >= 1", "subsample size for KSP/KSP2"),
    "feature_dim_limit": (int, lambda v, n: v >= 1, "be >= 1",
                          "monomial feature dimension cap for IC"),
}

_METHOD_FLAGS = {
    "IC": {"degree": 2, "feature_dim_limit": DEFAULT_FEATURE_DIM_LIMIT},
    "KIC": {"degree": 2, "C": 500.0, "rho": None},
    "KIC2": {"degree": 2, "C": 500.0, "alpha": 0.6},
    "KIC-RBF": {"C": 500.0, "rho": None, "sigma": None},
    "KIC-RBF2": {"C": 500.0, "sigma": None, "alpha": 0.6},
    "KNN": {"k": 5},
    "KSP": {"sample_size": 20},
    "KSP2": {"alpha": 0.5, "sample_size": 20},
}
METHODS = tuple(_METHOD_FLAGS)

# synth's flags in metadata order: synth_gaussian keyword, type, value when
# omitted and help text.
_SYNTH_FLAGS = {
    "clusters": ("num_clusters", int, 5, "cluster count"),
    "samples_per_cluster": ("samples_per_cluster", int, 194, "inliers per cluster"),
    "outliers": ("num_outliers", int, 30, "outlier count"),
    "dimension": ("dimension", int, 1000, "feature count"),
    "variance_repair": ("variance_repair", str, "abs", "'abs' or 'square'"),
}

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
    for flag, (_, _, default, text) in _SYNTH_FLAGS.items():
        p_synth.add_argument(_flag(flag), dest=flag, help=f"{text} (default {default})")

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
    for flag, default in _METHOD_FLAGS[method].items():
        cast, accepts, rule, _ = _HYPERPARAMETERS[flag]
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


def _kic_scores(X: np.ndarray, kernel: KernelSpec, rho: float | None, C: float, fits: dict):
    """The effective rho of the KIC fit on X, and its scores of the rows of X.

    ``fits`` keeps both per (kernel, rho, C) for one dataset, so KIC and the
    first stage of KIC2 fit and score X once between them when rho comes
    from the C rule; a failed fit stores nothing.
    """
    key = (kernel, rho, C)
    if key not in fits:
        model = fit_kic(X, kernel, rho, C)
        fits[key] = model.rho, kic_scores(model, X)
    return fits[key]


def _run_method(method: str, X: np.ndarray, params: dict, seed: int, fits: dict) -> np.ndarray:
    """Score the rows of X; ``fits`` is ``_kic_scores``'s store for this X."""
    if method == "IC":
        return ic_scores(X, X, params["degree"], dim_limit=params["feature_dim_limit"])
    if method.startswith("KIC"):
        kernel = _kernel(method, params)
        rho, scores = _kic_scores(X, kernel, params.get("rho"), params["C"], fits)
        if method.endswith("2"):  # KIC2's first stage: the C-rule fit's scores
            return _kic2_stage_two(X, kernel, params["C"], params["alpha"], scores)
        params["rho"] = rho
        return scores
    if method == "KNN":
        return knn_scores(X, params["k"])
    if method == "KSP":
        return ksp_scores(X, params["sample_size"], seed)
    if method == "KSP2":
        return ksp2_scores(X, params["sample_size"], params["alpha"], seed)


def _write(path, command: str, normalize_on: bool, seed: int, meta, columns, rows) -> None:
    """Write the '# key = value' header (run settings, then ``meta``), the column
    names, then each of ``rows`` as it comes; a float prints as its ``repr``."""
    header = [
        ("tool", "christoffel-outliers"),
        ("version", __version__),
        ("command", command),
        ("normalize", "population-zscore" if normalize_on else "none"),
        ("seed", seed),
        ("prng", PRNG_NAME),
        *meta,
    ]
    with open(path, "w", encoding="utf-8") as file:
        file.writelines(f"# {key} = {value}\n" for key, value in header)
        writer = csv.writer(file, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


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
    rows = ([s] for s in scores.tolist())
    _write(args.output, "score", normalize_on, seed, meta, ["score"], rows)


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
            except (NumericalError, np.linalg.LinAlgError):
                cells[(name, method)] = None

    table = summarize(cells, datasets=[n for n, _ in datasets], methods=methods)

    meta = [("methods", ",".join(methods)), ("inputs", ",".join(inputs)), ("trials", trials)]
    given = [flag for flag in _HYPERPARAMETERS if getattr(args, flag) is not None]
    meta += [(flag, getattr(args, flag)) for flag in given]
    rows: list[list] = []
    for name in table.datasets:
        for method in table.methods:
            cell = table.cells[(name, method)]
            if cell is None:
                rows.append(["cell", name, method, "-", "-", "-"])
            else:
                rows.append(["cell", name, method, cell.mean, cell.std, cell.trials])
    for kind in ("average", "avg_rank", "rmsd"):
        for method in table.methods:
            rows.append([kind, "-", method, getattr(table, kind)[method], "-", "-"])
    columns = ["record", "dataset", "method", "value", "std", "trials"]
    _write(args.output, "bench", normalize_on, seed, meta, columns, rows)


def _cmd_synth(args) -> None:
    if not args.output:
        raise ConfigError("synth requires --output")
    meta = [(flag, _resolve(args, flag, cast, default))
            for flag, (_, cast, default, _) in _SYNTH_FLAGS.items()]
    params = {_SYNTH_FLAGS[flag][0]: value for flag, value in meta}
    params["seed"] = _seed(args)
    # Checked apart from the draw: an array too large for numpy is a
    # numerical error (exit 3), not a configuration error.
    try:
        _check_synth(**params)
    except ValueError as exc:
        raise ConfigError(str(exc))
    dm = synth_gaussian(**params)

    columns = [f"f{j + 1}" for j in range(dm.p)] + ["outlier"]
    rows = (row.tolist() + [label] for row, label in zip(dm.values, dm.labels.tolist()))
    _write(args.output, "synth", False, params["seed"], meta, columns, rows)


def _cmd_contour(args) -> None:
    method = _one_method(args, "contour", ("KIC", "KIC-RBF"))
    if not args.grid:
        raise ConfigError("contour requires --grid x_lo,x_hi,x_steps,y_lo,y_hi,y_steps")
    try:
        x_lo, x_hi, x_steps, y_lo, y_hi, y_steps = args.grid.split(",")
        x_range = (float(x_lo), float(x_hi), int(x_steps))
        y_range = (float(y_lo), float(y_hi), int(y_steps))
        _grid_range(x_range, y_range, ("its x range", "its y range"))
    except ValueError as exc:
        raise ConfigError(f"invalid --grid {args.grid!r}: {exc}")
    normalize_on, seed = _run_settings(args)

    dm = _load_for_run(args, args.input, normalize_on)
    if dm.p != 2:
        raise ConfigError(f"contour requires 2-feature data, got p={dm.p}")
    params = _method_params(method, dm.p, dm.n, args)
    model = fit_kic(dm.values, _kernel(method, params), params["rho"], params["C"])
    params["rho"] = model.rho
    xs, ys, scores = grid_scores(model, x_range, y_range)

    grid = ",".join(map(str, x_range + y_range))
    meta = [("method", method), ("input", args.input), ("grid", grid)]
    meta += [(key, params[key]) for key in sorted(params)]
    xs = xs.tolist()
    rows = ([x, y, s] for y, row in zip(ys.tolist(), scores.tolist()) for x, s in zip(xs, row))
    _write(args.output, "contour", normalize_on, seed, meta, ["x", "y", "score"], rows)


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
    except (ValueError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
