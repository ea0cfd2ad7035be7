"""Dataset ingestion, normalization and the synthetic benchmark.

CSV is the only ingestion format: comma-separated, optional header (the
first non-comment row is a header when one of its cells is not a number),
'#'-prefixed comment lines skipped, a 0/1 label column selected by name or
zero-based index. The data rows are parsed by numpy's C reader; when it
cannot vouch for its table, a row loop reads the file again, checks each
row as it reads it, and returns the table or raises at the first faulty
row. Real datasets, and turning their classes into 0/1 labels, are the
user's to supply; this module only prepares them. ``synth_gaussian``
generates the synthetic Gaussian benchmark from six keyword parameters
(clusters, samples per cluster, outliers, dimension, seed and variance
repair) whose defaults give the standard 1000 x 1000 instance.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._validate import as_matrix

# Columns whose standard deviation is this small relative to their mean are
# treated as constant and mapped to zero instead of being amplified.
_CONSTANT_STD_TOL = 1e-13


class CsvFormatError(ValueError):
    """A CSV file could not be parsed into a rectangular numeric table."""


@dataclass
class DataMatrix:
    """n x p real matrix with optional binary outlier labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.values = as_matrix(self.values, "values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("labels length must equal the number of rows")
            if not np.isin(self.labels, (0, 1)).all():
                raise ValueError("labels must be binary (0/1)")
            self.labels = self.labels.astype(int)
        if self.feature_names is not None and len(self.feature_names) != self.values.shape[1]:
            raise ValueError("feature_names length must equal the number of columns")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def load_csv(path, label_column: str | int | None = None) -> DataMatrix:
    """Load a rectangular numeric CSV, optionally splitting out a label column.

    The first non-blank, non-comment row is a header when one of its cells
    does not parse as a number. The data rows are parsed by numpy's C reader
    (``np.loadtxt``), which reads cells as Python ``float`` does. When that
    reader fails, or its table is empty, of another width than the first row,
    not finite, or has a label other than 0/1, the row loop (``_load_rows``)
    reads the file once more and checks each row as it reads it. The loop
    returns the table the C reader could not vouch for (a comment line after
    the data, a spelling such as ``1_0``) or raises at the first faulty file
    row, naming it (1-based, counting comment, blank and header lines) and,
    for a bad cell, its column.
    """
    path = Path(path)
    values, header, label_idx = _load_fast(path, label_column) or _load_rows(path, label_column)
    labels = None
    if label_idx is not None:
        labels = values[:, label_idx].astype(int)
        values = np.delete(values, label_idx, axis=1)
        if header is not None:
            del header[label_idx]
    return DataMatrix(values=values, labels=labels, feature_names=header)


def _load_fast(path: Path, label_column):
    """``(values, header, label_idx)`` from ``np.loadtxt``, or None to fall back.

    The first row is read with the ``csv`` module; ``loadtxt`` skips every
    physical line up to it, and the header too. Comments are not stripped
    (``comments=None``): a ``#`` line after the first row makes ``loadtxt``
    fail, so the row loop, which skips it, decides. None also stands for a
    ``loadtxt`` warning (no data), an empty table, another width than the
    first row's, a non-finite value or a label other than 0/1.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        skip = 0
        for row in reader:
            if _is_content(row):
                break
            skip = reader.line_num
        else:
            return None
        header, label_idx = _first_row(path, row, label_column)
        if header is not None:
            skip = reader.line_num
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                path, delimiter=",", comments=None, quotechar='"',
                skiprows=skip, ndmin=2, encoding="utf-8-sig",
            )
        except (ValueError, UserWarning):
            return None
    if (
        not len(values) or values.shape[1] != len(row) or not np.isfinite(values).all()
        or (label_idx is not None and not np.isin(values[:, label_idx], (0.0, 1.0)).all())
    ):
        return None
    return values, header, label_idx


def _load_rows(path: Path, label_column):
    """``(values, header, label_idx)`` from one pass of the ``csv`` module.

    This is the path that explains a failure. Each data row is checked as it
    is read: its width, its conversion by one numpy call, its finiteness,
    then its 0/1 label. The first faulty row raises the error that names it.
    """
    header: list[str] | None = None
    width = label_idx = None
    rows: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not _is_content(row):
                continue
            if width is None:
                width = len(row)
                header, label_idx = _first_row(path, row, label_column)
                if header is not None:
                    continue
            if len(row) != width:
                raise CsvFormatError(
                    f"{path}: ragged row {lineno}: expected {width} columns, found {len(row)}"
                )
            try:
                parsed = np.array(row, dtype=float)
            except ValueError:
                parsed = None
            if parsed is None or not np.isfinite(parsed).all():
                raise _bad_cell(path, lineno, row)
            if label_idx is not None and parsed[label_idx] not in (0.0, 1.0):
                raise CsvFormatError(
                    f"{path}: label value {row[label_idx].strip()!r} at row {lineno} is not binary 0/1"
                )
            rows.append(parsed)
    if not rows:
        if header is not None:
            raise CsvFormatError(f"{path}: header but no data rows")
        raise CsvFormatError(f"{path}: no data rows found")
    return np.array(rows), header, label_idx


def _is_content(row: list[str]) -> bool:
    """Whether a parsed row is neither blank nor a ``#`` comment."""
    if not row or (len(row) == 1 and not row[0].strip()):
        return False
    return not row[0].lstrip().startswith("#")


def _first_row(path: Path, row: list[str], label_column) -> tuple[list[str] | None, int | None]:
    """The header (None when every cell is a number) and label index of the first row."""
    try:
        np.array(row, dtype=float)
        header = None
    except ValueError:
        header = [cell.strip() for cell in row]
    return header, _label_index(path, label_column, header, len(row))


def _bad_cell(path: Path, lineno: int, row: list[str]) -> CsvFormatError:
    """The error for the first cell of ``row`` that is not a finite number."""
    for col, cell in enumerate(row):
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            pass
        return CsvFormatError(
            f"{path}: value {cell.strip()!r} at row {lineno}, column {col + 1} is not a finite number"
        )


def _label_index(path: Path, label_column, header: list[str] | None, width: int) -> int | None:
    """Zero-based index of the label column, given by name or index, or None."""
    if label_column is None:
        return None
    try:
        label_idx = int(label_column)
    except ValueError:
        if header is None:
            raise CsvFormatError(
                f"{path}: label column {label_column!r} requested by name but the file has no header"
            )
        if label_column not in header:
            raise CsvFormatError(f"{path}: label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
    if not 0 <= label_idx < width:
        raise CsvFormatError(f"{path}: label column index {label_idx} out of range for {width} columns")
    if width == 1:
        raise CsvFormatError(f"{path}: the label column is the only column; no feature columns remain")
    return label_idx


def normalize(dm: DataMatrix) -> DataMatrix:
    """Center each feature and scale to unit population variance.

    Constant (and effectively constant) columns are centered and left at
    zero rather than amplified or rejected. Idempotent on non-constant
    features up to rounding. A column whose sum, centring or variance
    overflows is divided by its largest magnitude m first: its mean and std
    are m times those of the quotient, and it is centered and scaled as the
    quotient. Every column whose mean and std are finite keeps its bits.
    """
    if dm.n < 2:
        raise ValueError("normalization requires at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dm.values.mean(axis=0)
        std = dm.values.std(axis=0)
        out = dm.values - mean
    constant = std <= _CONSTANT_STD_TOL * np.maximum(1.0, np.abs(mean))
    # std takes the same mean and centring, so it is not finite when they are not.
    overflowed = ~np.isfinite(std)
    if overflowed.any():
        m = np.abs(dm.values[:, overflowed]).max(axis=0)
        quotient = dm.values[:, overflowed] / m
        q_mean = quotient.mean(axis=0)
        q_std = quotient.std(axis=0)
        # The test above for std = m q_std and mean = m q_mean, divided by m.
        constant[overflowed] = q_std <= _CONSTANT_STD_TOL * np.maximum(1.0 / m, np.abs(q_mean))
        out[:, overflowed] = quotient - q_mean
        std[overflowed] = q_std
    out[:, constant] = 0.0
    active = ~constant
    out[:, active] /= std[active]
    return DataMatrix(
        values=out,
        labels=None if dm.labels is None else dm.labels.copy(),
        feature_names=None if dm.feature_names is None else list(dm.feature_names),
    )


def synth_gaussian(
    *,
    num_clusters: int = 5,
    samples_per_cluster: int = 194,
    num_outliers: int = 30,
    dimension: int = 1000,
    seed: int = 0,
    variance_repair: str = "abs",
) -> DataMatrix:
    """Generate the synthetic Gaussian benchmark.

    The defaults give the standard instance: 5 clusters of 194 samples plus
    30 outliers in 1000 dimensions, 1000 rows in all. Cluster means are
    N(0, I) draws; each cluster gets a diagonal covariance whose entries are
    N(0, 1) draws made into variances by ``variance_repair``: absolute value
    ("abs") or squaring ("square"). Outliers draw every coordinate uniformly
    between the per-coordinate minimum and maximum of the inlier samples,
    so they sit inside the inlier bounding box but off the clusters.

    Raises:
        ValueError: if a parameter is out of range, before anything is drawn.
    """
    _check_synth(num_clusters, samples_per_cluster, num_outliers, dimension, seed, variance_repair)
    rng = np.random.default_rng(seed)
    k, m, p = num_clusters, samples_per_cluster, dimension
    means = rng.standard_normal((k, p))
    raw = rng.standard_normal((k, p))
    variances = np.abs(raw) if variance_repair == "abs" else np.square(raw)
    parts = []
    for c in range(k):
        z = rng.standard_normal((m, p))
        parts.append(means[c] + z * np.sqrt(variances[c]))
    inliers = np.vstack(parts)
    outliers = rng.uniform(inliers.min(axis=0), inliers.max(axis=0), size=(num_outliers, p))
    labels = np.concatenate([np.zeros(inliers.shape[0], dtype=int), np.ones(num_outliers, dtype=int)])
    return DataMatrix(values=np.vstack([inliers, outliers]), labels=labels)


def _check_synth(num_clusters, samples_per_cluster, num_outliers, dimension, seed, variance_repair):
    """Raise ``ValueError`` for the first ``synth_gaussian`` parameter out of range."""
    if num_clusters < 1 or samples_per_cluster < 1:
        raise ValueError("need at least one cluster with at least one sample")
    if num_outliers < 0:
        raise ValueError("num_outliers must be nonnegative")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if variance_repair not in ("abs", "square"):
        raise ValueError("variance_repair must be 'abs' or 'square'")
