"""Dataset ingestion, normalization, class labeling and the synthetic benchmark.

CSV is the only ingestion format: comma-delimited by default, optional
header (the first non-comment row is a header when one of its cells is not
a number), '#'-prefixed comment lines skipped, label column selected by
name or zero-based index. A file is read in one pass, one numpy conversion
per data row. Real datasets are the user's to supply; this module only
prepares them and generates the synthetic Gaussian benchmark.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._validate import as_matrix

# Columns whose standard deviation is this small relative to their mean are
# treated as constant and mapped to zero instead of being amplified.
_CONSTANT_STD_TOL = 1e-13

SMALLEST_CLASS_OUTLIER = "smallest-class-outlier"
LARGEST_CLASS_INLIER = "largest-class-inlier"
EXPLICIT_CLASSES = "explicit"


class CsvFormatError(ValueError):
    """A CSV file could not be parsed into a rectangular numeric table."""


@dataclass
class DataMatrix:
    """n x p real matrix with optional binary outlier labels.

    ``provenance`` is a human-readable note about where the values came
    from (file path, generator config, applied transforms).
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None
    provenance: str = ""

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


@dataclass(frozen=True)
class SynthGaussianConfig:
    """Configuration of the synthetic Gaussian benchmark.

    Defaults reproduce the standard instance: 5 clusters of 194 samples
    plus 30 box-uniform outliers in 1000 dimensions, 1000 rows total.
    ``variance_repair`` says how to turn the N(0,1) covariance draws into
    valid variances: absolute value ("abs", default) or squaring ("square").
    """

    num_clusters: int = 5
    samples_per_cluster: int = 194
    num_outliers: int = 30
    dimension: int = 1000
    seed: int = 0
    variance_repair: str = "abs"

    def __post_init__(self):
        if self.num_clusters < 1 or self.samples_per_cluster < 1:
            raise ValueError("need at least one cluster with at least one sample")
        if self.num_outliers < 0:
            raise ValueError("num_outliers must be nonnegative")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.variance_repair not in ("abs", "square"):
            raise ValueError("variance_repair must be 'abs' or 'square'")


def load_csv(
    path,
    label_column: str | int | None = None,
    delimiter: str = ",",
) -> DataMatrix:
    """Load a rectangular numeric CSV, optionally splitting out a label column.

    The file is read in one pass. The first non-comment row is a header when
    one of its cells does not parse as a number. Each data row is converted
    with one numpy call as it is read, so cells parse as Python ``float``
    does; finiteness (``nan`` and ``inf`` are rejected) and the 0/1 labels
    are checked once on the stacked values. Errors name the first offending
    file row (1-based, counting comment, blank and header lines) and, for a
    bad cell, its column.
    """
    path = Path(path)
    header: list[str] | None = None
    width = label_idx = None
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle, delimiter=delimiter), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if width is None:
                width = len(row)
                try:
                    np.array(row, dtype=float)
                except ValueError:
                    header = [cell.strip() for cell in row]
                label_idx = _label_index(path, label_column, header, width)
                if header is not None:
                    continue
            try:
                parsed = np.array(row, dtype=float) if len(row) == width else None
            except ValueError:
                parsed = None
            if parsed is None:
                if rows:  # an earlier row's fault comes first in file order
                    _check_rows(path, delimiter, rows, linenos, label_idx)
                if len(row) != width:
                    raise CsvFormatError(
                        f"{path}: ragged row {lineno}: expected {width} columns, found {len(row)}"
                    )
                raise _bad_cell(path, lineno, row)
            rows.append(parsed)
            linenos.append(lineno)
    if not rows:
        if header is not None:
            raise CsvFormatError(f"{path}: header but no data rows")
        raise CsvFormatError(f"{path}: no data rows found")

    values = _check_rows(path, delimiter, rows, linenos, label_idx)
    labels = None
    if label_idx is not None:
        labels = values[:, label_idx].astype(int)
        values = np.delete(values, label_idx, axis=1)
        if header is not None:
            del header[label_idx]
    return DataMatrix(values=values, labels=labels, feature_names=header, provenance=f"csv:{path}")


def _check_rows(
    path: Path, delimiter: str, rows: list[np.ndarray], linenos: list[int], label_idx
) -> np.ndarray:
    """Stack the parsed rows and check every value finite and every label 0/1.

    On a failure the file is read again up to the first failing row, whose
    cells the error message quotes. Returns the stacked values.
    """
    values = np.array(rows)
    finite = np.isfinite(values).all(axis=1)
    ok = finite if label_idx is None else finite & np.isin(values[:, label_idx], (0.0, 1.0))
    if ok.all():
        return values
    k = int(np.argmin(ok))
    with open(path, newline="", encoding="utf-8") as handle:
        lines = enumerate(csv.reader(handle, delimiter=delimiter), start=1)
        row = next(cells for lineno, cells in lines if lineno == linenos[k])
    if not finite[k]:
        raise _bad_cell(path, linenos[k], row)
    raise CsvFormatError(
        f"{path}: label value {row[label_idx].strip()!r} at row {linenos[k]} is not binary 0/1"
    )


def _bad_cell(path: Path, lineno: int, row: list[str]) -> CsvFormatError:
    """The error for the first cell of ``row`` that is not a finite number."""
    cell, col = next((c, i) for i, c in enumerate(row) if not _is_finite_number(c))
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
    return label_idx


def _is_finite_number(cell: str) -> bool:
    """Whether ``cell`` parses as a finite float; used only to locate a bad cell."""
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def normalize(dm: DataMatrix) -> DataMatrix:
    """Center each feature and scale to unit population variance.

    Constant (and effectively constant) columns are centered and left at
    zero rather than amplified or rejected. Idempotent on non-constant
    features up to rounding.
    """
    if dm.n < 2:
        raise ValueError("normalization requires at least 2 rows")
    mean = dm.values.mean(axis=0)
    std = dm.values.std(axis=0)
    constant = std <= _CONSTANT_STD_TOL * np.maximum(1.0, np.abs(mean))
    out = dm.values - mean
    out[:, constant] = 0.0
    active = ~constant
    out[:, active] /= std[active]
    return DataMatrix(
        values=out,
        labels=None if dm.labels is None else dm.labels.copy(),
        feature_names=None if dm.feature_names is None else list(dm.feature_names),
        provenance=dm.provenance + "|normalized(population-zscore)",
    )


def label_by_class(
    classes,
    rule: str,
    inliers=None,
    outliers=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Turn a categorical class vector into binary outlier labels.

    Rules:
        "smallest-class-outlier": the unique smallest class is outlying.
        "largest-class-inlier": everything but the unique largest class is outlying.
        "explicit": ``inliers`` and ``outliers`` list the classes to keep;
            rows in neither are masked out.

    Returns (labels, mask); rows with mask False carry no meaningful label.
    Ties for the smallest/largest class raise, since the choice would be
    arbitrary; use the explicit rule instead.
    """
    classes = list(classes)
    if len(classes) == 0:
        raise ValueError("empty class vector")
    counts = Counter(classes)
    if len(counts) < 2:
        raise ValueError("need at least 2 distinct classes")

    if rule == SMALLEST_CLASS_OUTLIER:
        smallest = min(counts.values())
        candidates = [c for c, k in counts.items() if k == smallest]
        if len(candidates) > 1:
            raise ValueError(
                f"tie for the smallest class ({candidates}); use the explicit rule"
            )
        target = candidates[0]
        labels = np.array([1 if c == target else 0 for c in classes], dtype=int)
        return labels, np.ones(len(classes), dtype=bool)

    if rule == LARGEST_CLASS_INLIER:
        largest = max(counts.values())
        candidates = [c for c, k in counts.items() if k == largest]
        if len(candidates) > 1:
            raise ValueError(
                f"tie for the largest class ({candidates}); use the explicit rule"
            )
        target = candidates[0]
        labels = np.array([0 if c == target else 1 for c in classes], dtype=int)
        return labels, np.ones(len(classes), dtype=bool)

    if rule == EXPLICIT_CLASSES:
        if not inliers or not outliers:
            raise ValueError("the explicit rule requires non-empty inliers and outliers")
        inlier_set = set(inliers)
        outlier_set = set(outliers)
        overlap = inlier_set & outlier_set
        if overlap:
            raise ValueError(f"classes {sorted(overlap)} listed as both inlier and outlier")
        missing = (inlier_set | outlier_set) - set(counts)
        if missing:
            raise ValueError(f"classes {sorted(missing)} not present in the data")
        labels = np.zeros(len(classes), dtype=int)
        mask = np.zeros(len(classes), dtype=bool)
        for i, c in enumerate(classes):
            if c in inlier_set:
                mask[i] = True
            elif c in outlier_set:
                mask[i] = True
                labels[i] = 1
        return labels, mask

    raise ValueError(f"unknown labeling rule: {rule!r}")


def synth_gaussian(cfg: SynthGaussianConfig) -> DataMatrix:
    """Generate the synthetic Gaussian benchmark.

    Cluster means are N(0, I) draws; each cluster gets a diagonal
    covariance whose entries are N(0, 1) draws repaired into variances
    (see ``variance_repair``). Outliers draw every coordinate uniformly
    between the per-coordinate minimum and maximum of the inlier samples,
    so they sit inside the inlier bounding box but off the clusters.
    """
    rng = np.random.default_rng(cfg.seed)
    k, m, p = cfg.num_clusters, cfg.samples_per_cluster, cfg.dimension
    means = rng.standard_normal((k, p))
    raw = rng.standard_normal((k, p))
    variances = np.abs(raw) if cfg.variance_repair == "abs" else np.square(raw)
    parts = []
    for c in range(k):
        z = rng.standard_normal((m, p))
        parts.append(means[c] + z * np.sqrt(variances[c]))
    inliers = np.vstack(parts)
    if cfg.num_outliers > 0:
        lo = inliers.min(axis=0)
        hi = inliers.max(axis=0)
        outliers = rng.uniform(lo, hi, size=(cfg.num_outliers, p))
        values = np.vstack([inliers, outliers])
    else:
        values = inliers
    labels = np.concatenate(
        [np.zeros(inliers.shape[0], dtype=int), np.ones(cfg.num_outliers, dtype=int)]
    )
    provenance = (
        f"synth-gaussian(clusters={k},per_cluster={m},outliers={cfg.num_outliers},"
        f"p={p},seed={cfg.seed},variance_repair={cfg.variance_repair},prng=numpy-PCG64)"
    )
    return DataMatrix(values=values, labels=labels, provenance=provenance)
