"""Outlier detection with Christoffel-function scores.

Explicit moment-matrix scoring with the scaled monomial feature map, a
kernelized regularized variant that works with arbitrary kernels (RBF in
particular), distance-based baseline detectors, precision-recall
evaluation, a comma-separated file reader with 0/1 labels, normalization
and ``synth_gaussian``, the synthetic Gaussian benchmark, whose keyword
parameters default to the standard 1000 x 1000 instance. The ``cli``
module exposes all of it as a command-line tool.
"""

__version__ = "0.1.0"

from .baselines import DistanceOverflowError, knn_scores, ksp2_scores, ksp_scores, lowest_score_indices
from .christoffel import (
    DEFAULT_FEATURE_DIM_LIMIT,
    ChristoffelModel,
    FeatureDimensionError,
    FeatureMap,
    GramOverflowError,
    MomentMatrixError,
    RhoRangeError,
    build_feature_map,
    default_rho,
    default_sigma,
    feature_matrix,
    fit_kic,
    grid_scores,
    ic_scores,
    kic2_scores,
    kic_score,
    kic_scores,
)
from .dataio import CsvFormatError, DataMatrix, load_csv, normalize, synth_gaussian
from .evaluation import BenchmarkTable, CellStats, PRCurve, pr_curve, summarize
from .kernels import KernelSpec, gram_matrix
from .linalg import NotPositiveDefiniteError, SpdFactorization, frobenius_norm, spd_factor
