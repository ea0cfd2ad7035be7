import re

import numpy as np
import pytest

from christoffel_outliers import (
    DataMatrix,
    build_feature_map,
    default_rho,
    default_sigma,
    ic_scores,
    lowest_score_indices,
    pr_curve,
    spd_factor,
    synth_gaussian,
)
from christoffel_outliers._validate import as_vector


# Argument checks of the library functions, one case per check and its message.
@pytest.mark.parametrize("call, message", [
    (lambda: as_vector([]), "x must have at least one entry"),
    (lambda: lowest_score_indices(np.zeros((2, 2)), 0.5), "scores must be a vector"),
    (lambda: build_feature_map(0, 2), "p and d must be positive integers"),
    (lambda: build_feature_map(2, 2.5), "p and d must be positive integers"),
    (lambda: ic_scores(np.zeros((5, 2)), np.zeros((5, 2)), 2.5), "p and d must be positive integers"),
    (lambda: ic_scores(np.zeros((5, 2)), np.zeros((3, 3)), 2),
     "X and queries must have the same feature count"),
    (lambda: default_rho(np.eye(2), 0.0), "C must be positive"),
    (lambda: default_rho(np.ones((2, 3)), 1.0), "G_scaled must be a square matrix"),
    (lambda: default_sigma(0), "p must be >= 1"),
    (lambda: DataMatrix(values=np.zeros((2, 2)), feature_names=["f1"]),
     "feature_names length must equal the number of columns"),
    (lambda: synth_gaussian(num_outliers=-1), "num_outliers must be nonnegative"),
    (lambda: pr_curve([np.nan, 1.0], [0, 1]), "scores contain non-finite values"),
    (lambda: spd_factor(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: spd_factor([[1.0, np.inf], [np.inf, 1.0]]), "matrix contains non-finite values"),
], ids=["as_vector-empty", "lowest_score_indices-2d", "build_feature_map-p0",
        "build_feature_map-d2.5", "ic_scores-d2.5",
        "ic_scores-feature-mismatch", "default_rho-C0", "default_rho-not-square",
        "default_sigma-p0", "DataMatrix-feature-names", "synth_gaussian-negative-outliers",
        "pr_curve-nan", "spd_factor-not-square", "spd_factor-non-finite"])
def test_argument_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
