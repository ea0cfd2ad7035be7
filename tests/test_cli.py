import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from christoffel_outliers import (
    DistanceOverflowError,
    FeatureDimensionError,
    GramOverflowError,
    KernelSpec,
    MomentMatrixError,
    NotPositiveDefiniteError,
    RhoRangeError,
    cli,
    fit_kic,
    grid_scores,
    load_csv,
    summarize,
)
from christoffel_outliers._validate import NumericalError
from christoffel_outliers.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main


def _read_scores(path):
    meta = {}
    values = []
    in_data = False
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif line.strip() == "score":
            in_data = True
        elif in_data and line.strip():
            values.append(float(line))
    return meta, np.array(values)


def _read_bench(path):
    cells = {}
    aggregates = {"average": {}, "avg_rank": {}, "rmsd": {}}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("record,"):
            continue
        parts = line.split(",")
        kind = parts[0]
        if kind == "cell":
            _, dataset, method, value, std, trials = parts
            if value == "-":
                cells[(dataset, method)] = None
            else:
                cells[(dataset, method)] = (float(value), float(std), int(trials))
        else:
            _, _, method, value, _, _ = parts
            aggregates[kind][method] = float(value)
    return cells, aggregates


def _write_line_dataset(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("0.0\n1.0\n2.0\n10.0\n")
    return path


def _write_blobs(tmp_path, n_inlier=40, n_outlier=8, p=3, seed=0, repeats=1):
    """Blob rows, each written ``repeats`` times in a row."""
    rng = np.random.default_rng(seed)
    inliers = rng.normal(size=(n_inlier, p))
    outliers = rng.uniform(-8.0, 8.0, size=(n_outlier, p)) + 10.0
    values = np.repeat(np.vstack([inliers, outliers]), repeats, axis=0)
    labels = np.repeat(np.concatenate([np.zeros(n_inlier, int), np.ones(n_outlier, int)]), repeats)
    path = tmp_path / f"blobs{seed}.csv"
    header = ",".join(f"f{j}" for j in range(p)) + ",outlier"
    lines = [header]
    for row, label in zip(values, labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _fails_writing_nothing(tmp_path, capsys, argv, data, code, message):
    """main(argv), with IN and OUT read as ``data`` and an output path, exits
    ``code`` with ``message`` on stderr and adds no file to tmp_path."""
    names = {"IN": str(data), "OUT": str(tmp_path / "out.csv")}
    before = set(tmp_path.iterdir())
    assert main([names.get(arg, arg) for arg in argv]) == code
    assert message in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_knn_line_dataset(tmp_path):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "scores.csv"
    code = main([
        "score", "--method", "KNN", "--k", "1", "--input", str(data),
        "--output", str(out), "--no-normalize",
    ])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert np.array_equal(scores, [1.0, 1.0, 1.0, 8.0])
    assert meta["method"] == "KNN"
    assert meta["k"] == "1"
    assert meta["normalize"] == "none"
    assert meta["prng"] == "numpy-PCG64"


def test_score_is_byte_identical_for_fixed_seed(tmp_path):
    rng = np.random.default_rng(1)
    data = tmp_path / "rand.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in rng.normal(size=(30, 3))) + "\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["score", "--method", "KSP", "--sample-size", "5", "--seed", "7",
            "--input", str(data)]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_score_ic_feature_dimension_error(tmp_path):
    rng = np.random.default_rng(2)
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in rng.normal(size=(3, 784))) + "\n")
    out = tmp_path / "out.csv"
    code = main(["score", "--method", "IC", "--input", str(data),
                 "--output", str(out), "--no-normalize"])
    assert code == EXIT_NUMERIC
    assert not out.exists()


def test_score_records_derived_rho(tmp_path):
    data = _write_blobs(tmp_path)
    out = tmp_path / "kic.csv"
    code = main(["score", "--method", "KIC", "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert float(meta["rho"]) > 0.0
    assert meta["degree"] == "2"
    assert meta["C"] == "500.0"
    assert len(scores) == 48


def test_score_huge_rho_runs_without_warning(tmp_path):
    # rho = 1e200 puts entries near 1e200 on the factorized diagonal, whose
    # squares overflow; the Frobenius norm of the fit must not warn.
    data = _write_blobs(tmp_path, seed=4)
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["score", "--method", "KIC", "--rho", "1e200", "--input", str(data),
                     "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert meta["rho"] == "1e+200"
    assert len(scores) == 48


# 48 rows, each of 6 distinct rows written 8 times: the 10 monomials of
# degree 2 in 3 columns number at most 48, so KIC takes the feature route,
# and M has rank 6 of 10, so rho = 1e-300 leaves rho I + M, and with it
# rho I + G/n, singular.
_SIX_DISTINCT = {"n_inlier": 4, "n_outlier": 2, "repeats": 8}


@pytest.mark.parametrize("flags, blobs, message", [
    (["--rho", "1e-300"], _SIX_DISTINCT, r"not positive definite at rho = 1e-300 \(\|\|G/n\|\|_F = "),
    # The C rule underflows to rho = 0 and overflows to rho = inf.
    (["--C", "1e308"], {}, r"rho = 0 \(from C = 1e\+308\)"),
    (["--C", "1e-310"], {}, r"rho = inf \(from C = 1e-310\)"),
], ids=["rho-1e-300", "C-1e308", "C-1e-310"])
def test_score_fails_naming_the_rho_it_cannot_use(tmp_path, capsys, flags, blobs, message):
    # No fit is perturbed into passing at another rho: the run fails and
    # names rho, and writes no file.
    data = _write_blobs(tmp_path, seed=4, **blobs)
    out = tmp_path / "scores.csv"
    code = main(["score", "--method", "KIC", *flags, "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_NUMERIC
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_score_config_error_for_mismatched_flag(tmp_path, capsys):
    data = _write_line_dataset(tmp_path)
    code = main(["score", "--method", "KNN", "--sigma", "2.0",
                 "--input", str(data), "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "--sigma" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--method", "KIC2", "--alpha", "2"],
    ["--method", "KNN", "--k", "5000"],
    ["--method", "KIC-RBF", "--sigma", "-1"],
    ["--method", "KSP2", "--alpha", "3"],
    ["--method", "KIC", "--rho", "-1"],
    ["--method", "KIC", "--C", "0"],
    ["--method", "IC", "--degree", "0"],
    ["--method", "KIC", "--degree", "65"],
    ["--method", "KIC2", "--degree", "65"],
    ["--method", "KSP", "--seed", "-1"],
    ["--method", "KIC", "--feature-dim-limit", "5"],
    ["--method", "IC", "--feature-dim-limit", "0"],
    ["--method", "KIC", "--rho", "inf"],
    ["--method", "KIC", "--C", "inf"],
    ["--method", "KIC-RBF", "--sigma", "inf"],
    ["--method", "KIC-RBF", "--sigma", "1e-300"],
    ["--method", "KIC-RBF", "--sigma", "1e-160"],
    ["--method", "KIC-RBF", "--sigma", "1e200"],
])
def test_score_out_of_range_hyperparameter_is_config_error(tmp_path, capsys, flags):
    data = _write_blobs(tmp_path)
    out = tmp_path / "x.csv"
    code = main(["score", *flags, "--input", str(data), "--label-column", "outlier",
                 "--output", str(out)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["score", "--method", "KIC"],
    ["contour", "--method", "KIC-RBF", "--grid=-1,1,3,-1,1,3"],
])
def test_kic_commands_build_one_gram(tmp_path, monkeypatch, command):
    from christoffel_outliers import christoffel, cli

    calls = []
    real = christoffel.gram_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    # The CLI must not build a Gram of its own next to the one fit_kic builds.
    monkeypatch.setattr(christoffel, "gram_matrix", counted)
    monkeypatch.setattr(cli, "gram_matrix", counted, raising=False)
    # KIC on 10 features has 66 monomials, more than the 48 rows, so it
    # takes the kernel route; contour needs 2 features.
    data = _write_blobs(tmp_path, p=2 if command[0] == "contour" else 10)
    code = main([*command, "--input", str(data), "--label-column", "outlier",
                 "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_score_unknown_method(tmp_path):
    data = _write_line_dataset(tmp_path)
    code = main(["score", "--method", "LOF",
                 "--input", str(data), "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv, code, message", [
    (["--input", "IN", "--output", "OUT"], EXIT_CONFIG, "score requires exactly one --method"),
    (["--method", "KIC,KNN", "--input", "IN", "--output", "OUT"], EXIT_CONFIG,
     "score requires exactly one --method"),
    (["--method", "KNN", "--output", "OUT"], EXIT_CONFIG, "score requires --input and --output"),
    (["--method", "KNN", "--input", "IN"], EXIT_CONFIG, "score requires --input and --output"),
    (["--method", "KNN", "--input", "IN", "--output", "OUT", "--label-column", "-1"], EXIT_IO,
     "label column index -1 out of range for 4 columns"),
    (["--method", "KNN", "--input", "IN", "--output", "OUT", "--label-column", "4"], EXIT_IO,
     "label column index 4 out of range for 4 columns"),
])
def test_score_configuration_errors(tmp_path, capsys, argv, code, message):
    data = _write_blobs(tmp_path)
    _fails_writing_nothing(tmp_path, capsys, ["score", *argv], data, code, message)


def test_score_missing_input_is_io_error(tmp_path):
    code = main(["score", "--method", "KNN", "--input", str(tmp_path / "none.csv"),
                 "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_IO


@pytest.mark.parametrize("content, message", [
    (b"a,b,outlier\n1,2,0\n3,\xe9,1\n", "not UTF-8 text (byte 0xe9"),
    (b"a,b,outlier\n1,2,0\n3," + b"4" * 131073 + b",1\n",
     "field larger than field limit (131072) at row 3"),
    (b"a," + b"b" * 131073 + b",outlier\n1,2,0\n3,4,1\n", "field larger than field limit (131072)"),
], ids=["not-utf8", "long-cell", "long-header"])
def test_unreadable_input_exits_4_with_one_line(tmp_path, capsys, content, message):
    # Bytes that are not UTF-8, and a field past the csv module's limit of
    # 131072 characters, in the header (read before the row loop) or in a
    # data row: an input error naming the file, not a numerical error or a
    # traceback.
    data = tmp_path / "bad.csv"
    data.write_bytes(content)
    before = set(tmp_path.iterdir())
    code = main(["score", "--method", "KNN", "--k", "1", "--input", str(data),
                 "--label-column", "outlier", "--output", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith(f"input error: {data}: {message}") and err.count("\n") == 1
    assert set(tmp_path.iterdir()) == before


def test_env_variable_overrides_default(tmp_path, monkeypatch):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "env.csv"
    monkeypatch.setenv("CHRISTOFFEL_K", "2")
    code = main(["score", "--method", "KNN", "--input", str(data),
                 "--output", str(out), "--no-normalize"])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert meta["k"] == "2"
    assert np.array_equal(scores, [2.0, 1.0, 2.0, 9.0])


def test_cli_flag_wins_over_env(tmp_path, monkeypatch):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "flag.csv"
    monkeypatch.setenv("CHRISTOFFEL_K", "2")
    code = main(["score", "--method", "KNN", "--k", "1", "--input", str(data),
                 "--output", str(out), "--no-normalize"])
    assert code == EXIT_OK
    meta, _ = _read_scores(out)
    assert meta["k"] == "1"


def test_env_boolean_no_normalize(tmp_path, monkeypatch):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "envnorm.csv"
    monkeypatch.setenv("CHRISTOFFEL_NO_NORMALIZE", "1")
    code = main(["score", "--method", "KNN", "--k", "1", "--input", str(data),
                 "--output", str(out)])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert meta["normalize"] == "none"
    assert np.array_equal(scores, [1.0, 1.0, 1.0, 8.0])


@pytest.mark.parametrize("value, normalize", [
    ("off", "population-zscore"), ("", "population-zscore"), (" Yes ", "none"), ("ture", None),
])
def test_env_boolean_spellings(tmp_path, monkeypatch, capsys, value, normalize):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "envnorm.csv"
    monkeypatch.setenv("CHRISTOFFEL_NO_NORMALIZE", value)
    code = main(["score", "--method", "KNN", "--k", "1", "--input", str(data),
                 "--output", str(out)])
    if normalize is None:
        assert code == EXIT_CONFIG
        assert "invalid value for --no-normalize: 'ture'" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == EXIT_OK
        assert _read_scores(out)[0]["normalize"] == normalize


def test_rho_override_bypasses_default_rule(tmp_path):
    data = _write_blobs(tmp_path, seed=9)
    out = tmp_path / "rho.csv"
    code = main(["score", "--method", "KIC", "--rho", "0.125", "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    meta, _ = _read_scores(out)
    assert meta["rho"] == "0.125"


def test_score_file_loads_back_as_csv(tmp_path):
    data = _write_line_dataset(tmp_path)
    out = tmp_path / "scores.csv"
    assert main(["score", "--method", "KNN", "--k", "1", "--input", str(data),
                 "--output", str(out), "--no-normalize"]) == EXIT_OK
    dm = load_csv(out)
    assert dm.feature_names == ["score"]
    assert np.array_equal(dm.values[:, 0], [1.0, 1.0, 1.0, 8.0])


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_two_datasets(tmp_path):
    d1 = _write_blobs(tmp_path, seed=1)
    d2 = _write_blobs(tmp_path, seed=2)
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--method", "KNN,KSP", "--input", f"{d1},{d2}",
        "--label-column", "outlier", "--trials", "4", "--seed", "3",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    cells, aggregates = _read_bench(out)
    assert cells[(str(d1), "KNN")][2] == 1
    assert cells[(str(d1), "KNN")][1] == 0.0  # deterministic: std 0
    assert cells[(str(d2), "KSP")][2] == 4
    for value, _, _ in cells.values():
        assert 0.0 <= value <= 1.0
    # aggregates recomputed from the emitted cell means match exactly
    recomputed = summarize(
        {key: [cell[0]] for key, cell in cells.items()},
        datasets=[str(d1), str(d2)],
        methods=["KNN", "KSP"],
    )
    for method in ("KNN", "KSP"):
        assert aggregates["average"][method] == recomputed.average[method]
        assert aggregates["avg_rank"][method] == recomputed.avg_rank[method]
        assert aggregates["rmsd"][method] == recomputed.rmsd[method]


def test_bench_marks_unavailable_methods_with_dash(tmp_path):
    rng = np.random.default_rng(5)
    # IC cannot run: 200 features at degree 2 exceeds a tight feature cap.
    values = rng.normal(size=(25, 200))
    labels = np.concatenate([np.zeros(20, int), np.ones(5, int)])
    path = tmp_path / "wide.csv"
    header = ",".join(f"f{j}" for j in range(200)) + ",outlier"
    lines = [header] + [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(values, labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bench.csv"
    code = main([
        "bench", "--method", "IC,KNN", "--input", str(path),
        "--label-column", "outlier", "--feature-dim-limit", "5000",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    cells, aggregates = _read_bench(out)
    assert cells[(str(path), "IC")] is None
    assert cells[(str(path), "KNN")] is not None
    assert np.isnan(aggregates["average"]["IC"])


def test_ic_on_a_variety_fails_score_and_costs_bench_its_cell(tmp_path, capsys):
    # Ten distinct rows on y = x: the distinct-row check passes, and the
    # Cholesky factorization of the degree-1 moment matrix fails.
    path = tmp_path / "line.csv"
    path.write_text("x,y,outlier\n" + "".join(f"{t},{t},{int(t >= 8)}\n" for t in range(10)))
    _fails_writing_nothing(tmp_path, capsys,
                           ["score", "--method", "IC", "--degree", "1", "--input", "IN",
                            "--label-column", "outlier", "--output", "OUT"],
                           path, EXIT_NUMERIC, "variety")
    out = tmp_path / "bench.csv"
    code = main(["bench", "--method", "IC,KNN", "--degree", "1", "--input", str(path),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    cells, _ = _read_bench(out)
    assert cells[(str(path), "IC")] is None
    assert cells[(str(path), "KNN")] is not None


@pytest.mark.parametrize("flags, blobs", [(["--rho", "1e-300"], _SIX_DISTINCT),
                                          (["--C", "1e308"], {}), (["--C", "1e-310"], {})],
                         ids=["rho-1e-300", "C-1e308", "C-1e-310"])
def test_bench_marks_a_fit_at_an_unusable_rho_with_dash(tmp_path, flags, blobs):
    # The rho that makes `score` exit 3 costs bench one cell, not the table.
    data = _write_blobs(tmp_path, seed=4, **blobs)
    out = tmp_path / "bench.csv"
    code = main(["bench", "--method", "KIC,KNN", *flags, "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    cells, _ = _read_bench(out)
    assert cells[(str(data), "KIC")] is None
    assert cells[(str(data), "KNN")] is not None


# Unnormalized N(0, scale^2) rows whose degree-64 Gram or moment matrix
# overflows: method, (rows, columns, scale), flags and the error message.
_OVERFLOWS = {
    "KIC-rho": ("KIC", (60, 3, 100.0), ["--rho", "1"],
                "polynomial Gram matrix overflows double precision at degree 64"),
    "KIC-C": ("KIC", (60, 3, 100.0), [],
              "polynomial Gram matrix overflows double precision at degree 64"),
    "IC": ("IC", (100, 1, 1000.0), [],
           "moment matrix overflows double precision at degree 64"),
}


@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_overflowing_matrix_costs_bench_one_cell_and_fails_score(tmp_path, capsys, case):
    method, (n, p, scale), flags, message = _OVERFLOWS[case]
    rng = np.random.default_rng(0)
    values = rng.normal(scale=scale, size=(n, p))
    path = tmp_path / "wide.csv"
    lines = [",".join(repr(float(v)) for v in row) + f",{int(i < 5)}"
             for i, row in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    run = ["--degree", "64", *flags, "--input", str(path), "--label-column", str(p),
           "--no-normalize", "--output", str(tmp_path / "out.csv")]
    assert main(["bench", "--method", f"{method},KNN", *run]) == EXIT_OK
    cells, _ = _read_bench(tmp_path / "out.csv")
    assert cells[(str(path), method)] is None
    assert cells[(str(path), "KNN")] is not None
    assert capsys.readouterr().err == ""
    assert main(["score", "--method", method, *run]) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical error: {message}; use a lower degree or normalized data\n"


def test_overflowing_distances_cost_bench_their_cells_and_fail_score(tmp_path, capsys):
    # Squared distances between N(0, 1) x 1e160 rows overflow. Unnormalized,
    # every distance method (and KIC's Gram) fails; normalized, all of them run.
    rng = np.random.default_rng(0)
    path = tmp_path / "huge.csv"
    lines = [",".join(repr(float(v)) for v in row) + f",{int(i < 5)}"
             for i, row in enumerate(rng.standard_normal((60, 3)) * 1e160)]
    path.write_text("\n".join(lines) + "\n")
    run = ["--input", str(path), "--label-column", "3", "--output", str(tmp_path / "out.csv")]
    methods = ("KNN", "KSP", "KSP2", "KIC")
    for flags, failed in (([], False), (["--no-normalize"], True)):
        assert main(["bench", "--method", ",".join(methods), *flags, *run]) == EXIT_OK
        cells, _ = _read_bench(tmp_path / "out.csv")
        assert [cells[(str(path), m)] is None for m in methods] == [failed] * len(methods)
    assert capsys.readouterr().err == ""
    for method in methods[:3]:
        assert main(["score", "--method", method, "--no-normalize", *run]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numerical error: distances overflow double precision; use normalized data\n"
        )


_NUMERICAL_CLASSES = [DistanceOverflowError, FeatureDimensionError, GramOverflowError,
                      MomentMatrixError, NotPositiveDefiniteError, RhoRangeError]


@pytest.mark.parametrize("error", _NUMERICAL_CLASSES, ids=lambda error: error.__name__)
def test_numerical_errors_share_one_base_class(error):
    assert issubclass(error, NumericalError)
    assert issubclass(error, ValueError)


@pytest.mark.parametrize("error", _NUMERICAL_CLASSES, ids=lambda error: error.__name__)
def test_failure_type_alone_decides_a_dash_cell_and_exit_3(tmp_path, monkeypatch, capsys, error):
    def failing(X, k=5):
        raise error("cannot score")

    monkeypatch.setattr(cli, "knn_scores", failing)
    data = _write_blobs(tmp_path)
    out = tmp_path / "out.csv"
    run = ["--input", str(data), "--label-column", "outlier", "--output", str(out)]
    assert main(["bench", "--method", "KNN,KSP", *run]) == EXIT_OK
    cells, _ = _read_bench(out)
    assert cells[(str(data), "KNN")] is None
    assert cells[(str(data), "KSP")] is not None
    out.unlink()
    assert main(["score", "--method", "KNN", *run]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical error:")
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError],
                         ids=lambda error: error.__name__)
def test_plain_value_error_from_a_method_fails_bench(tmp_path, monkeypatch, capsys, error):
    # Only a numerical error costs one cell; any other ValueError, numpy's
    # LinAlgError among them, is a fault that fails the whole table.
    def failing(X, k=5):
        raise error("not numerical")

    monkeypatch.setattr(cli, "knn_scores", failing)
    data = _write_blobs(tmp_path)
    out = tmp_path / "out.csv"
    code = main(["bench", "--method", "KNN,KSP", "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical error: not numerical\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["contour", "--method", "KIC", "--grid=-1,1,1000000000000000,-1,1,3"],
    ["score", "--method", "KSP", "--sample-size", "1000000000000000"],
], ids=["contour-grid", "score-ksp-sample"])
def test_request_too_large_to_allocate_is_numerical_error(tmp_path, capsys, command):
    # 10^15 grid steps or sample rows need 7.1 PiB or more, more than a
    # 64-bit Linux process can address: the grid fails the grid cap, and the
    # sample's allocation fails at once whatever the overcommit setting.
    out = tmp_path / "out.csv"
    code = main([*command, "--input", str(_write_2d(tmp_path)), "--output", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical error: Unable to allocate")
    assert not out.exists()


def test_grid_beyond_array_size_limit_is_numerical_error(tmp_path, capsys):
    # 10^19 steps, past what numpy can build as an axis, fail the grid cap
    # as 10^15 do: the same exit code as an allocation failure.
    out = tmp_path / "out.csv"
    code = main(["contour", "--method", "KIC", "--grid=-1,1,10000000000000000000,-1,1,3",
                 "--input", str(_write_2d(tmp_path)), "--output", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical error: ")
    assert not out.exists()


@pytest.mark.parametrize("steps", ["1000000000000000", "10000000000000000000"])
def test_oversize_grid_fails_before_the_input_is_read(tmp_path, capsys, steps):
    # Past the grid cap the run exits 3 before it looks for the input.
    before = set(tmp_path.iterdir())
    code = main(["contour", "--method", "KIC", f"--grid=-1,1,{steps},-1,1,3",
                 "--input", str(tmp_path / "none.csv"), "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical error: Unable to allocate ")
    assert set(tmp_path.iterdir()) == before


def test_contour_checks_grid_without_building_it(tmp_path):
    # The grid is checked before the input is read, without allocating its
    # 10^7-step axis (76 MB when both axes were built for the check).
    tracemalloc.start()
    try:
        code = main(["contour", "--method", "KIC", "--grid=-1,1,10000000,-1,1,3",
                     "--input", str(tmp_path / "none.csv"),
                     "--output", str(tmp_path / "g.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_IO
    assert peak < 2**20


def test_bench_rejects_repeated_input(tmp_path, capsys):
    data = _write_blobs(tmp_path)
    for again in (str(data), str(tmp_path / "." / data.name)):
        out = tmp_path / "b.csv"
        code = main(["bench", "--method", "KNN", "--input", str(data), "--input", again,
                     "--label-column", "outlier", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "already given" in capsys.readouterr().err
        assert not out.exists()


def test_bench_rejects_repeated_method(tmp_path, capsys):
    data = _write_blobs(tmp_path)
    for methods in (["--method", "KIC,KNN,KIC"], ["--method", "KIC,KNN", "--method", "KIC"]):
        out = tmp_path / "b.csv"
        code = main(["bench", *methods, "--input", str(data),
                     "--label-column", "outlier", "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "bench method KIC is given more than once" in capsys.readouterr().err
        assert not out.exists()


def test_bench_env_lists_match_flags(tmp_path, monkeypatch):
    d1 = _write_blobs(tmp_path, seed=1)
    d2 = _write_blobs(tmp_path, seed=2)
    by_flags = tmp_path / "flags.csv"
    assert main(["bench", "--method", "KNN,KSP", "--input", f"{d1},{d2}",
                 "--label-column", "outlier", "--trials", "2",
                 "--output", str(by_flags)]) == EXIT_OK
    monkeypatch.setenv("CHRISTOFFEL_METHOD", "KNN,KSP")
    monkeypatch.setenv("CHRISTOFFEL_INPUT", f"{d1},{d2}")
    monkeypatch.setenv("CHRISTOFFEL_LABEL_COLUMN", "outlier")
    monkeypatch.setenv("CHRISTOFFEL_TRIALS", "2")
    by_env = tmp_path / "env.csv"
    assert main(["bench", "--output", str(by_env)]) == EXIT_OK
    assert by_env.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("flags, fits", [
    (["--method", "KIC,KIC2"], 2),
    (["--method", "KIC2,KIC"], 2),
    (["--method", "KIC,KIC2", "--rho", "0.1"], 3),  # KIC does not use the C rule
    (["--method", "KIC-RBF,KIC-RBF2"], 3),  # default sigmas differ: two kernels
    (["--method", "KIC-RBF,KIC-RBF2", "--sigma", "1.5"], 2),
])
def test_bench_fits_each_c_rule_model_once(tmp_path, monkeypatch, flags, fits):
    # KIC makes one fit and KIC2 two; KIC2's first stage is KIC's C-rule fit
    # on the same rows, so within one dataset it is made once for both.
    from christoffel_outliers import christoffel, cli

    calls = []
    real = christoffel.fit_kic

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(christoffel, "fit_kic", counted)
    monkeypatch.setattr(cli, "fit_kic", counted)
    data = _write_blobs(tmp_path)
    code = main(["bench", *flags, "--input", str(data), "--label-column", "outlier",
                 "--output", str(tmp_path / "b.csv")])
    assert code == EXIT_OK
    assert len(calls) == fits


def test_bench_joint_cells_match_single_method_runs(tmp_path):
    # Outliers inside the inlier cloud, so that each method has its own AUPRC
    # and a score reused for the wrong method shows in the table.
    paths = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        values = np.vstack([rng.normal(size=(40, 3)), 2.5 * rng.normal(size=(8, 3))])
        labels = [0] * 40 + [1] * 8
        path = tmp_path / f"mixed{seed}.csv"
        path.write_text("".join(",".join(map(repr, row)) + f",{label}\n"
                                for row, label in zip(values.tolist(), labels)))
        paths.append(path)
    d1, d2 = paths
    methods = ["KIC", "KIC2", "KIC-RBF", "KIC-RBF2"]

    def cell_rows(method_list, out):
        assert main(["bench", "--method", method_list, "--input", f"{d1},{d2}",
                     "--label-column", "3", "--output", str(out)]) == EXIT_OK
        return [line for line in out.read_text().splitlines() if line.startswith("cell,")]

    joint = cell_rows(",".join(methods), tmp_path / "joint.csv")
    single = [cell_rows(m, tmp_path / f"{m}.csv") for m in methods]
    # bench writes the cells dataset by dataset, methods in the order given.
    assert joint == [rows[dataset] for dataset in range(2) for rows in single]
    assert len({row.split(",")[3] for row in joint}) == len(joint)


def test_bench_requires_labels(tmp_path, capsys):
    data = _write_line_dataset(tmp_path)
    code = main(["bench", "--method", "KNN", "--input", str(data),
                 "--output", str(tmp_path / "b.csv")])
    assert code == EXIT_CONFIG
    assert "line.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["--input", "IN", "--label-column", "outlier", "--output", "OUT"], EXIT_CONFIG,
     "bench requires --method"),
    (["--method", "KNN", "--label-column", "outlier", "--output", "OUT"], EXIT_CONFIG,
     "bench requires --input"),
    (["--method", "KNN", "--input", "IN", "--label-column", "outlier"], EXIT_CONFIG,
     "bench requires --output"),
    (["--method", "KNN", "--input", "IN", "--label-column", "outlier", "--output", "OUT",
      "--trials", "0"], EXIT_CONFIG, "--trials must be >= 1"),
    (["--method", "KNN", "--input", "IN", "--label-column", "inlier", "--output", "OUT"],
     EXIT_CONFIG, "has degenerate labels (single class)"),
    (["--method", "KNN", "--input", "IN", "--label-column", "5", "--output", "OUT"], EXIT_IO,
     "label column index 5 out of range for 5 columns"),
])
def test_bench_configuration_errors(tmp_path, capsys, argv, code, message):
    data = _write_blobs(tmp_path)
    # A second 0/1 column that marks every row 0: one class only.
    lines = data.read_text().splitlines()
    data.write_text("\n".join([lines[0] + ",inlier"] + [line + ",0" for line in lines[1:]]) + "\n")
    _fails_writing_nothing(tmp_path, capsys, ["bench", *argv], data, code, message)


def test_bench_synthetic_gaussian_near_perfect(tmp_path):
    data = tmp_path / "gauss.csv"
    assert main(["synth", "--dimension", "40", "--clusters", "5",
                 "--samples-per-cluster", "60", "--outliers", "15",
                 "--seed", "2", "--output", str(data)]) == EXIT_OK
    out = tmp_path / "table.csv"
    code = main(["bench", "--method", "KNN,KIC,KIC-RBF", "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    cells, _ = _read_bench(out)
    for method in ("KNN", "KIC", "KIC-RBF"):
        value, std, _ = cells[(str(data), method)]
        assert value >= 0.99
        assert std == 0.0


def test_score_kic2_records_alpha(tmp_path):
    data = _write_blobs(tmp_path, seed=12)
    out = tmp_path / "kic2.csv"
    code = main(["score", "--method", "KIC2", "--input", str(data),
                 "--label-column", "outlier", "--output", str(out)])
    assert code == EXIT_OK
    meta, scores = _read_scores(out)
    assert meta["alpha"] == "0.6"
    assert meta["C"] == "500.0"
    assert len(scores) == 48
    assert np.all(scores >= 0.0)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    args = ["synth", "--dimension", "6", "--clusters", "2",
            "--samples-per-cluster", "9", "--outliers", "3", "--seed", "11"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    dm = load_csv(out1, label_column="outlier")
    assert dm.values.shape == (21, 6)
    assert int(dm.labels.sum()) == 3

    from christoffel_outliers import synth_gaussian

    direct = synth_gaussian(
        num_clusters=2, samples_per_cluster=9, num_outliers=3, dimension=6, seed=11,
    )
    # CSV round trip preserves every double exactly (repr formatting)
    assert np.array_equal(dm.values, direct.values)
    # The printed text too: each value is its repr, the label an int.
    lines = [line for line in out1.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "f1,f2,f3,f4,f5,f6,outlier"
    assert lines[1:] == [",".join(map(repr, row)) + f",{label}"
                         for row, label in zip(direct.values.tolist(), direct.labels.tolist())]


def test_synth_writes_row_by_row(tmp_path):
    # A 1000 x 200 array is 1.6 MB. Its formatted rows as Python objects take
    # about ten times that, so the bound holds only when each row is written
    # as it is formatted.
    tracemalloc.start()
    try:
        code = main(["synth", "--dimension", "200", "--output", str(tmp_path / "g.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 6 * 1000 * 200 * 8


def test_synth_bad_config(tmp_path):
    code = main(["synth", "--dimension", "0", "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_CONFIG
    code = main(["synth", "--seed", "-1", "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv, code, message", [
    ([], EXIT_CONFIG, "synth requires --output"),
    (["--output", "OUT", "--dimension", "0"], EXIT_CONFIG, "dimension must be >= 1"),
    (["--output", "OUT", "--seed", "-1"], EXIT_CONFIG, "--seed must be >= 0, got -1"),
    (["--output", "OUT", "--variance-repair", "clip"], EXIT_CONFIG,
     "variance_repair must be 'abs' or 'square'"),
    # Of two bad flags, the one checked first is reported: flags are read in
    # order, then the values are checked in order.
    (["--output", "OUT", "--dimension", "0", "--clusters", "0"], EXIT_CONFIG,
     "need at least one cluster with at least one sample"),
    (["--output", "OUT", "--dimension", "x", "--seed", "-1"], EXIT_CONFIG,
     "invalid value for --dimension: 'x'"),
    # An array numpy cannot shape is a numerical error, as one it cannot allocate is.
    (["--output", "OUT", "--dimension", str(10**20)], EXIT_NUMERIC, "numerical error: "),
])
def test_synth_configuration_errors(tmp_path, capsys, argv, code, message):
    _fails_writing_nothing(tmp_path, capsys, ["synth", *argv], None, code, message)


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------


def _write_2d(tmp_path, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    path = tmp_path / "plane.csv"
    rows = rng.normal(size=(20, 2)) * scale
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    return path


def _read_grid(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("x,"):
            continue
        x, y, score = map(float, line.split(","))
        rows.append((x, y, score))
    return rows


def test_contour_grid_counts_and_determinism(tmp_path):
    data = _write_2d(tmp_path)
    out1 = tmp_path / "grid1.csv"
    out2 = tmp_path / "grid2.csv"
    args = ["contour", "--method", "KIC", "--input", str(data),
            "--grid=-2,2,10,-2,2,10", "--no-normalize"]
    assert main(args + ["--output", str(out1)]) == EXIT_OK
    assert main(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_grid(out1)
    assert len(rows) == 100
    assert all(np.isfinite(score) for _, _, score in rows)
    # The printed text: the repr of each x, y and grid_scores score, x varying fastest.
    model = fit_kic(load_csv(data).values, KernelSpec.polynomial(2), None, 500.0)
    xs, ys, scores = grid_scores(model, (-2.0, 2.0, 10), (-2.0, 2.0, 10))
    lines = [line for line in out1.read_text().splitlines() if not line.startswith("#")]
    expected = [f"{x!r},{y!r},{s!r}"
                for y, row in zip(ys.tolist(), scores.tolist()) for x, s in zip(xs.tolist(), row)]
    assert lines == ["x,y,score", *expected]


def test_contour_rbf_far_field(tmp_path):
    data = _write_2d(tmp_path, seed=1, scale=0.2)
    out = tmp_path / "far.csv"
    code = main(["contour", "--method", "KIC-RBF", "--sigma", "0.5",
                 "--input", str(data), "--grid=-40,40,3,-40,40,3",
                 "--no-normalize", "--output", str(out)])
    assert code == EXIT_OK
    rows = _read_grid(out)
    corners = [s for x, y, s in rows if abs(x) == 40.0 and abs(y) == 40.0]
    assert len(corners) == 4
    assert np.allclose(corners, 1.0, atol=1e-3)


@pytest.mark.parametrize("degree, grid", [
    ("2", "-1e200,1e200,3,-1e200,1e200,3"),
    ("5", "-1e200,1e200,3,-1e200,1e200,3"),
    ("30", "1e6,2e6,2,0,1,2"),
], ids=["feature-route", "kernel-route", "kernel-route-nan"])
def test_contour_overflow_exits_3_with_one_line_and_no_warning(tmp_path, capsys, degree, grid):
    # 6 monomials of degree 2 in 2 features take the feature route on the 20
    # rows, 21 of degree 5 and 496 of degree 30 the kernel route. On the first
    # two grids every point but the centre overflows its features or kernel
    # row. On the third, the kernel rows stay finite but each self-kernel and
    # ||z||^2 overflow, and their difference would be NaN. The solve then
    # fails with one message, and no numpy warning (an error under this
    # suite's filter).
    out = tmp_path / "g.csv"
    code = main(["contour", "--method", "KIC", "--degree", degree, "--input", str(_write_2d(tmp_path)),
                 f"--grid={grid}", "--output", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical error: rhs contains non-finite values\n"
    assert not out.exists()


def test_contour_requires_two_features(tmp_path):
    data = _write_blobs(tmp_path)
    code = main(["contour", "--method", "KIC", "--input", str(data),
                 "--label-column", "outlier", "--grid=-1,1,3,-1,1,3",
                 "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_CONFIG


def test_contour_rejects_non_kic_method(tmp_path):
    data = _write_2d(tmp_path)
    code = main(["contour", "--method", "KNN", "--input", str(data),
                 "--grid=-1,1,3,-1,1,3", "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_CONFIG


def test_contour_requires_grid(tmp_path):
    data = _write_2d(tmp_path)
    code = main(["contour", "--method", "KIC", "--input", str(data),
                 "--output", str(tmp_path / "g.csv")])
    assert code == EXIT_CONFIG
    # An invalid grid is rejected before the input is read, so a missing
    # input does not turn it into an I/O error.
    for grid in ("1,-1,10,-1,1,10", "-1,1,1,-1,1,10", "-1,1,10,-1,1,1",
                 "-inf,1,10,-1,1,10", "-1,1,10,nan,1,10", "-1,1,10", "-1,1,x,-1,1,10"):
        code = main(["contour", "--method", "KIC", "--input", str(tmp_path / "none.csv"),
                     f"--grid={grid}", "--output", str(tmp_path / "g.csv")])
        assert code == EXIT_CONFIG, grid


@pytest.mark.parametrize("argv, message", [
    (["--input", "IN", "--output", "OUT"], "contour requires exactly one --method"),
    (["--method", "KIC,KIC-RBF", "--input", "IN", "--output", "OUT"],
     "contour requires exactly one --method"),
    (["--method", "KIC", "--output", "OUT"], "contour requires --input and --output"),
    (["--method", "KIC", "--input", "IN"], "contour requires --input and --output"),
])
def test_contour_configuration_errors(tmp_path, capsys, argv, message):
    data = _write_2d(tmp_path)
    _fails_writing_nothing(tmp_path, capsys, ["contour", *argv, "--grid=-1,1,3,-1,1,3"], data,
                           EXIT_CONFIG, message)


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats roughly doubles the import time of the command-line tool.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, christoffel_outliers.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_scipy_linalg():
    # import scipy.linalg takes about half of the tool's start-up; the BLAS and
    # LAPACK routines come from scipy's Cython modules loaded on their own, so
    # fitting and scoring do not load it either. A later import of scipy.linalg
    # must find them as its own submodules, and spd_solve, which imports
    # solve_triangular, and the lazily imported cdist must still work.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = textwrap.dedent("""
        import sys
        import numpy as np
        import christoffel_outliers.cli
        from christoffel_outliers import (KernelSpec, fit_kic, ic_scores, kic_score, kic_scores,
                                          knn_scores, linalg)
        X = np.random.default_rng(5).normal(size=(40, 3))
        # Degree 2 takes the feature route (s = 10 <= n), degree 5 the kernel route.
        for kernel in (KernelSpec.polynomial(2), KernelSpec.polynomial(5), KernelSpec.rbf(1.0)):
            model = fit_kic(X, kernel)
            kic_scores(model, X), kic_score(model, X[0])
        ic_scores(X, X, 2)
        loaded = "scipy.linalg" in sys.modules
        import scipy.linalg, scipy.spatial.distance
        for name in ("cython_blas", "cython_lapack"):
            assert getattr(scipy.linalg, name) is sys.modules["scipy.linalg." + name], name
        F = linalg.spd_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        b = np.array([1.0, -2.0])
        y = scipy.linalg.solve_triangular(F.lower, b, lower=True)
        x = scipy.linalg.solve_triangular(F.lower, y, lower=True, trans="T")
        assert x.tobytes() == linalg.spd_solve(F, b).tobytes()
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        nearest = scipy.spatial.distance.cdist(X, X)[[1, 0, 0, 2], [0, 1, 2, 3]]
        assert np.array_equal(knn_scores(X, k=1), nearest)
        print(loaded)
    """)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_module_entry_point_exit_codes(tmp_path):
    # python -m christoffel_outliers.cli runs cli.entry, which exits with main's code.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHRISTOFFEL_")}
    env["PYTHONPATH"] = str(src)
    command = [sys.executable, "-m", "christoffel_outliers.cli", "synth", "--dimension", "2",
               "--clusters", "1", "--samples-per-cluster", "3", "--outliers", "1"]
    out = tmp_path / "g.csv"
    ok = subprocess.run([*command, "--output", str(out)], env=env, capture_output=True, text=True)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert "f1,f2,outlier" in out.read_text().splitlines()
    missing = subprocess.run(command, env=env, capture_output=True, text=True)
    assert missing.returncode == EXIT_CONFIG
    assert missing.stderr.startswith("configuration error: ")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_score_output_does_not_depend_on_cpu_count(tmp_path):
    # KIC-RBF scores 1000 rows on a 1000-row fit, a batch that kic_scores
    # splits over the CPUs of the affinity mask; on one CPU it runs serially.
    # BLAS runs one thread in both children, as its own threaded routines
    # round by thread count.
    rng = np.random.default_rng(31)
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(",".join(repr(float(v)) for v in row)
                              for row in rng.normal(size=(1000, 4))) + "\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHRISTOFFEL_")}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    probe = ("import os, sys\n"
             "if sys.argv[1] == 'one':\n"
             "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])\n"
             "from christoffel_outliers.cli import main\n"
             "sys.exit(main(sys.argv[2:]))\n")
    outputs = []
    for mask in ("all", "one"):
        out = tmp_path / f"{mask}.csv"
        subprocess.run([sys.executable, "-c", probe, mask, "score", "--method", "KIC-RBF",
                        "--input", str(data), "--output", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # KIC on 500 rows of 2 features takes the feature route, whose 6 x 6
    # factor and 6-long solves give the same bytes under two BLAS threads.
    plane = tmp_path / "plane.csv"
    plane.write_text("\n".join(",".join(repr(float(v)) for v in row)
                               for row in rng.normal(size=(500, 2))) + "\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"plane{threads}.csv"
        subprocess.run([sys.executable, "-c", probe, "all", "score", "--method", "KIC",
                        "--input", str(plane), "--output", str(out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads},
                       check=True, capture_output=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
