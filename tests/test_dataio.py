import warnings

import numpy as np
import pytest

from christoffel_outliers import (
    CsvFormatError,
    DataMatrix,
    dataio,
    load_csv,
    normalize,
    synth_gaussian,
)
from christoffel_outliers.cli import EXIT_IO, main


# ---------------------------------------------------------------------------
# DataMatrix
# ---------------------------------------------------------------------------


def test_datamatrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        DataMatrix(values=np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataMatrix(values=np.array([[1.0, -np.inf]]))
    with pytest.raises(ValueError):
        DataMatrix(values=np.ones(3))
    with pytest.raises(ValueError):
        DataMatrix(values=np.ones((2, 2)), labels=np.array([1]))
    with pytest.raises(ValueError):
        DataMatrix(values=np.ones((2, 2)), labels=np.array([0, 2]))


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def test_load_plain_numeric(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.5\n-3.0,4.0\n")
    dm = load_csv(path)
    assert np.array_equal(dm.values, [[1.5, 2.5], [-3.0, 4.0]])
    assert dm.labels is None
    assert dm.feature_names is None
    # Cells parse as Python float parses them, quotes removed by the CSV reader.
    odd = tmp_path / "odd.csv"
    odd.write_text(' 1.5,+.5,1e5,1_0,"2.5"\n0,0,0,0,0\n')
    dm = load_csv(odd)
    assert dm.feature_names is None
    assert dm.values[0].tolist() == [float(c) for c in (" 1.5", "+.5", "1e5", "1_0", "2.5")]


def test_load_with_header_and_labels(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("f1,f2,outlier\n1.0,2.0,0\n3.0,4.0,1\n")
    dm = load_csv(path, label_column="outlier")
    assert np.array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(dm.labels, [0, 1])
    assert dm.feature_names == ["f1", "f2"]


def test_load_label_by_index(tmp_path):
    path = tmp_path / "indexed.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    dm = load_csv(path, label_column=0)
    assert np.array_equal(dm.labels, [0, 1])
    assert np.array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_non_numeric_cell_names_row(tmp_path):
    # Row numbers count comment, blank and header lines. nan and inf are
    # rejected in any row; a first row holding one is not a header.
    cases = [
        ("1.0,2.0\n3.0,4.0\n5.0,oops\n", "row 3, column 2"),
        ("1.0,nan\n2,3\n4,5\n7,1\n", "row 1, column 2"),
        ("inf,1.0\n2,3\n", "row 1, column 1"),
        ("1.0,2.0\n3.0,-inf\n", "row 2, column 2"),
        ("# note\n\n1.0,2.0\n3.0,NaN\n", "row 4, column 2"),
        ("a,b\n# note\n1.0,2.0\n\n3.0,x\n", "row 5, column 2"),
    ]
    for i, (text, where) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=where):
            load_csv(path)


def test_load_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError, match="ragged"):
        load_csv(path)


def test_load_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="not found"):
        load_csv(path, label_column="outlier")
    raw = tmp_path / "raw.csv"
    raw.write_text("1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="no header"):
        load_csv(raw, label_column="outlier")


def test_load_rejects_label_only_file(tmp_path, capsys):
    # Splitting off the only column would leave no features to score.
    for text, label in (("0\n1\n0\n", 0), ("y\n0\n1\n0\n", "y")):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match="the label column is the only column"):
            load_csv(path, label_column=label)
        code = main(["score", "--method", "KNN", "--label-column", str(label),
                     "--input", str(path), "--output", str(tmp_path / "out.csv")])
        assert code == EXIT_IO
        assert "only column" in capsys.readouterr().err


def test_load_strips_utf8_bom(tmp_path, monkeypatch):
    # A byte-order mark is not part of the first cell: a first data row
    # stays data, and a header's first name loses it.
    path = tmp_path / "bom.csv"
    path.write_bytes(bytes.fromhex("EFBBBF 312C32 0A 332C34 0A 352C36 0A"))
    fast, loop, calls = _fast_and_loop(monkeypatch, path)
    assert fast == loop and calls == 0
    assert fast[1] == np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).tobytes()
    assert fast[3] is None
    path.write_bytes("\ufefff1,y\n0,1\n1,0\n".encode("utf-8"))
    for label, names in (("y", ["f1"]), ("f1", ["y"])):
        fast, loop, calls = _fast_and_loop(monkeypatch, path, label_column=label)
        assert fast == loop and calls == 0
        assert fast[3] == names


def test_load_skips_comment_lines(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("# tool = x\n# seed = 0\n1.0,2.0\n3.0,4.0\n")
    dm = load_csv(path)
    assert dm.n == 2


def test_load_rejects_non_binary_labels(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text("f1,y\n1.0,2\n")
    with pytest.raises(CsvFormatError, match="not binary"):
        load_csv(path, label_column="y")
    later = tmp_path / "badlabel_later.csv"
    later.write_text("f1,y\n1.0,0\n# note\n\n2.0,1\n3.0,2\n")
    with pytest.raises(CsvFormatError, match="'2' at row 6 is not binary"):
        load_csv(later, label_column="y")


def test_load_names_first_faulty_row_in_file_order(tmp_path):
    # A bad label and a bad cell in one file, in both orders: the error names
    # whichever comes first, also when the later fault stops the parse.
    cases = [
        ("f1,y\n1.0,2\n3.0,nan\n", "label value '2' at row 2 is not binary"),
        ("f1,y\n1.0,0\nnan,1\n4.0,2\n", "value 'nan' at row 3, column 1"),
        ("f1,y\n1.0,1\n# note\n2.0,5\n3.0,oops\n", "label value '5' at row 4 is not binary"),
        ("f1,y\noops,0\n1.0,2\n", "value 'oops' at row 2, column 1"),
        ("f1,y\n1.0,0\n2.0,inf\n3.0\n", "value 'inf' at row 3, column 2"),
        ("f1,y\n1.0,-1\n3.0\n", "label value '-1' at row 2 is not binary"),
    ]
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"faults{i}.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=message):
            load_csv(path, label_column="y")


@pytest.mark.parametrize("text, message", [
    ("f1,y\n1.0,0\n# note\n2.0,1\n3.0,2\n", "label value '2' at row 5 is not binary"),
    ("f1,y\n1.0,0\n# note\n2.0,1\nnan,0\n", "value 'nan' at row 5, column 1"),
])
def test_row_loop_raises_at_the_faulty_row_without_reading_again(tmp_path, monkeypatch, text, message):
    # The C reader stops at the '# note' line, so only the row loop sees the
    # fault. The file is opened once for its first row and once for the loop.
    path = tmp_path / "late.csv"
    path.write_text(text)
    opened = []

    def counted(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(dataio, "open", counted, raising=False)
    with pytest.raises(CsvFormatError, match=message):
        load_csv(path, label_column="y")
    assert len(opened) == 2


def _outcome(path, **kwargs):
    """What ``load_csv`` gives: the shape, value bits, labels and names, or the error text."""
    try:
        dm = load_csv(path, **kwargs)
    except CsvFormatError as exc:
        return str(exc)
    labels = None if dm.labels is None else dm.labels.tolist()
    return dm.values.shape, dm.values.tobytes(), labels, dm.feature_names


def _fast_and_loop(monkeypatch, path, **kwargs):
    """``load_csv``'s outcome with its count of row-loop calls, and the row loop's own outcome."""
    calls = []
    real = dataio._load_rows
    with monkeypatch.context() as m:
        m.setattr(dataio, "_load_rows", lambda *args: calls.append(args) or real(*args))
        fast = _outcome(path, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(dataio, "_load_fast", lambda *args: None)
        loop = _outcome(path, **kwargs)
    return fast, loop, len(calls)


# Each cell spelling with the row-loop calls it costs in a data row and in
# the first row, where a cell that is not a number makes the row a header.
# None: the C reader may take the spelling or leave it to the row loop.
_SPELLINGS = [
    (" 1.5", 0, 0), ("+.5", 0, 0), ("1e5", 0, 0), ("1.", 0, 0), ("1_0", 1, 1),
    ('"2.5"', 0, 0), ("0x10", 1, 0), ("", 1, 0), ("nan(123)", 1, 0), ("\u0661", 1, 1),
    ("1d5", 1, 0), ("Infinity", 1, 1), ("\xa01.5", None, None),
]

# (text, keyword arguments, row-loop calls)
_CASES = [
    *[(f"a,b\n1,{cell}\n3,4\n", {}, calls) for cell, calls, _ in _SPELLINGS],
    *[(f"{cell},1\n3,4\n", {}, calls) for cell, _, calls in _SPELLINGS],
    ("a,b\n1,2#x\n3,4\n", {}, 1),
    ("1,2\n3,4\n# end\n", {}, 1),
    ("1,2\n \t \n3,4\n", {}, 1),
    ("a,b,c\n1,2\n3,4\n", {}, 1),
    ("a\n1,2\n3,4\n", {}, 1),
    ('"a\nb",c\n1,2\n3,4\n', {}, 0),
    ('"1\n",2\n3,4\n', {}, 0),
    ("a,b\r\n1,2\r\n3,4\r\n", {}, 0),
    ("\ufeffa,b\n1,2\n", {}, 0),
    ("\ufeff1,2\n3,4\n", {}, 0),
    ("x\n1\n2\n", {}, 0),
    ("1\n \n2\n", {}, 1),
    ("# note\n\nf1,y\n1.5,0\n2.5,1\n", {"label_column": "y"}, 0),
    ("1.5,0\n2.5,1\n", {"label_column": 1}, 0),
    ("1.5,0\n2.5,2\n", {"label_column": 1}, 1),
    # Other separators: one cell per line, so the first row is a header.
    ("1;2\n3;4\n", {}, 1),
    ("1\t2\n3\t 4\n", {}, 1),
    ("a b\n1 2\n3 4\n", {}, 1),
    ("1  2\n3 4\n", {}, 1),
    ("", {}, 1),
    ("# a\n\n   \n# b\n", {}, 1),
    ("a,b\n# c\n\n", {}, 1),
]


@pytest.mark.parametrize("text, kwargs, expected_calls", _CASES)
def test_fast_path_matches_row_loop(tmp_path, monkeypatch, text, kwargs, expected_calls):
    # The C reader's table equals the row loop's bit for bit, or the row loop
    # runs once and decides: it returns its table or raises its exact error.
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    fast, loop, calls = _fast_and_loop(monkeypatch, path, **kwargs)
    assert fast == loop
    if isinstance(loop, str):
        assert calls == 1
    if expected_calls is None:
        assert calls <= 1
    else:
        assert calls == expected_calls


def test_fast_path_loads_benchmark_csv_without_row_loop(tmp_path, monkeypatch):
    # A fast path that always fell back would pass every other test; this one
    # counts the row loop's calls on a clean file shaped like the benchmark's.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 30)) * rng.uniform(0.1, 50.0, size=30)
    y = (np.arange(60) >= 55).astype(int)
    path = tmp_path / "bench.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"f{j + 1}" for j in range(30)) + ",outlier\n")
        for row, label in zip(X.tolist(), y.tolist()):
            handle.write(",".join(map(repr, row)) + f",{label}\n")
    fast, loop, calls = _fast_and_loop(monkeypatch, path, label_column="outlier")
    assert calls == 0
    assert fast == loop
    assert fast[1] == X.tobytes() and fast[2] == y.tolist()


def test_fast_path_parses_reprs_as_python_float(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 2**64, size=16000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    short = [round(v, int(d)) for v, d in zip(rng.standard_normal(1990), rng.integers(0, 6, 1990))]
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-5, 0.1, 1e22]
    values = np.concatenate([raw[np.isfinite(raw)], -subnormal, short, special])
    values = values[: len(values) // 10 * 10]
    cells = [repr(v) for v in values.tolist()]
    path = tmp_path / "reprs.csv"
    path.write_text("\n".join(",".join(cells[i:i + 10]) for i in range(0, len(cells), 10)) + "\n")
    fast, loop, calls = _fast_and_loop(monkeypatch, path)
    expected = np.array([float(cell) for cell in cells]).reshape(-1, 10)
    assert len(cells) > 19000
    assert calls == 0
    assert fast == loop
    assert fast[1] == expected.tobytes()


@pytest.mark.parametrize("text, message", [
    ("", "no data rows found"),
    ("# a\n\n   \n# b\n", "no data rows found"),
    ("a,b\n", "header but no data rows"),
    ("a,b\n# c\n\n", "header but no data rows"),
])
def test_empty_inputs_name_their_fault(tmp_path, capsys, text, message):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CsvFormatError, match=message):
            load_csv(path)
        code = main(["score", "--method", "KNN", "--input", str(path),
                     "--output", str(tmp_path / "out.csv")])
    assert code == EXIT_IO
    assert message in capsys.readouterr().err
    assert caught == []


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_population_convention():
    dm = DataMatrix(values=np.array([[0.0], [2.0]]))
    out = normalize(dm)
    assert np.array_equal(out.values, [[-1.0], [1.0]])


def test_normalize_constant_column_goes_to_zero():
    dm = DataMatrix(values=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    out = normalize(dm)
    assert np.array_equal(out.values[:, 0], np.zeros(3))


def test_normalize_moments():
    rng = np.random.default_rng(0)
    dm = DataMatrix(values=rng.normal(loc=3.0, scale=2.5, size=(50, 4)))
    out = normalize(dm)
    assert np.all(np.abs(out.values.mean(axis=0)) <= 1e-10)
    assert np.all(np.abs(out.values.var(axis=0) - 1.0) <= 1e-8)


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    dm = DataMatrix(values=rng.normal(size=(20, 3)) * 7.0 + 4.0)
    once = normalize(dm)
    twice = normalize(once)
    assert np.all(np.abs(twice.values - once.values) <= 1e-10)


def test_normalize_scales_a_column_whose_variance_overflows():
    # Squares of N(0, 1) x 1e160 overflow; the std comes from the column
    # divided by its largest magnitude, and the other columns keep their bits.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = normalize(DataMatrix(values=X * 1e160)).values
        mixed = normalize(DataMatrix(values=X * [1e160, 1.0, 1.0])).values
    plain = normalize(DataMatrix(values=X)).values
    assert np.abs(scaled - plain).max() <= 1e-12
    assert np.abs(mixed[:, 0] - plain[:, 0]).max() <= 1e-12
    assert mixed[:, 1:].tobytes() == plain[:, 1:].tobytes()


def test_normalize_scales_a_column_whose_mean_overflows():
    # The sum of 60 values up to 1.5e308 overflows. The mean and the centred
    # column come from the column divided by its largest magnitude, so the
    # column is not taken for a constant one and zeroed; the other columns
    # keep their bits. A constant column whose sum overflows is still zeroed.
    rng = np.random.default_rng(0)
    X = np.clip(rng.standard_normal((60, 3)), -3.0, 3.0)
    scaled = normalize(DataMatrix(values=X * 5e307)).values
    mixed = normalize(DataMatrix(values=X * [5e307, 1.0, 1.0])).values
    constant = normalize(DataMatrix(values=np.column_stack([np.full(60, 1e308), X[:, 0]]))).values
    plain = normalize(DataMatrix(values=X)).values
    assert np.abs(scaled - plain).max() <= 1e-12
    assert np.abs(mixed[:, 0] - plain[:, 0]).max() <= 1e-12
    assert mixed[:, 1:].tobytes() == plain[:, 1:].tobytes()
    assert np.array_equal(constant[:, 0], np.zeros(60))
    assert constant[:, 1].tobytes() == plain[:, 0].tobytes()


def test_normalize_requires_two_rows():
    with pytest.raises(ValueError):
        normalize(DataMatrix(values=np.array([[1.0, 2.0]])))


def test_normalize_keeps_labels():
    dm = DataMatrix(values=np.array([[0.0], [2.0]]), labels=np.array([0, 1]))
    out = normalize(dm)
    assert np.array_equal(out.labels, [0, 1])


# ---------------------------------------------------------------------------
# synth_gaussian
# ---------------------------------------------------------------------------


def test_synth_default_shape_matches_benchmark_row():
    dm = synth_gaussian(dimension=1000, seed=0)
    assert dm.values.shape == (1000, 1000)
    assert int(dm.labels.sum()) == 30


def test_synth_deterministic():
    a = synth_gaussian(dimension=20, seed=42)
    b = synth_gaussian(dimension=20, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_synth_outliers_inside_inlier_box():
    dm = synth_gaussian(dimension=15, seed=7)
    inliers = dm.values[dm.labels == 0]
    outliers = dm.values[dm.labels == 1]
    lo = inliers.min(axis=0)
    hi = inliers.max(axis=0)
    assert np.all(outliers >= lo)
    assert np.all(outliers <= hi)


def test_synth_square_repair_and_counts():
    cfg = dict(num_clusters=3, samples_per_cluster=10, num_outliers=4, dimension=6, seed=1)
    dm = synth_gaussian(**cfg, variance_repair="square")
    assert dm.values.shape == (34, 6)
    assert int(dm.labels.sum()) == 4
    absolute = synth_gaussian(**cfg, variance_repair="abs")
    assert not np.array_equal(dm.values, absolute.values)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        synth_gaussian(num_clusters=0)
    with pytest.raises(ValueError):
        synth_gaussian(dimension=0)
    with pytest.raises(ValueError):
        synth_gaussian(variance_repair="clip")
    with pytest.raises(ValueError):
        synth_gaussian(seed=-1)
