import numpy as np
import pytest

from christoffel_outliers import (
    CsvFormatError,
    DataMatrix,
    SynthGaussianConfig,
    label_by_class,
    load_csv,
    normalize,
    synth_gaussian,
)


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


def test_load_custom_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("1.0;2.0\n3.0;4.0\n")
    dm = load_csv(path, delimiter=";")
    assert dm.p == 2


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


def test_normalize_requires_two_rows():
    with pytest.raises(ValueError):
        normalize(DataMatrix(values=np.array([[1.0, 2.0]])))


def test_normalize_keeps_labels():
    dm = DataMatrix(values=np.array([[0.0], [2.0]]), labels=np.array([0, 1]))
    out = normalize(dm)
    assert np.array_equal(out.labels, [0, 1])
    assert "normalized" in out.provenance


# ---------------------------------------------------------------------------
# label_by_class
# ---------------------------------------------------------------------------


def test_smallest_class_outlier():
    labels, mask = label_by_class(["a", "a", "a", "b"], "smallest-class-outlier")
    assert np.array_equal(labels, [0, 0, 0, 1])
    assert mask.all()


def test_largest_class_inlier():
    labels, mask = label_by_class(["a", "a", "b", "b", "b"], "largest-class-inlier")
    assert np.array_equal(labels, [1, 1, 0, 0, 0])
    assert mask.all()


def test_explicit_classes():
    labels, mask = label_by_class([3, 9, 5], "explicit", inliers={3, 9}, outliers={5})
    assert np.array_equal(labels, [0, 0, 1])
    assert mask.all()


def test_explicit_classes_drop_unlisted():
    labels, mask = label_by_class([3, 9, 5, 7], "explicit", inliers={3, 9}, outliers={5})
    assert np.array_equal(mask, [True, True, True, False])
    assert np.array_equal(labels[mask], [0, 0, 1])


def test_tie_for_smallest_class_raises():
    with pytest.raises(ValueError, match="tie"):
        label_by_class(["a", "b"], "smallest-class-outlier")


def test_explicit_validation():
    with pytest.raises(ValueError, match="not present"):
        label_by_class([1, 2], "explicit", inliers={1}, outliers={3})
    with pytest.raises(ValueError, match="both"):
        label_by_class([1, 2], "explicit", inliers={1}, outliers={1, 2})


def test_needs_two_classes_and_known_rule():
    with pytest.raises(ValueError, match="distinct"):
        label_by_class(["a", "a"], "smallest-class-outlier")
    with pytest.raises(ValueError, match="unknown"):
        label_by_class(["a", "b"], "alphabetical")


# ---------------------------------------------------------------------------
# synth_gaussian
# ---------------------------------------------------------------------------


def test_synth_default_shape_matches_benchmark_row():
    dm = synth_gaussian(SynthGaussianConfig(dimension=1000, seed=0))
    assert dm.values.shape == (1000, 1000)
    assert int(dm.labels.sum()) == 30


def test_synth_deterministic():
    cfg = SynthGaussianConfig(dimension=20, seed=42)
    a = synth_gaussian(cfg)
    b = synth_gaussian(cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.labels, b.labels)


def test_synth_outliers_inside_inlier_box():
    dm = synth_gaussian(SynthGaussianConfig(dimension=15, seed=7))
    inliers = dm.values[dm.labels == 0]
    outliers = dm.values[dm.labels == 1]
    lo = inliers.min(axis=0)
    hi = inliers.max(axis=0)
    assert np.all(outliers >= lo)
    assert np.all(outliers <= hi)


def test_synth_square_repair_and_counts():
    cfg = SynthGaussianConfig(
        num_clusters=3, samples_per_cluster=10, num_outliers=4, dimension=6,
        seed=1, variance_repair="square",
    )
    dm = synth_gaussian(cfg)
    assert dm.values.shape == (34, 6)
    assert int(dm.labels.sum()) == 4
    assert "square" in dm.provenance


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthGaussianConfig(num_clusters=0)
    with pytest.raises(ValueError):
        SynthGaussianConfig(dimension=0)
    with pytest.raises(ValueError):
        SynthGaussianConfig(variance_repair="clip")
    with pytest.raises(ValueError):
        SynthGaussianConfig(seed=-1)
