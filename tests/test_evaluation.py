import numpy as np
import pytest

from christoffel_outliers import pr_curve, summarize


# ---------------------------------------------------------------------------
# pr_curve
# ---------------------------------------------------------------------------


def test_perfect_ranking_curve():
    curve = pr_curve([3.0, 2.0, 1.0], [1, 0, 0])
    assert list(zip(curve.recalls, curve.precisions)) == [(1.0, 1.0), (1.0, 0.5), (1.0, 1.0 / 3.0)]
    assert curve.auprc == 1.0


def test_worst_ranking_curve():
    curve = pr_curve([1.0, 2.0, 3.0], [1, 0, 0])
    assert list(zip(curve.recalls, curve.precisions)) == [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0 / 3.0)]
    assert curve.auprc == 1.0 / 3.0


def test_tied_scores_collapse_to_one_point():
    curve = pr_curve([1.0, 1.0], [1, 0])
    assert list(zip(curve.recalls, curve.precisions)) == [(1.0, 0.5)]
    assert curve.auprc == 0.5


def test_recalls_nondecreasing_and_end_at_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(4, 40))
        scores = rng.normal(size=n)
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=max(1, n // 4), replace=False)] = 1
        if labels.sum() in (0, n):
            continue
        curve = pr_curve(scores, labels)
        assert np.all(np.diff(curve.recalls) >= 0.0)
        assert curve.recalls[-1] == 1.0
        assert 0.0 <= curve.auprc <= 1.0


def test_degenerate_labels_raise():
    with pytest.raises(ValueError, match="degenerate labels"):
        pr_curve([1.0, 2.0], [1, 1])
    with pytest.raises(ValueError, match="degenerate labels"):
        pr_curve([1.0, 2.0], [0, 0])


def test_label_validation():
    with pytest.raises(ValueError):
        pr_curve([1.0, 2.0], [0, 2])
    with pytest.raises(ValueError):
        pr_curve([1.0], [0, 1])


def test_rank_invariance_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    labels = (rng.random(30) < 0.3).astype(int)
    labels[0] = 1
    labels[1] = 0
    base = pr_curve(scores, labels)
    for transform in (lambda s: 2.0 * s + 7.0, np.exp, lambda s: s**3):
        other = pr_curve(transform(scores), labels)
        assert np.array_equal(base.recalls, other.recalls)
        assert np.array_equal(base.precisions, other.precisions)
        assert base.auprc == other.auprc


def test_perfect_separation_gives_one():
    rng = np.random.default_rng(2)
    inlier = rng.uniform(0.0, 1.0, size=40)
    outlier = rng.uniform(2.0, 3.0, size=10)
    scores = np.concatenate([inlier, outlier])
    labels = np.concatenate([np.zeros(40, dtype=int), np.ones(10, dtype=int)])
    assert pr_curve(scores, labels).auprc == 1.0


def test_negated_scores_inverted_labels_stay_valid():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=25)
    labels = (rng.random(25) < 0.4).astype(int)
    labels[:2] = [0, 1]
    curve = pr_curve(-scores, 1 - labels)
    assert np.isfinite(curve.auprc)
    assert 0.0 <= curve.auprc <= 1.0


def test_random_scores_auprc_near_outlier_fraction():
    rng = np.random.default_rng(4)
    n = 10000
    fraction = 0.2
    labels = (rng.random(n) < fraction).astype(int)
    scores = rng.normal(size=n)
    value = pr_curve(scores, labels).auprc
    assert abs(value - labels.mean()) <= 0.05


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def test_summary_single_dataset():
    table = summarize({("ds", "A"): [0.9], ("ds", "B"): [0.5]}, ["ds"], ["A", "B"])
    assert table.avg_rank["A"] == 1.0
    assert table.avg_rank["B"] == 2.0
    assert table.rmsd["A"] == 0.0
    assert table.rmsd["B"] == pytest.approx(0.4, rel=1e-12)
    assert table.cells[("ds", "A")].std == 0.0


def test_summary_tied_methods_share_rank():
    table = summarize({("ds", "A"): [0.7], ("ds", "B"): [0.7]}, ["ds"], ["A", "B"])
    assert table.avg_rank["A"] == 1.5
    assert table.avg_rank["B"] == 1.5
    table = summarize({("ds", m): [0.4] for m in "ABC"}, ["ds"], list("ABC"))
    assert [table.avg_rank[m] for m in "ABC"] == [2.0, 2.0, 2.0]
    means = {"A": 0.9, "B": 0.5, "C": 0.5, "D": 0.5, "E": 0.1}
    table = summarize({("ds", m): [v] for m, v in means.items()}, ["ds"], list(means))
    assert [table.avg_rank[m] for m in "ABCDE"] == [1.0, 3.0, 3.0, 3.0, 5.0]


def test_summary_three_datasets_hand_numbers():
    cells = {
        ("d1", "A"): [0.8], ("d1", "B"): [0.6],
        ("d2", "A"): [0.4], ("d2", "B"): [0.9],
        ("d3", "A"): [0.5], ("d3", "B"): [0.5],
    }
    table = summarize(cells, ["d1", "d2", "d3"], ["A", "B"])
    assert table.average["A"] == pytest.approx((0.8 + 0.4 + 0.5) / 3, rel=1e-12)
    assert table.average["B"] == pytest.approx((0.6 + 0.9 + 0.5) / 3, rel=1e-12)
    assert table.avg_rank["A"] == pytest.approx((1 + 2 + 1.5) / 3, rel=1e-12)
    assert table.avg_rank["B"] == pytest.approx((2 + 1 + 1.5) / 3, rel=1e-12)
    assert table.rmsd["A"] == pytest.approx(np.sqrt((0.0 + 0.5**2 + 0.0) / 3), rel=1e-12)
    assert table.rmsd["B"] == pytest.approx(np.sqrt((0.2**2 + 0.0 + 0.0) / 3), rel=1e-12)


def test_summary_unavailable_cells_excluded():
    cells = {
        ("d1", "A"): [0.8], ("d1", "B"): None,
        ("d2", "A"): [0.4], ("d2", "B"): [0.9],
    }
    table = summarize(cells, ["d1", "d2"], ["A", "B"])
    assert table.cells[("d1", "B")] is None
    assert table.average["B"] == pytest.approx(0.9)
    # d1 ranks only over the available method
    assert table.avg_rank["A"] == pytest.approx((1 + 2) / 2)
    assert table.avg_rank["B"] == pytest.approx(1.0)


def test_summary_trials_statistics():
    table = summarize({("ds", "A"): [0.5, 0.7], ("ds", "B"): [0.6]}, ["ds"], ["A", "B"])
    cell = table.cells[("ds", "A")]
    assert cell.mean == pytest.approx(0.6)
    assert cell.std == pytest.approx(0.1)
    assert cell.trials == 2


def test_summary_rank_range_invariant():
    rng = np.random.default_rng(5)
    methods = ["m1", "m2", "m3", "m4"]
    cells = {
        (f"d{i}", m): [float(rng.random())] for i in range(5) for m in methods
    }
    table = summarize(cells, [f"d{i}" for i in range(5)], methods)
    for m in methods:
        assert 1.0 <= table.avg_rank[m] <= len(methods)
        assert table.rmsd[m] >= 0.0


def test_summary_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize({}, [], [])
    with pytest.raises(ValueError, match="missing cell"):
        summarize({("d1", "A"): [0.5], ("d2", "B"): [0.6]}, ["d1", "d2"], ["A", "B"])
    with pytest.raises(ValueError, match="no trial values"):
        summarize({("d1", "A"): []}, ["d1"], ["A"])
    # A NaN mean would read as an unavailable cell.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            summarize({("d1", "A"): [0.5, bad], ("d1", "B"): [0.6]}, ["d1"], ["A", "B"])


def test_summary_eight_datasets_with_gaps_and_ties():
    # Eight or more values per column, where a sum that skips NaN can round
    # differently from the mean of the available values; each aggregate is
    # np.mean of an explicit list of those values, in dataset order.
    means = {
        "A": [0.9, 0.5, None, 0.25, 0.75, 0.5, 0.1, 0.6, 0.3],
        "B": [0.9, 0.75, 0.4, None, 0.75, 0.2, 0.1, None, 0.3],
        "C": [0.1, 0.5, 0.4, 0.25, None, 0.5, 0.1, 0.7, 0.8],
    }
    datasets = [f"d{i}" for i in range(9)]
    cells = {
        (d, m): None if v[i] is None else [v[i]]
        for m, v in means.items() for i, d in enumerate(datasets)
    }
    table = summarize(cells, datasets, list(means))
    ranks = {
        "A": [1.5, 2.5, 1.5, 1.5, 1.5, 2, 2, 2.5],
        "B": [1.5, 1, 1.5, 1.5, 3, 2, 2.5],
        "C": [3, 2.5, 1.5, 1.5, 1.5, 2, 1, 1],
    }
    gaps = {
        "A": [0.0, 0.25, 0.0, 0.0, 0.0, 0.0, 0.1, 0.5],
        "B": [0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.5],
        "C": [0.8, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    }
    for m, values in means.items():
        available = [v for v in values if v is not None]
        assert table.average[m] == np.mean(available)
        assert table.avg_rank[m] == np.mean(ranks[m])
        assert table.rmsd[m] == pytest.approx(np.sqrt(np.mean(np.square(gaps[m]))), rel=1e-12)


def test_summary_empty_axes():
    table = summarize({("d1", "A"): [0.5]}, [], ["A", "B"])
    assert table.cells == {}
    for row in (table.average, table.avg_rank, table.rmsd):
        assert list(row) == ["A", "B"] and all(np.isnan(v) for v in row.values())
    table = summarize({("d1", "A"): [0.5]}, ["d1"], [])
    assert table.cells == {} and table.average == table.avg_rank == table.rmsd == {}


def test_summary_method_unavailable_everywhere_is_nan():
    cells = {("d1", "A"): [0.5], ("d1", "B"): None, ("d2", "A"): [0.7], ("d2", "B"): None}
    table = summarize(cells, ["d1", "d2"], ["A", "B"])
    assert table.average["A"] == pytest.approx(0.6)
    assert all(np.isnan(row["B"]) for row in (table.average, table.avg_rank, table.rmsd))


def test_summary_rejects_repeated_names():
    cells = {(d, m): [0.5] for d in ("d1", "d2") for m in ("A", "B")}
    with pytest.raises(ValueError, match="repeated dataset"):
        summarize(cells, ["d1", "d1", "d2"], ["A", "B"])
    with pytest.raises(ValueError, match="repeated method"):
        summarize(cells, ["d1", "d2"], ["A", "B", "A"])
