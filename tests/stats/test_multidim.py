"""Tests for repro.stats.multidim (joint histograms)."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import make_tpcd_database
from repro.errors import StatisticsError
from repro.stats.multidim import (
    JointHistogram,
    JointHistogramKind,
    _Cell,
    build_joint_histogram,
    build_mhist,
    build_phased,
)


def _correlated(n=4000, seed=0):
    """y tracks x closely — independence is badly wrong here."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=n)
    y = x + rng.integers(0, 5, size=n)
    return x, y


def _independent(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=n), rng.integers(0, 100, size=n)


def _true_box(x, y, x_lo, x_hi, y_lo, y_hi):
    mask = np.ones(x.shape[0], dtype=bool)
    if x_lo is not None:
        mask &= x >= x_lo
    if x_hi is not None:
        mask &= x <= x_hi
    if y_lo is not None:
        mask &= y >= y_lo
    if y_hi is not None:
        mask &= y <= y_hi
    return float(mask.mean())


class TestConstruction:
    def test_empty_inputs(self):
        hist = build_phased(np.array([]), np.array([]))
        assert hist.cell_count == 0
        assert hist.selectivity_box(x_lo=0) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(Exception):
            build_phased(np.arange(3), np.arange(4))

    def test_counts_cover_all_rows(self):
        x, y = _correlated()
        for build in (build_phased, build_mhist):
            hist = build(x, y)
            assert sum(c.count for c in hist.cells) == pytest.approx(
                x.shape[0]
            )

    def test_full_box_is_one(self):
        x, y = _correlated()
        hist = build_phased(x, y)
        assert hist.selectivity_box() == pytest.approx(1.0)

    def test_cells_bounded_by_budget(self):
        x, y = _independent()
        hist = build_mhist(x, y, max_cells=16)
        assert hist.cell_count <= 16

    def test_dispatch(self):
        x, y = _independent(100)
        assert (
            build_joint_histogram(x, y, JointHistogramKind.PHASED).kind
            == JointHistogramKind.PHASED
        )
        assert (
            build_joint_histogram(x, y, JointHistogramKind.MHIST).kind
            == JointHistogramKind.MHIST
        )

    def test_single_point_data(self):
        x = np.full(10, 5.0)
        y = np.full(10, 7.0)
        hist = build_phased(x, y)
        assert hist.selectivity_box(5, 5, 7, 7) == pytest.approx(1.0)
        assert hist.selectivity_box(0, 1, 0, 1) == 0.0


class TestEstimation:
    @pytest.mark.parametrize("build", [build_phased, build_mhist])
    def test_box_estimates_bounded(self, build):
        x, y = _correlated()
        hist = build(x, y)
        for box in [(10, 30, 10, 30), (None, 50, 20, None)]:
            sel = hist.selectivity_box(*box)
            assert 0.0 <= sel <= 1.0

    @pytest.mark.parametrize("build", [build_phased, build_mhist])
    def test_reasonable_on_independent_data(self, build):
        x, y = _independent()
        hist = build(x, y)
        true = _true_box(x, y, 20, 60, 30, 70)
        assert hist.selectivity_box(20, 60, 30, 70) == pytest.approx(
            true, abs=0.12
        )

    def test_joint_beats_independence_on_correlation(self):
        """The reason to build joint histograms at all."""
        x, y = _correlated()
        hist = build_phased(x, y)
        # anti-correlated box: x small AND y large is (nearly) empty,
        # but independence predicts ~25% of rows
        true = _true_box(x, y, None, 30, 70, None)
        joint_estimate = hist.selectivity_box(
            x_lo=None, x_hi=30, y_lo=70, y_hi=None
        )
        independence_estimate = _true_box(
            x, y, None, 30, None, None
        ) * _true_box(x, y, None, None, 70, None)
        joint_err = abs(joint_estimate - true)
        indep_err = abs(independence_estimate - true)
        assert joint_err < indep_err

    def test_monotone_in_box_width(self):
        x, y = _independent()
        hist = build_phased(x, y)
        narrow = hist.selectivity_box(20, 40, 20, 40)
        wide = hist.selectivity_box(10, 60, 10, 60)
        assert wide >= narrow


def _reference_build_mhist(
    x: np.ndarray, y: np.ndarray, max_cells: int = 64
) -> JointHistogram:
    """MHIST-2 as it was before each cell kept its best split: every
    iteration recomputes ``best_split`` for every working cell
    (test-only reference)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise StatisticsError("joint histogram inputs must align")
    n = x.shape[0]
    if n == 0:
        return JointHistogram([], 0, JointHistogramKind.MHIST)

    # each working cell holds its member indexes for exact refinement
    @dataclass
    class _Work:
        rows: np.ndarray

        def bounds(self):
            xs, ys = x[self.rows], y[self.rows]
            return xs.min(), xs.max(), ys.min(), ys.max()

    def best_split(work: _Work):
        """(score, dimension, split_value) of the largest marginal jump."""
        best = (0.0, None, None)
        for dimension, values in (("x", x[work.rows]), ("y", y[work.rows])):
            distinct, freqs = np.unique(values, return_counts=True)
            if distinct.shape[0] < 2:
                continue
            diffs = np.abs(np.diff(freqs.astype(np.float64)))
            idx = int(np.argmax(diffs))
            score = float(diffs[idx])
            if score > best[0]:
                # split between distinct[idx] and distinct[idx + 1]
                best = (score, dimension, float(distinct[idx]))
        return best

    working = [_Work(np.arange(n))]
    while len(working) < max_cells:
        candidates = [(best_split(w), i) for i, w in enumerate(working)]
        candidates = [
            (score, dim, value, i)
            for (score, dim, value), i in candidates
            if dim is not None
        ]
        if not candidates:
            break
        score, dim, value, i = max(candidates, key=lambda c: c[0])
        if score <= 0:
            break
        work = working.pop(i)
        values = x[work.rows] if dim == "x" else y[work.rows]
        left_mask = values <= value
        left = _Work(work.rows[left_mask])
        right = _Work(work.rows[~left_mask])
        if left.rows.shape[0] == 0 or right.rows.shape[0] == 0:
            working.insert(i, work)
            break
        working.extend([left, right])

    cells = []
    for work in working:
        x_lo, x_hi, y_lo, y_hi = work.bounds()
        cells.append(
            _Cell(x_lo, x_hi, y_lo, y_hi, float(work.rows.shape[0]))
        )
    return JointHistogram(cells, n, JointHistogramKind.MHIST)


def _assert_same_mhist(x, y, max_cells):
    got = build_mhist(x, y, max_cells=max_cells)
    want = _reference_build_mhist(x, y, max_cells=max_cells)
    assert got.row_count == want.row_count
    assert got.cells == want.cells  # same cells, same order, exact floats


class TestMhistMatchesReference:
    """MHIST-2 keeps each cell's best split instead of recomputing every
    cell's split per iteration; the cells must not change."""

    @pytest.fixture(scope="class")
    def lineitem(self):
        return make_tpcd_database(scale=0.01, z=2.0, seed=42).table(
            "lineitem"
        )

    @pytest.mark.parametrize(
        "x_column, y_column, max_cells",
        [
            ("l_shipdate", "l_commitdate", 64),
            ("l_quantity", "l_discount", 64),
            ("l_partkey", "l_suppkey", 16),
            ("l_returnflag", "l_linestatus", 64),
        ],
    )
    def test_real_column_pairs(self, lineitem, x_column, y_column, max_cells):
        _assert_same_mhist(
            lineitem.column_array(x_column),
            lineitem.column_array(y_column),
            max_cells,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(-3, 3)),
            max_size=80,
        ),
        max_cells=st.integers(1, 24),
    )
    def test_drawn_data(self, data, max_cells):
        x = np.asarray([p[0] for p in data], dtype=np.int64)
        y = np.asarray([p[1] for p in data], dtype=np.int64)
        _assert_same_mhist(x, y, max_cells)
