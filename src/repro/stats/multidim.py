"""Two-dimensional (joint) histograms over column pairs.

Paper Sec 3: "Multi-dimensional histogram structures can be constructed
using Phased or MHIST-p [14] strategy over the joint distribution of
multiple columns of a relation."  SQL Server 7.0's multi-column
statistics carry only prefix densities (Sec 7.1), which answer equality
conjunctions; a joint histogram additionally answers *range* conjunctions
over correlated column pairs, where the independence assumption fails.

Two construction strategies, both from Poosala & Ioannidis:

* **Phased** — bucket the first dimension with a 1-D MaxDiff histogram,
  then bucket the second dimension independently *within* each first-
  dimension bucket.
* **MHIST-2** — greedy binary splits: repeatedly pick the cell whose
  marginal frequency distribution has the largest MaxDiff jump along
  either dimension and split it there.

Estimation assumes uniformity within each cell, as in 1-D.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import StatisticsError


class JointHistogramKind(enum.Enum):
    PHASED = "phased"
    MHIST = "mhist"


@dataclass
class _Cell:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    count: float


class JointHistogram:
    """A bag of disjoint rectangular cells covering the joint domain."""

    def __init__(self, cells: List[_Cell], row_count: int, kind) -> None:
        self.cells = cells
        self.row_count = int(row_count)
        self.kind = kind

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def selectivity_box(
        self,
        x_lo: Optional[float] = None,
        x_hi: Optional[float] = None,
        y_lo: Optional[float] = None,
        y_hi: Optional[float] = None,
    ) -> float:
        """Fraction of rows with (x, y) inside the closed query box.

        ``None`` bounds are unbounded; within partially-overlapped cells
        the covered fraction is interpolated per dimension independently.
        """
        if self.row_count == 0:
            return 0.0
        total = 0.0
        for cell in self.cells:
            fraction = _overlap_1d(
                cell.x_lo, cell.x_hi, x_lo, x_hi
            ) * _overlap_1d(cell.y_lo, cell.y_hi, y_lo, y_hi)
            total += cell.count * fraction
        return float(min(1.0, max(0.0, total / self.row_count)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JointHistogram({self.kind.value}, cells={self.cell_count}, "
            f"rows={self.row_count})"
        )


def _overlap_1d(lo, hi, q_lo, q_hi) -> float:
    """Covered fraction of interval [lo, hi] by query range [q_lo, q_hi]."""
    effective_lo = lo if q_lo is None else max(lo, q_lo)
    effective_hi = hi if q_hi is None else min(hi, q_hi)
    if effective_lo > effective_hi:
        return 0.0
    width = hi - lo
    if width <= 0:
        return 1.0
    return (effective_hi - effective_lo) / width


def _maxdiff_boundaries(values: np.ndarray, buckets: int) -> np.ndarray:
    """Start indexes of MaxDiff buckets over the distinct values."""
    distinct, freqs = np.unique(values, return_counts=True)
    buckets = max(1, min(buckets, distinct.shape[0]))
    if buckets == 1 or distinct.shape[0] == 1:
        return distinct, np.asarray([0])
    diffs = np.abs(np.diff(freqs.astype(np.float64)))
    top = np.argsort(-diffs, kind="stable")[: buckets - 1]
    starts = np.asarray([0] + sorted(int(i) + 1 for i in top))
    return distinct, starts


def build_phased(
    x: np.ndarray, y: np.ndarray, buckets_per_dim: int = 8
) -> JointHistogram:
    """Phased construction: MaxDiff on x, then MaxDiff on y per x-slice."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise StatisticsError("joint histogram inputs must align")
    if x.shape[0] == 0:
        return JointHistogram([], 0, JointHistogramKind.PHASED)
    distinct_x, starts = _maxdiff_boundaries(x, buckets_per_dim)
    boundaries = list(starts) + [distinct_x.shape[0]]
    cells: List[_Cell] = []
    for begin, end in zip(boundaries[:-1], boundaries[1:]):
        if begin >= end:
            continue
        x_lo, x_hi = distinct_x[begin], distinct_x[end - 1]
        in_slice = (x >= x_lo) & (x <= x_hi)
        ys = y[in_slice]
        if ys.shape[0] == 0:
            continue
        distinct_y, y_starts = _maxdiff_boundaries(ys, buckets_per_dim)
        y_bounds = list(y_starts) + [distinct_y.shape[0]]
        for y_begin, y_end in zip(y_bounds[:-1], y_bounds[1:]):
            if y_begin >= y_end:
                continue
            y_lo, y_hi = distinct_y[y_begin], distinct_y[y_end - 1]
            count = float(((ys >= y_lo) & (ys <= y_hi)).sum())
            cells.append(_Cell(x_lo, x_hi, y_lo, y_hi, count))
    return JointHistogram(cells, x.shape[0], JointHistogramKind.PHASED)


def build_mhist(
    x: np.ndarray, y: np.ndarray, max_cells: int = 64
) -> JointHistogram:
    """MHIST-2 construction: greedy binary splits on the worst marginal."""
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

    # each working cell is kept with its best split, computed once: a
    # split only changes the two cells it creates
    root = _Work(np.arange(n))
    working = [(root, best_split(root))]
    while len(working) < max_cells:
        candidates = [
            (split[0], i)
            for i, (_, split) in enumerate(working)
            if split[1] is not None
        ]
        if not candidates:
            break
        # max() keeps the first of equal scores: the earliest cell wins
        score, i = max(candidates, key=lambda c: c[0])
        if score <= 0:
            break
        entry = working.pop(i)
        work, (_, dim, value) = entry
        values = x[work.rows] if dim == "x" else y[work.rows]
        left_mask = values <= value
        left = _Work(work.rows[left_mask])
        right = _Work(work.rows[~left_mask])
        if left.rows.shape[0] == 0 or right.rows.shape[0] == 0:
            working.insert(i, entry)
            break
        working.extend([(left, best_split(left)), (right, best_split(right))])

    cells = []
    for work, _ in working:
        x_lo, x_hi, y_lo, y_hi = work.bounds()
        cells.append(
            _Cell(x_lo, x_hi, y_lo, y_hi, float(work.rows.shape[0]))
        )
    return JointHistogram(cells, n, JointHistogramKind.MHIST)


def build_joint_histogram(
    x: np.ndarray,
    y: np.ndarray,
    kind: JointHistogramKind = JointHistogramKind.PHASED,
    budget: int = 64,
) -> JointHistogram:
    """Build a joint histogram with roughly ``budget`` cells."""
    if kind == JointHistogramKind.PHASED:
        per_dim = max(2, int(budget ** 0.5))
        return build_phased(x, y, buckets_per_dim=per_dim)
    if kind == JointHistogramKind.MHIST:
        return build_mhist(x, y, max_cells=budget)
    raise StatisticsError(f"unknown joint histogram kind {kind!r}")
