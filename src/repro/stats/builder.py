"""Construction of :class:`~repro.stats.statistic.Statistic` objects from data.

A statistic is a histogram on the key's leading column plus one density
per leading prefix of the key (paper Sec 5.1, Sec 7.1): ``1 / ndv`` where
``ndv`` counts the distinct tuples of that prefix.  Online creation pays
for this build on the query path (Sec 6), so the densities come from as
little sorting as possible:

* The leading prefix is the leading column alone.  The histogram has
  already sorted that column and counted its distinct values, so its
  density reuses that count and a single-column key sorts once in all.
* Longer keys get one lexicographic sort (``np.lexsort``) over all their
  columns.  In that order the rows of every leading prefix are grouped,
  so a cumulative "differs from the previous row in one of the first
  *k* columns" mask counts the prefix's distinct tuples for every *k* in
  one pass.

Values are compared as float64, the histogram's value domain, so
``-0.0`` and ``0.0`` are one value and int64 values past 2**53 that round
alike are one value.  A NaN never equals another row's NaN, so each row
holding one counts as its own tuple in every prefix; the histogram's
count merges NaNs into one value, so the leading prefix adds the rest
back.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.config import OptimizerConfig
from repro.stats.cost import statistic_build_cost
from repro.stats.histogram import HistogramKind, build_histogram
from repro.stats.statistic import StatKey, Statistic
from repro.storage.table_data import TableData


def _prefix_densities(
    arrays: Sequence[np.ndarray], leading_distinct: int
) -> Tuple[float, ...]:
    """``1 / ndv`` of each leading prefix of the parallel ``arrays``.

    ``leading_distinct`` is the distinct-value count of ``arrays[0]``,
    which the caller's histogram already computed (NaNs merged).
    """
    if arrays[0].dtype.kind == "f":
        nans = int(np.count_nonzero(np.isnan(arrays[0])))
        leading_distinct += max(0, nans - 1)
    distinct = [leading_distinct]
    if len(arrays) > 1:
        columns = [np.asarray(a, dtype=np.float64) for a in arrays]
        order = np.lexsort(columns[::-1])  # the last key sorts first
        leading = columns[0][order]
        new_tuple = leading[1:] != leading[:-1]
        for column in columns[1:]:
            ordered = column[order]
            new_tuple |= ordered[1:] != ordered[:-1]
            distinct.append(1 + int(np.count_nonzero(new_tuple)))
    return tuple(1.0 / max(1, count) for count in distinct)


def build_statistic(
    table: TableData,
    key: StatKey,
    config: OptimizerConfig,
    histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
    rng: Optional[np.random.Generator] = None,
) -> Statistic:
    """Build a statistic over ``key``'s columns from the stored data.

    If ``config.sample_rows`` is set, the histogram and densities come
    from a uniform row sample (scaled back to the full table), otherwise
    from a full scan.

    The returned statistic's ``build_cost`` is the work-unit charge from
    :func:`~repro.stats.cost.statistic_build_cost`.
    """
    row_count = table.row_count
    if config.sample_rows is not None and row_count > config.sample_rows:
        sampled = table.sample_rows(config.sample_rows, rng=rng)
        arrays = [sampled[name] for name in key.columns]
        scale = row_count / max(1, arrays[0].shape[0])
    else:
        arrays = [table.column_array(name) for name in key.columns]
        scale = 1.0

    histogram = build_histogram(
        arrays[0], config.histogram_buckets, kind=histogram_kind
    )
    if scale != 1.0:
        # scale bucket counts back up to full-table cardinality
        histogram.counts = histogram.counts * scale
        histogram.row_count = row_count

    densities = _prefix_densities(arrays, int(histogram.distinct_count))
    joint = None
    if config.enable_joint_histograms and len(arrays) >= 2:
        from repro.stats.multidim import (
            JointHistogramKind,
            build_joint_histogram,
        )

        joint = build_joint_histogram(
            arrays[0],
            arrays[1],
            kind=JointHistogramKind(config.joint_histogram_kind),
            budget=config.joint_histogram_cells,
        )
        if scale != 1.0:
            for cell in joint.cells:
                cell.count *= scale
            joint.row_count = row_count
    build_cost = statistic_build_cost(
        row_count, key, config.cost, config.sample_rows
    )
    return Statistic(
        key=key,
        histogram=histogram,
        prefix_densities=densities,
        row_count=row_count,
        build_cost=build_cost,
        joint_histogram=joint,
    )
