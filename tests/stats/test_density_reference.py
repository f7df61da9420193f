"""Differential test: statistic builds against the builder they replaced.

:func:`_reference_prefix_density` is a verbatim copy of the earlier
density helper, one ``np.unique(axis=1)`` row sort per prefix, and
:func:`_reference_build_statistic` the earlier builder around it.  They
exist only here, as the oracle: densities must be exactly ``==`` (the
optimizer's plans and costs depend on them), and the histogram arrays and
build cost must not change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.stats.builder import _prefix_densities, build_statistic
from repro.stats.cost import statistic_build_cost
from repro.stats.histogram import HistogramKind, build_histogram
from repro.stats.statistic import StatKey, Statistic
from repro.storage.table_data import TableData
from repro.workload import generate_workload

SCALE = 0.01
SEEDS = (42, 1729)
WORKLOAD = "U25-S-100"
SAMPLE_ROWS = 500


def _reference_prefix_density(arrays) -> float:
    """1 / (number of distinct tuples) over the given parallel arrays."""
    if not arrays or arrays[0].shape[0] == 0:
        return 1.0
    stacked = np.stack([np.asarray(a, dtype=np.float64) for a in arrays])
    distinct = np.unique(stacked, axis=1).shape[1]
    return 1.0 / max(1, distinct)


def _reference_build_statistic(
    table: TableData,
    key: StatKey,
    config: OptimizerConfig,
    histogram_kind: HistogramKind = HistogramKind.MAXDIFF,
    rng: Optional[np.random.Generator] = None,
) -> Statistic:
    """The earlier ``build_statistic`` (joint histograms left out: no
    case here enables them)."""
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

    densities = tuple(
        _reference_prefix_density(arrays[: i + 1]) for i in range(len(arrays))
    )
    build_cost = statistic_build_cost(
        row_count, key, config.cost, config.sample_rows
    )
    return Statistic(
        key=key,
        histogram=histogram,
        prefix_densities=densities,
        row_count=row_count,
        build_cost=build_cost,
    )


def _reference_densities(arrays):
    return tuple(
        _reference_prefix_density(arrays[: i + 1]) for i in range(len(arrays))
    )


def _assert_same_statistic(got: Statistic, want: Statistic) -> None:
    assert got.key == want.key
    assert got.prefix_densities == want.prefix_densities
    assert got.row_count == want.row_count
    assert got.build_cost == want.build_cost
    assert got.joint_histogram is None and want.joint_histogram is None
    assert type(got.histogram) is type(want.histogram)
    assert got.histogram.row_count == want.histogram.row_count
    for name in ("lows", "highs", "counts", "distincts"):
        assert (
            getattr(got.histogram, name).tobytes()
            == getattr(want.histogram, name).tobytes()
        ), name


# ----------------------------------------------------------------------
# drawn arrays
# ----------------------------------------------------------------------

# values past 2**53 collide as float64, the domain densities compare in
_INT_VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(2**53, 2**53 + 4),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_FLOAT_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, float("nan")]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _key_arrays(draw):
    """1-4 parallel int64 or float64 columns with heavy duplicates: each
    column draws its values from a pool of at most four."""
    rows = draw(st.integers(0, 40))
    arrays = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pool = draw(st.lists(_INT_VALUES, min_size=1, max_size=4))
            dtype = np.int64
        else:
            pool = draw(st.lists(_FLOAT_VALUES, min_size=1, max_size=4))
            if draw(st.booleans()):
                pool = pool + [-0.0, 0.0]
            dtype = np.float64
        picks = draw(
            st.lists(
                st.integers(0, len(pool) - 1), min_size=rows, max_size=rows
            )
        )
        arrays.append(np.asarray([pool[i] for i in picks], dtype=dtype))
    return arrays


@settings(max_examples=300, deadline=None)
@given(arrays=_key_arrays(), kind=st.sampled_from(list(HistogramKind)))
def test_drawn_arrays_match_reference(arrays, kind):
    histogram = build_histogram(arrays[0], 8, kind=kind)
    densities = _prefix_densities(arrays, int(histogram.distinct_count))
    assert densities == _reference_densities(arrays)


@pytest.mark.parametrize(
    "arrays",
    [
        [np.empty(0, dtype=np.int64)],
        [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)],
        [np.asarray([7], dtype=np.int64)],
        [np.asarray([7], dtype=np.int64), np.asarray([-0.0])],
        [np.asarray([0.0, -0.0, 0.0]), np.asarray([-0.0, 0.0, 1.0])],
        [
            np.asarray([1, 1], dtype=np.int64),
            np.asarray([2**53, 2**53 + 1], dtype=np.int64),
        ],
        [np.asarray([np.nan, 1.0, np.nan]), np.asarray([2.0, 2.0, 2.0])],
    ],
    ids=[
        "empty",
        "empty-2col",
        "one-row",
        "one-row-2col",
        "signed-zeros",
        "int64-past-2**53",
        "nan-rows",
    ],
)
def test_edge_cases_match_reference(arrays):
    histogram = build_histogram(arrays[0], 8)
    densities = _prefix_densities(arrays, int(histogram.distinct_count))
    assert densities == _reference_densities(arrays)


# ----------------------------------------------------------------------
# every candidate statistic of a real workload
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def database_and_keys(request):
    db = make_tpcd_database(scale=SCALE, z=2.0, seed=request.param)
    queries = generate_workload(db, WORKLOAD).queries()
    keys = workload_candidate_statistics(queries)
    # the run must cover multi-column keys, not only single columns
    assert max(len(key.columns) for key in keys) >= 3
    return db, keys, request.param


def test_candidate_statistics_match_reference(database_and_keys):
    db, keys, _ = database_and_keys
    for key in keys:
        table = db.table(key.table)
        _assert_same_statistic(
            build_statistic(table, key, DEFAULT_CONFIG),
            _reference_build_statistic(table, key, DEFAULT_CONFIG),
        )


def test_sampled_candidate_statistics_match_reference(database_and_keys):
    db, keys, seed = database_and_keys
    config = OptimizerConfig(sample_rows=SAMPLE_ROWS)
    for index, key in enumerate(keys):
        table = db.table(key.table)
        if index % 2:
            kind = HistogramKind.EQUI_DEPTH
        else:
            kind = HistogramKind.MAXDIFF
        _assert_same_statistic(
            build_statistic(
                table,
                key,
                config,
                histogram_kind=kind,
                rng=np.random.default_rng(seed + index),
            ),
            _reference_build_statistic(
                table,
                key,
                config,
                histogram_kind=kind,
                rng=np.random.default_rng(seed + index),
            ),
        )
