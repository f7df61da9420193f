"""Statistic build cost on MNSA/D's candidates, with an exact digest.

Builds every candidate statistic of the U25-S-100 workload (its first
100 statements, at scale 0.01) the way online creation builds them: a
full-scan MaxDiff histogram on the leading column plus one density per
leading prefix.

``BENCH_stat_build.json`` records:

* ``stats_digest`` — SHA-256 over each key, its densities as
  ``float.hex()`` and its histogram arrays' bytes.  A string leaf, so
  ``compare_baselines.py`` matches it exactly: any change to a density
  or a bucket fails the gate.
* ``builds`` — statistics built per pass.
* ``mhist_unique_calls`` — ``np.unique`` calls made by one 64-cell
  MHIST-2 build on ``(l_shipdate, l_commitdate)``, counted by wrapping
  ``np.unique`` here rather than with counters in ``src/``.
* ``wall_seconds`` — best of 5 passes over all keys (trend-only).

Plain pytest, so it doubles as the CI smoke step::

    PYTHONPATH=src python -m pytest benchmarks/bench_stat_build.py -q
"""

import hashlib
import time

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.sql.query import Query
from repro.stats.builder import build_statistic
from repro.stats.multidim import build_mhist
from repro.workload import generate_workload

from benchmarks.conftest import write_bench_json

# fixed rather than read from REPRO_BENCH_*: the digest is exact
SCALE = 0.01
Z = 2.0
SEED = 42
WORKLOAD = "U25-S-100"
STATEMENTS = 100
MHIST_COLUMNS = ("l_shipdate", "l_commitdate")
MHIST_CELLS = 64
REPEATS = 5


def _keys(db):
    statements = generate_workload(db, WORKLOAD).statements[:STATEMENTS]
    queries = [s for s in statements if isinstance(s, Query)]
    return workload_candidate_statistics(queries)


def _build_all(db, keys):
    return [
        build_statistic(db.table(key.table), key, DEFAULT_CONFIG)
        for key in keys
    ]


def _digest(statistics) -> str:
    digest = hashlib.sha256()
    for statistic in statistics:
        digest.update(str(statistic.key).encode())
        for density in statistic.prefix_densities:
            digest.update(density.hex().encode())
        histogram = statistic.histogram
        for array in (
            histogram.lows,
            histogram.highs,
            histogram.counts,
            histogram.distincts,
        ):
            digest.update(array.tobytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _mhist_unique_calls(db, monkeypatch) -> int:
    lineitem = db.table("lineitem")
    x, y = (lineitem.column_array(name) for name in MHIST_COLUMNS)
    calls = 0
    unique = np.unique

    def counting_unique(*args, **kwargs):
        nonlocal calls
        calls += 1
        return unique(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", counting_unique)
        build_mhist(x, y, max_cells=MHIST_CELLS)
    return calls


def test_stat_build(monkeypatch, report):
    db = make_tpcd_database(scale=SCALE, z=Z, seed=SEED)
    keys = _keys(db)
    stats_digest = _digest(_build_all(db, keys))

    walls = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        repeat = _build_all(db, keys)
        walls.append(time.perf_counter() - started)
        assert _digest(repeat) == stats_digest

    mhist_calls = _mhist_unique_calls(db, monkeypatch)
    widths = [len(key.columns) for key in keys]
    payload = {
        "workload": WORKLOAD,
        "statements": STATEMENTS,
        "scale": SCALE,
        "stats_digest": stats_digest,
        "builds": len(keys),
        "multi_column_builds": sum(1 for w in widths if w > 1),
        "mhist_unique_calls": mhist_calls,
        "wall_seconds": round(min(walls), 4),
    }
    write_bench_json("stat_build", payload)
    report.add_section(
        "Statistic builds — U25-S-100 candidates at scale 0.01",
        f"{len(keys)} builds ({payload['multi_column_builds']} "
        f"multi-column), best of {REPEATS} {min(walls):.3f} s; one "
        f"{MHIST_CELLS}-cell MHIST-2 build made {mhist_calls} np.unique "
        "calls",
    )
    # a cell's best split is computed once: two marginals for each of
    # the at most 2 * MHIST_CELLS - 1 cells ever created
    assert 0 < mhist_calls <= 2 * (2 * MHIST_CELLS - 1)
