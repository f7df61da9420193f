"""Learned cardinality corrections vs. plain estimation on an aging run.

Two arms stream the same ``U50-S-100`` statements through the same
deterministic loop (optimize → execute → DML → one staleness-monitor
sweep per statement), repeated ``REPEATS`` times so corrections trained
on round *n* serve round *n + 1*:

* **baseline** — the estimator as-is; execution feedback drives refresh
  and would drive re-tunes, but nothing corrects the estimates between
  statistics rebuilds.
* **learned** — a :class:`~repro.learned.CorrectionStore`
  (multiplicative EWMA corrections) sits inside selectivity estimation,
  so the q-error a plan *would have* paid is paid at most once per
  (target, drift) instead of on every execution.

Both arms tune statistics identically (a raw optimizer runs the MNSA
pass, so every arm starts from the same statistics and any difference is
the corrections' doing).  A shadow *scoreboard* feedback store — fed the
same observations but never reset by the refresh policy — provides the
headline metric: the decayed maximum q-error across every
(table, column-set) target at the end of the run.

The learned arm must end with a strictly lower decayed max q-error than
the baseline while building no additional statistics and being granted
strictly fewer feedback re-tunes (better estimates keep plans under the
re-tune threshold).

Deliberately plain pytest (no ``benchmark`` fixture) so it doubles as
the CI smoke step without pytest-benchmark installed.  Single-threaded:
the monitor thread object is never started, only ``run_once`` is driven.
"""

import threading
import time

import pytest

from repro.backends.memory import MemoryBackend
from repro.config import RefreshPolicy
from repro.core.mnsa import mnsa_for_workload
from repro.executor import Executor
from repro.executor.dml import apply_dml
from repro.feedback import FeedbackPolicy, FeedbackStore, worst_plan_q_error
from repro.learned import CorrectionStore
from repro.optimizer import Optimizer, PlanCache
from repro.service import MetricsRegistry, StalenessMonitor
from repro.sql.query import Query
from repro.workload import generate_workload

from benchmarks.conftest import bench_query_cap, write_bench_json

Z = 2.0
WORKLOAD = "U50-S-100"  # the aging experiment's update-heavy workload
REPEATS = 3  # round n trains the corrections round n + 1 plans with
CHURN_FRACTION = 0.2  # ServiceConfig.staleness_fraction default
QERROR_THRESHOLD = 2.0  # refresh trigger (matches bench_feedback_refresh)
RETUNE_THRESHOLD = 4.0  # plans above this would queue an MNSA re-tune


def _capped_statements(workload):
    """Workload prefix holding the query/DML mix, capped on query count."""
    cap = bench_query_cap()
    statements, queries = [], 0
    for statement in workload.statements:
        statements.append(statement)
        if isinstance(statement, Query):
            queries += 1
            if queries >= cap:
                break
    return statements


def _run_arm(factory, arm: str):
    """One arm of the A/B comparison; returns its result dict."""
    db = factory(Z)
    workload = generate_workload(db, WORKLOAD)
    statements = _capped_statements(workload)
    queries = [s for s in statements if isinstance(s, Query)]

    # identical initial tuning for every arm: a *raw* optimizer builds
    # the statistics, so the arms differ only in how they estimate
    mnsa_for_workload(MemoryBackend(db, Optimizer(db)), queries)

    corrections = CorrectionStore() if arm == "learned" else None
    optimizer = Optimizer(db, cache=PlanCache(), corrections=corrections)
    executor = Executor(db)

    store = FeedbackStore()
    policy = FeedbackPolicy(
        store,
        refresh_policy=RefreshPolicy.QERROR,
        refresh_threshold=QERROR_THRESHOLD,
        retune_threshold=RETUNE_THRESHOLD,
    )
    monitor = StalenessMonitor(
        db,
        MetricsRegistry(),
        threading.RLock(),
        fraction=CHURN_FRACTION,
        policy=policy,
        corrections=corrections,
    )
    # the scoreboard sees the same observations but is never reset by a
    # refresh, so end-of-run decayed maxima compare arms fairly
    scoreboard = FeedbackStore()

    execution_cost = 0.0
    retunes = 0
    started = time.perf_counter()
    for _ in range(REPEATS):
        for statement in statements:
            if isinstance(statement, Query):
                optimized = optimizer.optimize(statement)
                result = executor.execute(
                    optimized.plan, statement, feedback=store
                )
                scoreboard.record_all(result.operator_observations)
                if corrections is not None:
                    corrections.observe_all(result.operator_observations)
                execution_cost += result.actual_cost
                worst = worst_plan_q_error(result.operator_observations)
                if policy.should_retune(
                    worst, optimized.signature, db.stats.epoch
                ):
                    retunes += 1
            else:
                apply_dml(db, statement)
            monitor.run_once()
    wall = time.perf_counter() - started

    row = {
        "decayed_max_q_error": round(scoreboard.worst_q_error(), 3),
        "stats_built": len(db.stats.statistics()),
        "retune_grants": retunes,
        "execution_cost": round(execution_cost, 2),
        "wall_seconds": round(wall, 4),
    }
    if corrections is not None:
        counters = corrections.counters()
        row["correction_hits"] = counters["hits"]
        row["correction_misses"] = counters["misses"]
        row["correction_version"] = counters["version"]
    return row


@pytest.fixture(scope="module")
def arms(factory):
    return {
        arm: _run_arm(factory, arm)
        for arm in ("baseline", "learned")
    }


def test_learned_corrections_beat_plain_estimation(arms, report):
    baseline, learned = arms["baseline"], arms["learned"]
    write_bench_json(
        "learned_correction",
        {
            "workload": WORKLOAD,
            "repeats": REPEATS,
            "qerror_threshold": QERROR_THRESHOLD,
            "retune_threshold": RETUNE_THRESHOLD,
            "baseline": baseline,
            "learned": learned,
            "q_error_ratio": round(
                learned["decayed_max_q_error"]
                / baseline["decayed_max_q_error"],
                4,
            ),
        },
    )
    report.add_section(
        "Learned cardinality corrections — aging workload " + WORKLOAD,
        "\n".join(
            f"{name:9s} decayed max q {row['decayed_max_q_error']:8.1f}, "
            f"stats {row['stats_built']}, "
            f"retune grants {row['retune_grants']}, "
            f"exec cost {row['execution_cost']:,.0f}"
            for name, row in arms.items()
        ),
    )
    assert baseline["decayed_max_q_error"] > 1.0, (
        "baseline never misestimated — the workload exercises nothing "
        "for corrections to learn and the comparison is vacuous"
    )
    assert (
        learned["decayed_max_q_error"] < baseline["decayed_max_q_error"]
    ), (
        "learned corrections did not lower the decayed max q-error: "
        f"{learned['decayed_max_q_error']} >= "
        f"{baseline['decayed_max_q_error']}"
    )
    assert learned["stats_built"] <= baseline["stats_built"], (
        "learned arm built more statistics than the baseline: "
        f"{learned['stats_built']} > {baseline['stats_built']}"
    )
    assert learned["retune_grants"] < baseline["retune_grants"], (
        "learned corrections did not save feedback re-tunes: "
        f"{learned['retune_grants']} >= {baseline['retune_grants']}"
    )
