"""The three benchmark workloads and their output checks.

Every workload is a list of *instances*.  Instance ``i`` of run seed ``s``
is a fresh skewed TPC-D database (z=2) generated with data seed
``s * 1000 + i`` and a Rags workload generated over that database with
workload seed ``i``.  The run seed therefore sets the data and, through
it, every constant the generator samples into a statement, while the
statement shapes (tables, columns, operators, DML kinds) depend on the
instance index only.  That split is deliberate: the cost of one Rags
workload varies several-fold with its generator seed (two generator seeds
over eight databases: 1.6 s and 3.8 s mean per U25-S-100 instance) but only
15-21% across databases for one generator seed, and no 30-second run
pooled enough instances to make figures steady across run seeds otherwise.

Each ``run_*`` function drives one instance through the product's public
entry points, records what the instance measured in a :class:`Tally`, and
returns the instance's output check, which the caller runs once every
instance has been timed.  With a :class:`~tracing.Tracer` it also wraps the
calls that cross a layer boundary.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import (
    CreationPolicy,
    MemoryBackend,
    Optimizer,
    PlanCache,
    ServiceConfig,
    StatisticsAdvisor,
    make_tpcd_database,
)
from repro.optimizer.cache import OptimizationRequest
from repro.service import StatsService
from repro.sql.binder import parse_and_bind
from repro.sql.query import Query
from repro.sql.render import render_statement
from repro.workload import generate_workload

SKEW = 2.0
#: plan-cache capacity of every workload: the ``repro tune`` and
#: ``repro serve`` default
CACHE_SIZE = 256
#: tune-offline: passes planning the tuned workload after each tuning, so a
#: run holds well over a thousand planning latencies
TUNED_PASSES = 8
#: serve-mixed: timed passes over the statement stream per service instance
SERVE_PASSES = 4

clock = time.perf_counter


def instance_seeds(seed: int, index: int) -> Tuple[int, int]:
    """Data seed and workload-generator seed of instance ``index``."""
    return seed * 1000 + index, index


def key_digest(keys) -> str:
    """A short digest of a set of statistic keys (order-insensitive)."""
    text = "\n".join(sorted(str(key) for key in keys))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Tally:
    """What the instances of one run measured."""

    #: one record of figures per instance, with its latencies in
    #: milliseconds under ``query_ms`` and ``dml_ms``
    instances: List[Dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: work counts, summed over instances (exact on the advisor workloads)
    counts: Dict[str, float] = field(default_factory=dict)
    #: per-instance digests of created / retained statistic sets
    digests: List[str] = field(default_factory=list)

    def record(self, query_ms, dml_ms, **figures) -> None:
        """Keep one instance's figures and latencies."""
        self.instances.append(dict(figures, query_ms=query_ms, dml_ms=dml_ms))

    def count(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.counts[name] = self.counts.get(name, 0.0) + value

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _drive(tally, name, call, items, is_query, tracer, query_ms, dml_ms):
    """``call(item)`` for every item in order, timing each call; returns
    the results, ``None`` where a call raised."""
    results = []
    for item, query in zip(items, is_query):
        if tracer is not None:
            tracer.request += 1
        tally.attempted += 1
        began = clock()
        try:
            result = call(item)
        except Exception as exc:  # includes ServiceRejectedError; run goes on
            results.append(None)
            tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        (query_ms if query else dml_ms).append((clock() - began) * 1e3)
        results.append(result)
    return results


def _row_count(result):
    """Rows produced by a query, or rows affected by DML."""
    if result is None or isinstance(result, int):
        return result
    return result.row_count


def _check_answers(tally, name, scale, seed, statements, results) -> None:
    """Replay ``statements`` in order through a plain in-memory engine with
    no statistics and no plan cache, and compare every row count: the
    statistics and the plan cache must never change an answer."""
    reference = MemoryBackend(make_tpcd_database(scale=scale, z=SKEW, seed=seed))
    for index, (statement, result) in enumerate(zip(statements, results)):
        tally.attempted += 1
        want = reference.execute(statement).row_count
        got = _row_count(result)
        if got is not None and got != want:
            tally.fail(
                f"{name} seed {seed} statement {index}: {got} rows, "
                f"reference replay gives {want}"
            )


def _trace_advisor(tracer, advisor) -> None:
    tracer.instrument(
        advisor,
        {
            "offline_tune": "core.offline_tune",
            "process_statement": "core.process_statement",
        },
    )
    tracer.instrument(
        advisor.backend,
        {
            "optimize": "optimizer.optimize",
            "magic_variables": "optimizer.magic_variables",
            "create_stats": "stats.create",
            "mark_stat_droppable": "stats.mark_droppable",
            "drop_stats": "stats.drop",
        },
    )
    tracer.instrument(advisor.executor, {"execute": "executor.execute"})


def _advisor_counts(advisor) -> Dict[str, float]:
    cache = advisor.optimizer.cache.counters()
    report = advisor.report
    return {
        "optimizer.calls": advisor.backend.optimizer_calls,
        "optimizer.cold_calls": advisor.optimizer.cold_optimize_count,
        "optimizer.cache_hits": cache["hits"],
        "optimizer.cache_misses": cache["misses"],
        "optimizer.cache_revalidations": cache["revalidations"],
        "optimizer.cache_evictions": cache["evictions"],
        "stats.created": len(report.created),
        "stats.dropped": len(report.dropped),
        "stats.refreshes": len(report.refreshed_tables),
        "creation_cost": report.creation_cost,
    }


# ----------------------------------------------------------------------
# tune-offline
# ----------------------------------------------------------------------


def run_tune_offline(seeds: Tuple[int, int], tally: Tally, tracer=None):
    """``repro tune --mode offline``: MNSA per query, then Shrinking Set,
    from no statistics.  The tuned workload then goes through the advisor
    ``TUNED_PASSES`` times, planned on the statistics that were kept and not
    executed, so its cost is the optimizer's estimate (the cost Shrinking
    Set's equivalence judges)."""
    scale = 0.002
    seed, workload_seed = seeds
    started = clock()
    db = make_tpcd_database(scale=scale, z=SKEW, seed=seed)
    statements = generate_workload(db, "U25-C-40", seed=workload_seed).statements
    is_query = [isinstance(s, Query) for s in statements]
    queries = [s for s in statements if isinstance(s, Query)]
    setup_s = clock() - started

    advisor = StatisticsAdvisor(
        db,
        CreationPolicy.NONE,
        cache=PlanCache(CACHE_SIZE),
        execute_queries=False,
    )
    if tracer is not None:
        _trace_advisor(tracer, advisor)
        tracer.request += 1
    tally.attempted += len(queries)
    started = clock()
    shrink = advisor.offline_tune(queries)
    tuned_s = clock() - started
    created = list(advisor.report.created)
    query_ms: List[float] = []
    dml_ms: List[float] = []
    results = _drive(
        tally,
        "tune-offline",
        advisor.process_statement,
        statements * TUNED_PASSES,
        is_query * TUNED_PASSES,
        tracer,
        query_ms,
        dml_ms,
    )
    # the first pass: the plans the tuned statistics give the workload
    estimated = sum(
        result.cost
        for result, query in zip(results, is_query)
        if query and result is not None
    )

    tally.record(
        query_ms,
        dml_ms,
        setup_s=setup_s,
        throughput_stmt_s=len(queries) / tuned_s,
        creation_cost=advisor.report.creation_cost,
        execution_cost=estimated,
        stats_kept=len(shrink.essential),
    )
    counts = _advisor_counts(advisor)
    counts.update(
        {
            "execution_cost": estimated,
            "core.shrink_memo_hits": shrink.memo_hits,
            "core.shrink_optimizer_calls": shrink.optimizer_calls,
            "core.kept": len(shrink.essential),
        }
    )
    tally.count(counts)
    tally.digests.append(
        f"created={key_digest(created)} kept={key_digest(shrink.essential)}"
    )
    return lambda: _check_shrink(
        tally, scale, seed, queries, created, shrink.essential
    )


def _check_shrink(tally, scale, seed, queries, created, essential) -> None:
    """Every query's plan under the retained set must be the same execution
    tree as its plan under the full MNSA-created set.  Both plans come from
    one fresh database holding every created statistic, the retained set
    being the full set with the removed statistics on the ignore-set."""
    db = make_tpcd_database(scale=scale, z=SKEW, seed=seed)
    backend = MemoryBackend(db, Optimizer(db))
    for key in created:
        backend.create_stats(key)
    kept = set(essential)
    removed = [key for key in created if key not in kept]
    for index, query in enumerate(queries):
        tally.attempted += 1
        full = backend.optimize(OptimizationRequest(query))
        retained = backend.optimize(OptimizationRequest(query, ignore=removed))
        if full.signature != retained.signature:
            tally.fail(
                f"tune-offline seed {seed} query {index}: plan under the "
                "retained statistics differs from the plan under all "
                "MNSA-created statistics"
            )


# ----------------------------------------------------------------------
# advise-online
# ----------------------------------------------------------------------


def run_advise_online(seeds: Tuple[int, int], tally: Tally, tracer=None):
    """``repro tune --mode mnsad``: MNSA/D on every query of the stream,
    queries executed, DML driving the refresh and drop policies."""
    scale = 0.01
    seed, workload_seed = seeds
    started = clock()
    db = make_tpcd_database(scale=scale, z=SKEW, seed=seed)
    statements = generate_workload(db, "U25-S-100", seed=workload_seed).statements
    is_query = [isinstance(s, Query) for s in statements]
    setup_s = clock() - started

    advisor = StatisticsAdvisor(
        db, CreationPolicy.MNSAD, cache=PlanCache(CACHE_SIZE)
    )
    if tracer is not None:
        _trace_advisor(tracer, advisor)
    query_ms: List[float] = []
    dml_ms: List[float] = []
    started = clock()
    results = _drive(
        tally,
        "advise-online",
        advisor.process_statement,
        statements,
        is_query,
        tracer,
        query_ms,
        dml_ms,
    )
    elapsed = clock() - started

    visible = db.stats.visible_keys()
    tally.record(
        query_ms,
        dml_ms,
        setup_s=setup_s,
        throughput_stmt_s=len(statements) / elapsed,
        creation_cost=advisor.report.creation_cost,
        execution_cost=advisor.report.execution_cost,
        stats_kept=len(visible),
    )
    counts = _advisor_counts(advisor)
    counts["execution_cost"] = advisor.report.execution_cost
    counts["core.kept"] = len(visible)
    tally.count(counts)
    tally.digests.append(
        f"created={key_digest(advisor.report.created)} "
        f"visible={key_digest(visible)} "
        f"drop_list={key_digest(db.stats.drop_list())}"
    )
    return lambda: _check_answers(
        tally, "advise-online", scale, seed, statements, results
    )


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------

#: service metrics whose growth over the timed passes is reported
SERVICE_COUNTERS = (
    "service.query_seconds",
    "service.query_count",
    "service.dml_seconds",
    "service.dml_count",
    "service.degraded",
    "service.execution_cost",
    "advisor.seconds",
    "advisor.events",
    "advisor.stats_created",
    "advisor.stats_drop_listed",
    "advisor.optimizer_calls",
    "advisor.creation_cost",
    "monitor.refreshes",
    "monitor.purged",
    "capture.evicted",
)


def run_serve_mixed(seeds: Tuple[int, int], tally: Tally, tracer=None):
    """``repro serve`` defaults, one closed-loop session sending SQL text:
    one warm-up pass and ``drain()``, then the timed passes."""
    scale = 0.002
    seed, workload_seed = seeds
    started = clock()
    db = make_tpcd_database(scale=scale, z=SKEW, seed=seed)
    statements = generate_workload(db, "U25-S-100", seed=workload_seed).statements
    is_query = [isinstance(s, Query) for s in statements]
    sql = [render_statement(s, db.schema) for s in statements]
    service = StatsService(db, ServiceConfig()).start()
    try:
        session = service.session()
        parse = parse_and_bind

        def submit(text):
            return session.submit_statement(parse(text, db.schema))

        results = _drive(
            tally, "serve-mixed warm-up", submit, sql, is_query, None, [], []
        )
        service.drain()
        setup_s = clock() - started

        if tracer is not None:
            parse = tracer.wrap("sql.parse_bind", parse_and_bind)
            tracer.instrument(session, {"submit_statement": "service.submit"})
            # the request path's own optimizer and executor; advisor
            # workers plan with optimizers of their own
            tracer.instrument(
                service._optimizer,
                {
                    "optimize_request": "optimizer.optimize",
                    "magic_variables": "optimizer.magic_variables",
                },
            )
            tracer.instrument(service._executor, {"execute": "executor.execute"})
        metrics_before = service.metrics.snapshot()
        cache_before = service.plan_cache.counters()
        calls_before = service._optimizer.call_count
        cold_before = service._optimizer.cold_optimize_count
        errors_before = len(service.worker_errors())

        query_ms: List[float] = []
        dml_ms: List[float] = []
        started = clock()
        for _ in range(SERVE_PASSES):
            results += _drive(
                tally, "serve-mixed", submit, sql, is_query, tracer, query_ms, dml_ms
            )
        elapsed = clock() - started

        metrics = service.metrics.snapshot()
        grown = {
            name: metrics.get(name, 0.0) - metrics_before.get(name, 0.0)
            for name in SERVICE_COUNTERS
        }
        cache = service.plan_cache.counters()
        visible = len(db.stats.visible_keys())
        tally.record(
            query_ms,
            dml_ms,
            setup_s=setup_s,
            throughput_stmt_s=SERVE_PASSES * len(sql) / elapsed,
            creation_cost=grown["advisor.creation_cost"],
            execution_cost=grown["service.execution_cost"],
            stats_kept=visible,
        )
        counts = {
            "optimizer.calls": service._optimizer.call_count - calls_before,
            "optimizer.cold_calls": (
                service._optimizer.cold_optimize_count - cold_before
            ),
            "stats.created": grown["advisor.stats_created"],
            "stats.dropped": grown["monitor.purged"],
            "stats.refreshes": grown["monitor.refreshes"],
            "core.kept": visible,
            "timed_seconds": elapsed,
        }
        for name in ("hits", "misses", "revalidations", "evictions"):
            counts[f"optimizer.cache_{name}"] = cache[name] - cache_before[name]
        counts.update(grown)
        tally.count(counts)
        for exc in service.worker_errors()[errors_before:]:
            tally.fail(f"serve-mixed worker error: {exc!r}")
    finally:
        service.stop()
    return lambda: _check_answers(
        tally, "serve-mixed", scale, seed, statements * (1 + SERVE_PASSES), results
    )


WORKLOADS = {
    "tune-offline": run_tune_offline,
    "advise-online": run_advise_online,
    "serve-mixed": run_serve_mixed,
}
