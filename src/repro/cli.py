"""Command-line interface.

::

    python -m repro.cli generate --scale 0.005 --z 2 --out /tmp/tpcd
    python -m repro.cli query --db /tmp/tpcd "SELECT COUNT(*) FROM orders"
    python -m repro.cli workload --db /tmp/tpcd --name U25-S-100 \
        --out /tmp/w.sql
    python -m repro.cli tune --db /tmp/tpcd --workload /tmp/w.sql \
        --mode offline
    python -m repro.cli serve --workload U25-S-100 --workers 2
    python -m repro.cli experiment figure4 --z 2

Every subcommand prints human-readable output; ``experiment`` prints the
same rows the benchmark harness reports (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.backends.base import BACKEND_NAMES
from repro.experiments.common import DATABASE_SPECS, format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Automating Statistics Management for "
            "Query Optimizers' (ICDE 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a skewed TPC-D database")
    gen.add_argument("--scale", type=float, default=0.005)
    gen.add_argument(
        "--z",
        default="0",
        help="Zipfian skew: a number in [0,4] or 'mix'",
    )
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output directory")

    query = sub.add_parser("query", help="run one SQL statement")
    query.add_argument("--db", required=True, help="database directory")
    query.add_argument("sql", help="the SQL text")
    query.add_argument("--limit", type=int, default=20)
    query.add_argument(
        "--explain", action="store_true", help="print the plan only"
    )

    workload = sub.add_parser(
        "workload", help="generate a Rags-style workload as SQL"
    )
    workload.add_argument("--db", required=True)
    workload.add_argument(
        "--name", default="U25-S-100", help="U<pct>-<S|C>-<n> spec"
    )
    workload.add_argument("--seed", type=int, default=7)
    workload.add_argument("--out", required=True, help="output .sql file")

    tune = sub.add_parser(
        "tune", help="run automated statistics selection over a workload"
    )
    tune.add_argument("--db", required=True)
    tune.add_argument("--workload", required=True, help=".sql file")
    tune.add_argument(
        "--mode",
        choices=("mnsa", "mnsad", "offline", "syntactic"),
        default="offline",
    )
    tune.add_argument("--t", type=float, default=20.0)
    tune.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="plan-cache capacity for analysis probes (0 disables)",
    )
    tune.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="memory",
        help=(
            "engine the tuning analyses run against; with a foreign "
            "engine (e.g. sqlite) decisions are mirrored into the "
            "in-memory statistics"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the online statistics service: stream a workload "
            "through concurrent sessions with background MNSA/D workers "
            "and a staleness monitor"
        ),
    )
    serve.add_argument(
        "--db", default=None, help="existing database directory (default: "
        "generate a TPC-D database in memory)"
    )
    serve.add_argument("--scale", type=float, default=0.002)
    serve.add_argument("--z", default="2", help="Zipfian skew for --db-less runs")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--workload", default="U25-S-100", help="U<pct>-<S|C>-<n> spec"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="background advisor workers"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "service shards: tables are partitioned across shards, each "
            "with its own statement lock, capture-log segment, advisor "
            "workers, and staleness monitor"
        ),
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="concurrent client sessions"
    )
    serve.add_argument(
        "--policy", choices=("mnsa", "mnsad"), default="mnsad"
    )
    serve.add_argument(
        "--capture", type=int, default=1024, help="capture-log capacity"
    )
    serve.add_argument(
        "--refresh-fraction",
        type=float,
        default=0.2,
        help="staleness trigger: counter >= fraction * rows",
    )
    serve.add_argument(
        "--refresh-budget",
        type=float,
        default=None,
        help="max refresh work units per monitor cycle (default unbounded)",
    )
    serve.add_argument(
        "--no-execute",
        action="store_true",
        help="optimize only; skip plan execution",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="shared plan-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="analysis parallelism: overrides --workers when given",
    )
    serve.add_argument(
        "--feedback",
        action="store_true",
        help=(
            "capture per-operator estimated-vs-actual cardinalities and "
            "let observed q-error drive refresh/re-tune decisions"
        ),
    )
    serve.add_argument(
        "--refresh-policy",
        choices=("churn", "qerror", "hybrid"),
        default="churn",
        help=(
            "staleness-monitor trigger: row churn (SQL Server 7.0 "
            "baseline), observed q-error, or both (implies --feedback)"
        ),
    )
    serve.add_argument(
        "--qerror-refresh-threshold",
        type=float,
        default=4.0,
        help="decayed q-error at which a table becomes due for refresh",
    )
    serve.add_argument(
        "--qerror-retune-threshold",
        type=float,
        default=10.0,
        help="worst plan q-error that queues an MNSA re-tune",
    )
    serve.add_argument(
        "--learned",
        action="store_true",
        help=(
            "apply learned cardinality corrections inside selectivity "
            "estimation (implies --feedback)"
        ),
    )
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="memory",
        help=(
            "engine the background advisor workers analyze against "
            "(see ServiceConfig.backend)"
        ),
    )

    feedback = sub.add_parser(
        "feedback",
        help=(
            "execute a workload inline with per-operator feedback capture "
            "and report q-error aggregates per (table, column-set) target"
        ),
    )
    feedback.add_argument(
        "action",
        nargs="?",
        choices=("report",),
        default="report",
        help="what to do with the captured feedback (default: report)",
    )
    feedback.add_argument(
        "--db", default=None, help="existing database directory (default: "
        "generate a TPC-D database in memory)"
    )
    feedback.add_argument("--scale", type=float, default=0.002)
    feedback.add_argument("--z", default="2")
    feedback.add_argument("--seed", type=int, default=42)
    feedback.add_argument(
        "--workload", default="U25-S-100", help="U<pct>-<S|C>-<n> spec"
    )
    feedback.add_argument(
        "--threshold",
        type=float,
        default=4.0,
        help="flag targets whose decayed q-error reaches this value",
    )
    feedback.add_argument(
        "--top", type=int, default=20, help="show at most this many targets"
    )
    feedback.add_argument(
        "--learned",
        action="store_true",
        help=(
            "feed observations into a learned correction store and "
            "report its per-key factors and hit/miss counters"
        ),
    )

    experiment = sub.add_parser(
        "experiment", help="reproduce a paper table or figure"
    )
    experiment.add_argument(
        "which",
        choices=("intro", "figure3", "figure4", "single-column", "table1"),
    )
    experiment.add_argument("--scale", type=float, default=0.002)
    experiment.add_argument(
        "--z", default=None, help="restrict to one skew setting"
    )
    experiment.add_argument("--queries", type=int, default=30)

    ablation = sub.add_parser(
        "ablation", help="run one of the design-choice ablations"
    )
    ablation.add_argument(
        "which",
        choices=(
            "threshold",
            "next-stat",
            "shrinking",
            "equivalence",
            "histograms",
            "sampling",
            "joint",
            "join-estimation",
            "aging",
            "maintenance",
        ),
    )
    ablation.add_argument("--scale", type=float, default=0.002)
    ablation.add_argument("--z", default="2")

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific static-analysis rules (repro.analysis)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all, R001-R015)",
    )
    lint.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="BASE_REF",
        help=(
            "only lint files that differ from BASE_REF (default: HEAD) "
            "plus untracked files; falls back to a full run when git "
            "is unavailable"
        ),
    )
    lint.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="PATTERN",
        help=(
            "skip files whose /-separated path matches the fnmatch "
            "PATTERN (repeatable)"
        ),
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--cache",
        nargs="?",
        const=".repro-lint-cache.json",
        default=None,
        metavar="PATH",
        help=(
            "enable the incremental on-disk cache "
            "(default path: .repro-lint-cache.json)"
        ),
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="apply safe autofixes (R005 pin literals) and re-lint",
    )
    lint.add_argument(
        "--fix-unsafe",
        action="store_true",
        help=(
            "also apply unsafe fixes (R007 TODO registry entries); "
            "implies --fix"
        ),
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            "(default: .repro-lint-baseline.json next to the first path, "
            "if present)"
        ),
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file with the current findings and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "query": _cmd_query,
        "workload": _cmd_workload,
        "tune": _cmd_tune,
        "serve": _cmd_serve,
        "feedback": _cmd_feedback,
        "experiment": _cmd_experiment,
        "ablation": _cmd_ablation,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------


def _parse_z(text):
    return text if text == "mix" else float(text)


def _cmd_generate(args) -> int:
    from repro.datagen import make_tpcd_database
    from repro.storage.persistence import save_database

    db = make_tpcd_database(
        scale=args.scale, z=_parse_z(args.z), seed=args.seed
    )
    save_database(db, args.out)
    rows = [[t, f"{db.row_count(t):,}"] for t in db.table_names()]
    print(f"wrote {db.name} (scale {args.scale}) to {args.out}")
    print(format_table(["table", "rows"], rows))
    return 0


def _cmd_query(args) -> int:
    from repro.executor import Executor
    from repro.optimizer import Optimizer
    from repro.sql.binder import parse_and_bind
    from repro.sql.query import Query
    from repro.storage.persistence import load_database

    db = load_database(args.db)
    statement = parse_and_bind(args.sql, db.schema)
    if not isinstance(statement, Query):
        from repro.executor.dml import apply_dml

        affected = apply_dml(db, statement)
        print(f"{affected} row(s) affected (database on disk unchanged)")
        return 0
    optimizer = Optimizer(db)
    result = optimizer.optimize(statement)
    print(result.plan.pretty())
    if args.explain:
        return 0
    executed = Executor(db).execute(result.plan, statement)
    print(
        f"\n{executed.row_count} row(s); actual cost "
        f"{executed.actual_cost:,.1f}"
    )
    for row in executed.rows(limit=args.limit):
        print(f"  {row}")
    if executed.row_count > args.limit:
        print(f"  ... ({executed.row_count - args.limit} more)")
    return 0


def _cmd_workload(args) -> int:
    from repro.sql.render import render_workload
    from repro.storage.persistence import load_database
    from repro.workload import generate_workload

    db = load_database(args.db)
    workload = generate_workload(db, args.name, seed=args.seed)
    with open(args.out, "w") as handle:
        handle.write(render_workload(workload, db.schema) + "\n")
    print(
        f"wrote {len(workload)} statements "
        f"({len(workload.queries())} queries) to {args.out}"
    )
    return 0


def _cmd_tune(args) -> int:
    from repro.core.advisor import StatisticsAdvisor
    from repro.core.mnsa import MnsaConfig
    from repro.core.policy import CreationPolicy
    from repro.optimizer.cache import PlanCache
    from repro.sql.render import load_workload
    from repro.storage.persistence import load_database

    db = load_database(args.db)
    with open(args.workload) as handle:
        workload = load_workload(handle.read(), db.schema)

    config = MnsaConfig(t_percent=args.t)
    cache = PlanCache(args.cache_size) if args.cache_size > 0 else None
    backend = None
    if args.backend != "memory":
        from repro.backends import backend_from_name

        backend = backend_from_name(args.backend, db)
    if args.mode == "offline":
        advisor = StatisticsAdvisor(
            db, CreationPolicy.NONE, config, cache=cache, backend=backend
        )
        shrink = advisor.offline_tune(workload.queries())
        print(
            f"offline tuning: MNSA created "
            f"{len(advisor.report.created)} statistics, Shrinking Set "
            f"retained {len(shrink.essential)}"
        )
        for key in shrink.essential:
            print(f"  keep {key}")
        return 0
    policy = {
        "mnsa": CreationPolicy.MNSA,
        "mnsad": CreationPolicy.MNSAD,
        "syntactic": CreationPolicy.SYNTACTIC,
    }[args.mode]
    advisor = StatisticsAdvisor(
        db, policy, config, cache=cache, backend=backend
    )
    report = advisor.run_workload(workload.statements)
    print(
        f"{args.mode}: processed {report.statements} statements, created "
        f"{len(report.created)} statistics "
        f"(creation cost {report.creation_cost:,.0f}), execution cost "
        f"{report.execution_cost:,.0f}"
    )
    for key in db.stats.visible_keys():
        print(f"  visible {key}")
    drop_list = db.stats.drop_list()
    if drop_list:
        print(f"  drop-list: {', '.join(str(k) for k in drop_list)}")
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.config import ServiceConfig
    from repro.datagen import make_tpcd_database
    from repro.service import StatsService
    from repro.workload import generate_workload

    if args.db:
        from repro.storage.persistence import load_database

        db = load_database(args.db)
    else:
        db = make_tpcd_database(
            scale=args.scale, z=_parse_z(args.z), seed=args.seed
        )
    workload = generate_workload(db, args.workload, seed=args.seed)
    workers = (
        args.parallelism if args.parallelism is not None else args.workers
    )
    feedback_on = (
        args.feedback or args.learned or args.refresh_policy != "churn"
    )
    config = ServiceConfig(
        capture_capacity=args.capture,
        advisor_workers=workers,
        creation_policy=args.policy,
        staleness_fraction=args.refresh_fraction,
        refresh_budget_per_cycle=args.refresh_budget,
        execute_queries=not args.no_execute,
        plan_cache_size=args.cache_size,
        feedback_enabled=feedback_on,
        refresh_policy=args.refresh_policy,
        qerror_refresh_threshold=args.qerror_refresh_threshold,
        qerror_retune_threshold=args.qerror_retune_threshold,
        learned_enabled=args.learned,
        shards=args.shards,
        backend=args.backend,
    )
    service = StatsService(db, config)
    clients = max(1, args.clients)
    feedback_note = (
        f", feedback on ({args.refresh_policy} refresh)"
        if feedback_on
        else ""
    )
    if args.learned:
        feedback_note += ", learned corrections (multiplicative)"
    if args.backend != "memory":
        feedback_note += f", {args.backend} analysis backend"
    print(
        f"serving workload {args.workload} over {db.name}: "
        f"{clients} client(s), {workers} advisor worker(s), "
        f"{args.shards} shard(s), "
        f"policy {args.policy}, plan cache {args.cache_size}"
        f"{feedback_note}"
    )

    client_errors = []

    def run_client(statements) -> None:
        session = service.session()
        try:
            for statement in statements:
                session.submit_statement(statement)
        except BaseException as exc:  # surfaced after join
            client_errors.append(exc)

    with service:
        threads = [
            threading.Thread(
                target=run_client,
                args=(workload.statements[index::clients],),
                name=f"client-{index}",
            )
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain()
    # the context manager stopped the service with a final staleness pass
    created = service.created_off_path
    print(f"\nstatements submitted:  {len(workload)}")
    print(f"statistics created off the query path: {len(created)}")
    for key in created:
        print(f"  built {key}")
    drop_list = db.stats.drop_list()
    if drop_list:
        print(f"  drop-list: {', '.join(str(k) for k in drop_list)}")
    if service.feedback is not None:
        print("\n--- feedback (worst targets)")
        print(_feedback_table(service.feedback, threshold=None, top=10))
    if service.corrections is not None:
        counters = service.corrections.counters()
        print("\n--- corrections")
        print(
            "model multiplicative "
            f"(version {counters['version']}): "
            f"{counters['observations']} observations, "
            f"{counters['hits']} hits / {counters['misses']} misses, "
            f"{counters['invalidations']} invalidations, "
            f"{counters['tracked']} tracked"
        )
    print("\n--- metrics")
    print(service.metrics_text())
    for exc in service.worker_errors():
        print(f"worker error: {exc!r}")
    for exc in client_errors:
        print(f"client error: {exc!r}")
    return 1 if (client_errors or service.worker_errors()) else 0


def _feedback_table(store, threshold, top) -> str:
    """Render a feedback store's worst targets as a report table."""
    rows = []
    for key, aggregate in store.snapshot()[:top]:
        flagged = (
            threshold is not None
            and aggregate["decayed_q_error"] >= threshold
        )
        rows.append(
            [
                str(key),
                aggregate["count"],
                f"{aggregate['max_q_error']:.1f}",
                f"{aggregate['p95_q_error']:.1f}",
                f"{aggregate['decayed_q_error']:.1f}",
                f"{aggregate['last_estimated']:.0f}",
                aggregate["last_actual"],
                "refresh" if flagged else "",
            ]
        )
    return format_table(
        [
            "target",
            "obs",
            "max q",
            "p95 q",
            "decayed q",
            "last est",
            "last actual",
            "action",
        ],
        rows,
    )


def _cmd_feedback(args) -> int:
    from repro.datagen import make_tpcd_database
    from repro.executor import Executor
    from repro.executor.dml import apply_dml
    from repro.feedback import FeedbackStore
    from repro.optimizer import Optimizer
    from repro.sql.query import Query
    from repro.workload import generate_workload

    if args.db:
        from repro.storage.persistence import load_database

        db = load_database(args.db)
    else:
        db = make_tpcd_database(
            scale=args.scale, z=_parse_z(args.z), seed=args.seed
        )
    workload = generate_workload(db, args.workload, seed=args.seed)
    corrections = None
    if args.learned:
        from repro.learned import CorrectionStore

        corrections = CorrectionStore()
    optimizer = Optimizer(db, corrections=corrections)
    executor = Executor(db)
    store = FeedbackStore()
    queries = dml = 0
    for statement in workload.statements:
        if isinstance(statement, Query):
            plan = optimizer.optimize(statement)
            result = executor.execute(
                plan.plan, statement, feedback=store
            )
            if corrections is not None:
                corrections.observe_all(result.operator_observations)
            queries += 1
        else:
            apply_dml(db, statement)
            dml += 1
    counters = store.counters()
    print(
        f"executed {queries} queries / {dml} DML over {db.name}: "
        f"{counters['observations']} operator observations, "
        f"{counters['tracked']} feedback targets"
    )
    print(_feedback_table(store, threshold=args.threshold, top=args.top))
    if corrections is not None:
        cc = corrections.counters()
        print(
            "\n--- corrections (multiplicative, "
            f"version {cc['version']}): "
            f"{cc['hits']} hits / {cc['misses']} misses, "
            f"{cc['observations']} observations, "
            f"{cc['tracked']} tracked"
        )
        rows = [
            [label, kind, f"{agg['factor']:.3f}", int(agg["count"])]
            for label, kind, agg in corrections.snapshot()[: args.top]
        ]
        if rows:
            print(
                format_table(["target", "kind", "factor", "obs"], rows)
            )
    else:
        print(
            "\n(re-run with --learned to train correction models on "
            "these observations)"
        )
    flagged = store.tables_by_error(args.threshold)
    if flagged:
        print(
            f"\ntables due for refresh at q-error >= {args.threshold:g}: "
            f"{', '.join(flagged)}"
        )
    else:
        print(
            f"\nno table reaches the q-error refresh threshold "
            f"({args.threshold:g})"
        )
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import (
        run_figure3,
        run_figure4,
        run_intro_experiment,
        run_single_column_mnsa,
        run_table1,
    )
    from repro.experiments.common import default_database_factory

    factory = default_database_factory(scale=args.scale)
    specs = DATABASE_SPECS
    if args.z is not None:
        z = _parse_z(args.z)
        specs = [(f"z={args.z}", z)]

    if args.which == "intro":
        result = run_intro_experiment(factory(_parse_z(args.z or "2")))
        rows = [
            [qid, "changed" if c else "same", f"{b:.0f}", f"{a:.0f}"]
            for qid, c, b, a in zip(
                result.query_ids,
                result.plan_changed,
                result.cost_before,
                result.cost_after,
            )
        ]
        print(
            format_table(
                ["query", "plan", "cost before", "cost after"], rows
            )
        )
        print(
            f"\n{result.changed_count}/17 plans changed "
            "(paper: 15/17)"
        )
        return 0

    runner = {
        "figure3": run_figure3,
        "figure4": run_figure4,
        "single-column": run_single_column_mnsa,
        "table1": run_table1,
    }[args.which]
    rows = []
    for _, z in specs:
        result = runner(factory, z, max_queries=args.queries)
        if args.which == "figure3":
            rows.append(
                [
                    result.database,
                    f"{result.creation_reduction_percent:.0f}%",
                    f"{result.execution_increase_percent:+.1f}%",
                ]
            )
        elif args.which == "table1":
            rows.append(
                [
                    result.database,
                    f"{result.update_cost_reduction_percent:.0f}%",
                    f"{result.execution_increase_percent:+.1f}%",
                ]
            )
        else:
            rows.append(
                [
                    result.database,
                    f"{result.creation_reduction_percent:.0f}%",
                    f"{result.execution_increase_percent:+.1f}%",
                ]
            )
    metric = (
        "update-cost reduction"
        if args.which == "table1"
        else "creation reduction"
    )
    print(format_table(["database", metric, "exec increase"], rows))
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import (
        run_aging_experiment,
        run_equivalence_ablation,
        run_histogram_kind_ablation,
        run_joint_histogram_ablation,
        run_next_stat_ablation,
        run_sampling_ablation,
        run_shrinking_ablation,
        run_threshold_sweep,
    )
    from repro.experiments.common import default_database_factory

    factory = default_database_factory(scale=args.scale)
    z = _parse_z(args.z)

    if args.which == "threshold":
        rows = run_threshold_sweep(factory, z)
        print(
            format_table(
                ["t", "stats built", "creation cost", "execution cost"],
                [
                    [
                        f"{r.t_percent:g}%",
                        r.created_count,
                        f"{r.creation_cost:.0f}",
                        f"{r.execution_cost:.0f}",
                    ]
                    for r in rows
                ],
            )
        )
    elif args.which == "next-stat":
        result = run_next_stat_ablation(factory, z)
        print(
            format_table(
                ["strategy", "stats built", "creation cost"],
                [
                    [
                        "costliest-operator",
                        result.heuristic_created,
                        f"{result.heuristic_creation_cost:.0f}",
                    ],
                    [
                        "arbitrary",
                        result.arbitrary_created,
                        f"{result.arbitrary_creation_cost:.0f}",
                    ],
                ],
            )
        )
    elif args.which == "shrinking":
        result = run_shrinking_ablation(factory, z)
        print(
            format_table(
                ["strategy", "retained", "update cost", "optimizer calls"],
                [
                    [
                        "MNSA + Shrinking Set",
                        result.shrink_retained,
                        f"{result.shrink_update_cost:.0f}",
                        result.shrink_optimizer_calls,
                    ],
                    [
                        "MNSA/D",
                        result.mnsad_retained,
                        f"{result.mnsad_update_cost:.0f}",
                        result.mnsad_optimizer_calls,
                    ],
                ],
            )
        )
    elif args.which == "equivalence":
        rows = run_equivalence_ablation(factory, z)
        print(
            format_table(
                ["criterion", "retained", "update cost"],
                [
                    [r.criterion, r.retained, f"{r.update_cost:.0f}"]
                    for r in rows
                ],
            )
        )
    elif args.which == "histograms":
        rows = run_histogram_kind_ablation(factory, z)
        print(
            format_table(
                ["kind", "q-error geomean", "q-error max", "exec cost"],
                [
                    [
                        r.kind,
                        f"{r.q_error_geomean:.2f}",
                        f"{r.q_error_max:.1f}",
                        f"{r.execution_cost:.0f}",
                    ]
                    for r in rows
                ],
            )
        )
    elif args.which == "sampling":
        rows = run_sampling_ablation(factory, z)
        print(
            format_table(
                ["sample rows", "creation cost", "q-error geomean"],
                [
                    [
                        "full" if r.sample_rows is None else r.sample_rows,
                        f"{r.creation_cost:.0f}",
                        f"{r.q_error_geomean:.2f}",
                    ]
                    for r in rows
                ],
            )
        )
    elif args.which == "joint":
        rows = run_joint_histogram_ablation(factory, z)
        print(
            format_table(
                ["configuration", "q-error geomean", "q-error max"],
                [
                    [
                        r.configuration,
                        f"{r.q_error_geomean:.2f}",
                        f"{r.q_error_max:.1f}",
                    ]
                    for r in rows
                ],
            )
        )
    elif args.which == "join-estimation":
        from repro.experiments import run_join_estimation_ablation

        rows = run_join_estimation_ablation(factory, z)
        print(
            format_table(
                ["configuration", "q-error geomean", "q-error max"],
                [
                    [
                        r.configuration,
                        f"{r.q_error_geomean:.2f}",
                        f"{r.q_error_max:.1f}",
                    ]
                    for r in rows
                ],
            )
        )
    elif args.which == "maintenance":
        from repro.experiments import run_incremental_maintenance_experiment

        rows = run_incremental_maintenance_experiment(factory, z)
        print(
            format_table(
                [
                    "scenario",
                    "strategy",
                    "maintenance cost",
                    "rebuilds",
                    "q-error",
                ],
                [
                    [
                        r.scenario,
                        r.strategy,
                        f"{r.maintenance_cost:.0f}",
                        r.full_rebuilds,
                        f"{r.q_error_geomean:.2f}",
                    ]
                    for r in rows
                ],
            )
        )
    else:  # aging
        rows = run_aging_experiment(factory, z)
        print(
            format_table(
                ["configuration", "created", "creation cost", "exec cost"],
                [
                    [
                        "aging on" if r.aging_enabled else "aging off",
                        r.statistics_created,
                        f"{r.creation_cost:.0f}",
                        f"{r.execution_cost:.0f}",
                    ]
                    for r in rows
                ],
            )
        )
    return 0


def _git_changed_files(base_ref):
    """Absolute paths changed vs ``base_ref`` plus untracked files, or
    None when git is unavailable (not a repo, no git binary, bad ref)."""
    import os
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            check=True,
            text=True,
        ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", "-z", base_ref, "--"],
            capture_output=True,
            check=True,
            text=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard", "-z"],
            capture_output=True,
            check=True,
            text=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    names = set()
    for blob in (diff.stdout, untracked.stdout):
        names.update(name for name in blob.split("\0") if name)
    return [os.path.join(top, name) for name in sorted(names)]


def _cmd_lint(args) -> int:
    import os

    from repro.analysis import (
        BASELINE_FILENAME,
        RULES,
        all_rule_ids,
        save_baseline,
    )
    from repro.analysis.engine import run_lint
    from repro.analysis.output import render

    if args.list_rules:
        for rule_id in all_rule_ids():
            rule_cls = RULES[rule_id]
            print(
                f"{rule_id}  {rule_cls.name:24s} "
                f"{rule_cls.scope:8s} v{rule_cls.version:<3d} "
                f"{rule_cls.description}"
            )
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(all_rule_ids()))
        if unknown:
            print(
                f"repro lint: unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(all_rule_ids())})",
                file=sys.stderr,
            )
            return 2
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(
            f"repro lint: path(s) do not exist: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    # --changed / --exclude narrow the target set down to explicit
    # files; project-scope rules then see only that subset, which is the
    # point of the fast pre-gate (CI still runs the full tree).
    lint_targets = list(args.paths)
    if args.exclude or args.changed is not None:
        import fnmatch

        from repro.analysis.framework import collect_files

        selected = collect_files(lint_targets)
        if args.exclude:
            selected = [
                path
                for path in selected
                if not any(
                    fnmatch.fnmatch(path.replace(os.sep, "/"), pattern)
                    for pattern in args.exclude
                )
            ]
        if args.changed is not None:
            changed = _git_changed_files(args.changed)
            if changed is None:
                print(
                    "repro lint: --changed: git unavailable, "
                    "falling back to a full run",
                    file=sys.stderr,
                )
            else:
                changed_set = {os.path.realpath(path) for path in changed}
                selected = [
                    path
                    for path in selected
                    if os.path.realpath(path) in changed_set
                ]
        lint_targets = selected

    baseline = args.baseline
    if baseline is None:
        first = args.paths[0] if args.paths else "src"
        root = first if os.path.isdir(first) else os.path.dirname(first) or "."
        for candidate in (
            os.path.join(root, BASELINE_FILENAME),
            BASELINE_FILENAME,
        ):
            if os.path.exists(candidate):
                baseline = candidate
                break

    if args.update_baseline:
        findings = run_lint(lint_targets, rules=rules)
        target = args.baseline or BASELINE_FILENAME
        save_baseline(target, findings)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0

    findings = run_lint(
        lint_targets,
        rules=rules,
        baseline=baseline,
        cache_path=args.cache,
    )

    if args.fix or args.fix_unsafe:
        from repro.analysis.fixers import apply_fixes

        report = apply_fixes(findings, unsafe=args.fix_unsafe)
        for path in sorted(report.files):
            print(f"fixed {report.files[path]} finding(s) in {path}")
        if report.files:
            findings = run_lint(
                lint_targets,
                rules=rules,
                baseline=baseline,
                cache_path=args.cache,
            )

    if args.format == "text":
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"{len(findings)} finding(s)")
            return 1
        return 0
    print(render(findings, args.format), end="")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
