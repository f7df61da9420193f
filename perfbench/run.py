"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tune-offline --seed 42 --seconds 27 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` drives half as
many instances, each once untraced and once with layer-boundary spans, and
prints the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  The exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads, the metrics and what each layer
metric is predicted to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: the seed claims are developed on, and one kept back to re-check them
DEFAULT_SEED = 42
HELD_OUT_SEED = 1729

#: seconds one instance of each workload takes on the reference machine
#: (2 vCPU, CPython 3.11); a run drives ``round(seconds / this)``
#: instances, so the work done depends on ``--seconds`` alone and never on
#: how fast the code under test happens to be
INSTANCE_SECONDS = {
    "tune-offline": 4.0,
    "advise-online": 2.3,
    "serve-mixed": 2.6,
}
MIN_INSTANCES = 2

#: milliseconds ``probe_ms()`` takes on the reference machine in a calm
#: spell.  The probe runs before and after every instance; its time over
#: this is the instance's slowdown, by which the reported times are
#: divided and the rates multiplied, because on a shared machine the same
#: inputs run 20-30% slower from one minute to the next (README.md).
REFERENCE_PROBE_MS = 5.0

#: counts that must repeat exactly for one seed (advisor workloads)
EXACT = ("tune-offline", "advise-online")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCE_SECONDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, Tally, instance_seeds

    run = WORKLOADS[args.workload]
    count = round(args.seconds / INSTANCE_SECONDS[args.workload])
    if args.trace:
        # each instance is driven twice, so half of them fill the same time
        count = round(count / 2)
    count = max(MIN_INSTANCES, count)
    plain = Tally()
    traced = Tally()
    tracer = Tracer() if args.trace else None
    checks = []
    for index in range(count):
        seeds = instance_seeds(args.seed, index)
        # traced and untraced take turns going first, so drift in the
        # machine's speed does not land on one side of the overhead
        sides = [(plain, None)]
        if tracer is not None:
            sides.append((traced, tracer))
            if index % 2:
                sides.reverse()
        for tally, spans in sides:
            recorded = len(tally.instances)
            before = probe_ms()
            try:
                checks.append((tally, seeds, run(seeds, tally, spans)))
            except Exception:  # a crashed instance fails the run, loudly
                tally.attempted += 1
                tally.fail(f"instance {seeds} raised:\n{traceback.format_exc()}")
            if len(tally.instances) > recorded:
                tally.instances[-1]["slowdown"] = (
                    (before + probe_ms()) / 2 / REFERENCE_PROBE_MS
                )
    # read before the checks: their reference replays plan without
    # statistics and can take far more memory than the product did
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for tally, seeds, check in checks:
        try:
            check()
        except Exception:
            tally.attempted += 1
            tally.fail(f"check of instance {seeds} raised:\n{traceback.format_exc()}")

    if not plain.instances or (tracer is not None and not traced.instances):
        for problem in plain.problems + traced.problems:
            print(f"FAIL {problem}")
        print("error: no instance completed, so there is nothing to report", file=sys.stderr)
        return 1
    check_counts(args, count, plain, traced if tracer is not None else None)
    end_to_end = end_to_end_metrics(plain, peak_rss_mb)
    print(
        f"workload {args.workload}, seed {args.seed}: {count} instance(s), "
        f"(data seed, workload seed) {instance_seeds(args.seed, 0)} .. "
        f"{instance_seeds(args.seed, count - 1)}, trace {args.trace}"
    )
    print_metrics("end-to-end (untraced, adjusted to the reference machine)", end_to_end)
    print_metrics("end-to-end (untraced, raw)", end_to_end_metrics(plain, peak_rss_mb, False))
    for index, record in enumerate(plain.instances):
        figures = {k: v for k, v in record.items() if not k.endswith("_ms")}
        print(f"  instance {index}: " + json.dumps(figures))
    queries = sum(len(r["query_ms"]) for r in plain.instances)
    print(
        f"  query latencies: {queries} samples, "
        f"{queries - 1 - p99_rank(range(queries))} beyond p99; "
        f"dml latencies: {sum(len(r['dml_ms']) for r in plain.instances)} samples"
    )
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"  failed_ops_frac {failed / max(1, attempted)!r} ({failed} of {attempted})")
    print("  counts:", json.dumps({k: plain.counts[k] for k in sorted(plain.counts)}))
    metrics = end_to_end
    if tracer is not None:
        metrics = per_layer_metrics(plain, traced, tracer)
        print_metrics("per-layer (traced)", metrics)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        print(f"  {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    for problem in plain.problems + traced.problems:
        print(f"FAIL {problem}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes now (median of 5)."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        times.append((time.perf_counter() - began) * 1e3)
    return statistics.median(times)


def p99_rank(samples) -> int:
    """Nearest-rank index of the 99th percentile in sorted ``samples``."""
    return max(0, -(-99 * len(samples) // 100) - 1)


def trimmed_mean(tally, name) -> float:
    """Mean over instances without the highest and the lowest one (once a
    run has more than four), so one instance whose data flips a plan does
    not swing the run."""
    values = sorted(record[name] for record in tally.instances)
    if len(values) > 4:
        values = values[1:-1]
    return statistics.fmean(values)


def end_to_end_metrics(tally, peak_rss_mb, adjust=True):
    """The end-to-end metrics of a run.

    Times are divided, and rates multiplied, by the slowdown the probe
    measured around their instance (``adjust=False`` gives the raw
    figures).  Set-up time and throughput are medians over the run's
    instances, so a slow spell that the probe misses still moves one
    instance and not the run.  Latency percentiles pool every sample of the
    run.  The costs and the kept statistics are trimmed means per instance:
    they are nearly deterministic, and a median over instances of unlike
    statement shapes would jump between them.
    """

    def slowdown(record):
        return record["slowdown"] if adjust else 1.0

    def latencies(name):
        return sorted(
            value / slowdown(record)
            for record in tally.instances
            for value in record[name]
        )

    queries = latencies("query_ms")
    return {
        "setup_s": (
            statistics.median(r["setup_s"] / slowdown(r) for r in tally.instances),
            "s",
        ),
        "throughput_stmt_s": (
            statistics.median(
                r["throughput_stmt_s"] * slowdown(r) for r in tally.instances
            ),
            "stmt/s",
        ),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_p99_ms": (queries[p99_rank(queries)], "ms"),
        "dml_p50_ms": (statistics.median(latencies("dml_ms")), "ms"),
        "creation_cost": (trimmed_mean(tally, "creation_cost"), "work"),
        "execution_cost": (trimmed_mean(tally, "execution_cost"), "work"),
        "stats_kept": (trimmed_mean(tally, "stats_kept"), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(plain, traced, tracer):
    from tracing import LAYERS, mean_ms, median_ms

    layers, total = tracer.self_seconds()
    c = traced.counts
    total = total or 1.0

    def ratio(num, den):
        return num / den if den else 0.0

    def timer_ms(name):
        return ratio(c.get(f"{name}_seconds", 0.0), c.get(f"{name}_count", 0.0)) * 1e3

    metrics = {
        # the client's calls: median per call
        "sql.parse_bind_ms": (median_ms(tracer.durations("sql.parse_bind")), "ms"),
        "service.submit_ms": (median_ms(tracer.durations("service.submit")), "ms"),
        # inner layer calls: mean per call, so that calls x mean is the
        # layer's time (their medians hide the few calls that cost most)
        "optimizer.optimize_ms": (mean_ms(tracer.durations("optimizer.optimize")), "ms"),
        "optimizer.magic_variables_ms": (
            mean_ms(tracer.durations("optimizer.magic_variables")),
            "ms",
        ),
        "optimizer.calls": (c["optimizer.calls"], "count"),
        "optimizer.cold_calls": (c["optimizer.cold_calls"], "count"),
        "optimizer.cache_hit_ratio": (
            ratio(
                c["optimizer.cache_hits"],
                c["optimizer.cache_hits"] + c["optimizer.cache_misses"],
            ),
            "ratio",
        ),
        "optimizer.cache_revalidations": (c["optimizer.cache_revalidations"], "count"),
        "optimizer.cache_evictions": (c["optimizer.cache_evictions"], "count"),
        "stats.create_ms": (mean_ms(tracer.durations("stats.create")), "ms"),
        "stats.creates": (
            c.get("advisor.stats_created", tracer.count("stats.create")),
            "count",
        ),
        "stats.drop_listed": (
            c.get("advisor.stats_drop_listed", tracer.count("stats.mark_droppable")),
            "count",
        ),
        "stats.dropped": (c["stats.dropped"], "count"),
        "stats.refreshes": (c["stats.refreshes"], "count"),
        "core.shrink_memo_hit_ratio": (
            ratio(
                c.get("core.shrink_memo_hits", 0.0),
                c.get("core.shrink_memo_hits", 0.0)
                + c.get("core.shrink_optimizer_calls", 0.0),
            ),
            "ratio",
        ),
        "core.kept_per_created": (ratio(c["core.kept"], c["stats.created"]), "ratio"),
        "executor.execute_ms": (mean_ms(tracer.durations("executor.execute")), "ms"),
        "service.query_ms": (timer_ms("service.query"), "ms"),
        "service.dml_ms": (timer_ms("service.dml"), "ms"),
        "service.advisor_busy_frac": (
            ratio(c.get("advisor.seconds", 0.0), c.get("timed_seconds", 0.0)),
            "ratio",
        ),
        "service.monitor_refreshes": (c.get("monitor.refreshes", 0.0), "count"),
        "service.advisor_events": (c.get("advisor.events", 0.0), "count"),
        "service.advisor_stats_created": (c.get("advisor.stats_created", 0.0), "count"),
        "service.advisor_optimizer_calls": (
            c.get("advisor.optimizer_calls", 0.0),
            "count",
        ),
        "service.capture_evicted": (c.get("capture.evicted", 0.0), "count"),
        "service.degraded": (c.get("service.degraded", 0.0), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (layers.get(layer, 0.0) / total, "ratio")
    untraced = end_to_end_metrics(plain, 0.0)
    with_spans = end_to_end_metrics(traced, 0.0)
    rate = untraced["throughput_stmt_s"][0]
    metrics["trace.overhead_throughput_frac"] = (
        (rate - with_spans["throughput_stmt_s"][0]) / rate,
        "ratio",
    )
    p50 = untraced["query_p50_ms"][0]
    metrics["trace.overhead_p50_frac"] = (
        (with_spans["query_p50_ms"][0] - p50) / p50,
        "ratio",
    )
    return metrics


def print_metrics(title, metrics) -> None:
    print(f"{title}:")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")


def source_digest() -> str:
    """Digest of the product and benchmark sources, so recorded counts are
    only compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts(args, count, plain, traced) -> None:
    """On the advisor workloads, every work count and statistic set must
    repeat exactly: between the traced and untraced drive of the same
    instances, and across runs of one seed on the same code (recorded
    under perfbench/out/)."""
    if args.workload not in EXACT:
        return
    current = dict(plain.counts)
    current["digests"] = "|".join(plain.digests)
    if traced is not None:
        mirror = dict(traced.counts)
        mirror["digests"] = "|".join(traced.digests)
        for name in sorted(current):
            if mirror.get(name) != current[name]:
                plain.fail(
                    f"count {name} differs between the traced and untraced "
                    f"drive of the same instances: {mirror.get(name)!r} vs "
                    f"{current[name]!r}"
                )
    OUT.mkdir(exist_ok=True)
    record = OUT / f"counts-{args.workload}-seed{args.seed}-n{count}.json"
    source = source_digest()
    if record.is_file():
        earlier = json.loads(record.read_text())
        if earlier.get("source") == source:
            for name, value in earlier["counts"].items():
                if name in current and current[name] != value:
                    plain.fail(
                        f"count {name} is {current[name]!r}, an earlier run "
                        f"of this seed on the same code gave {value!r}"
                    )
            print(f"  counts compared with an earlier run: {record.relative_to(ROOT)}")
    record.write_text(json.dumps({"source": source, "counts": current}, indent=1))


if __name__ == "__main__":
    sys.exit(main())
