"""Lint-engine performance and hygiene on the repo's own source tree.

Two arms over ``src/`` with all rules (R001-R015) enabled:

* **cold** — no cache: every file rule and every project rule runs,
  including the interprocedural typestate engine behind R012-R015;
* **cached** — a second run against a warm incremental cache must
  execute *zero* rules (pure fingerprint hits).

The payload is trend-gated in CI via ``compare_baselines.py``: the
structural keys (file count, finding count — which must be 0 on our own
tree — rule count, warm-run execution counts) are held to the tolerance
band, while the ``wall_seconds_*`` keys ride along for trend plots but
are exempt from the gate (CI runner speed is not a regression).

Deliberately plain pytest (no ``benchmark`` fixture) so it doubles as
the CI smoke step without pytest-benchmark installed.
"""

import os
import time

import pytest

from repro.analysis.engine import run_lint
from repro.analysis.framework import RULES

from benchmarks.conftest import write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _timed(**kwargs):
    started = time.perf_counter()
    findings = run_lint([SRC], **kwargs)
    return findings, time.perf_counter() - started


@pytest.fixture(scope="module")
def lint_runs(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("lint_bench") / "cache.json")
    cold_stats, warm_stats = {}, {}
    cold, cold_wall = _timed(cache_path=cache, stats=cold_stats)
    warm, warm_wall = _timed(cache_path=cache, stats=warm_stats)
    return {
        "cold": (cold, cold_wall, cold_stats),
        "warm": (warm, warm_wall, warm_stats),
    }


@pytest.fixture(scope="module")
def bench_payload():
    payload = {}
    yield payload
    if payload:
        write_bench_json("lint", payload)


def test_own_tree_is_clean_and_trend_gated(lint_runs, report, bench_payload):
    cold, cold_wall, cold_stats = lint_runs["cold"]
    warm, warm_wall, warm_stats = lint_runs["warm"]
    files = sum(
        name.endswith(".py")
        for _, _, names in os.walk(SRC)
        for name in names
    )
    payload = {
        "files": files,
        "rules": len(RULES),
        "findings": len(cold),
        "cold_file_rule_runs": cold_stats["file_rule_runs"],
        "cold_project_rule_runs": cold_stats["project_rule_runs"],
        "warm_file_rule_runs": warm_stats["file_rule_runs"],
        "warm_project_rule_runs": warm_stats["project_rule_runs"],
        "wall_seconds_cold": round(cold_wall, 4),
        "wall_seconds_cached": round(warm_wall, 4),
        "warm_wall_speedup": round(cold_wall / max(warm_wall, 1e-9), 3),
    }
    bench_payload.update(payload)
    report.add_section(
        "Lint engine — src tree, all rules",
        f"cold {cold_wall:.2f}s -> cached {warm_wall:.2f}s "
        f"({payload['warm_wall_speedup']}x), "
        f"{payload['findings']} finding(s) over {files} files",
    )
    # our own tree lints clean with zero baseline entries
    assert cold == []
    # a warm cache executes nothing: every result is a fingerprint hit
    assert warm_stats["file_rule_runs"] == 0
    assert warm_stats["project_rule_runs"] == 0
    assert warm == cold
