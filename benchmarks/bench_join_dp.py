"""Cold join-DP cost on MNSA's probe pattern, with an exact plan digest.

Plans the first 30 U25-C-100 queries (up to 8 tables) the way MNSA costs
a query: unpinned, then with every magic-number variable pinned at ε and
at 1−ε.  Every call is a cold plan search: no plan cache is attached.

``BENCH_join_dp.json`` records:

* ``plan_digest`` — SHA-256 over every plan's signature string, ``cost``
  and ``rows`` as ``float.hex()``, and ``pretty()``.  A string leaf, so
  ``compare_baselines.py`` matches it exactly: any change to the chosen
  plans or their estimates fails the gate.
* ``join_nodes_built`` — ``JoinNode`` constructions, counted by wrapping
  ``JoinNode.__init__`` here rather than with counters in ``src/``.
* ``join_steps_costed`` — join steps priced, counted by wrapping
  ``CostModel.nested_loop_scan``: every step, left-deep, bushy or cross
  product, prices naive nested loops exactly once.
* ``wall_seconds`` — best of 5 uncounted passes (trend-only).

Plain pytest, so it doubles as the CI smoke step::

    PYTHONPATH=src python -m pytest benchmarks/bench_join_dp.py -q
"""

import hashlib
import time

from repro.datagen import make_tpcd_database
from repro.optimizer import OptimizationRequest, Optimizer
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plans import JoinNode
from repro.optimizer.variables import EPSILON
from repro.workload import generate_workload

from benchmarks.conftest import write_bench_json

# fixed rather than read from REPRO_BENCH_*: the digest is exact
SCALE = 0.002
Z = 2.0
SEED = 42
WORKLOAD = "U25-C-100"
QUERIES = 30
REPEATS = 5


def _requests(db):
    queries = generate_workload(db, WORKLOAD).queries()[:QUERIES]
    probe = Optimizer(db)
    requests = []
    for query in queries:
        magic = probe.magic_variables(query)
        requests.append(OptimizationRequest(query))
        for value in (EPSILON, 1.0 - EPSILON):
            pins = {variable: value for variable in magic}
            requests.append(OptimizationRequest(query, overrides=pins))
    return requests


def _plan_all(db, requests):
    optimizer = Optimizer(db)
    return [optimizer.optimize_request(request) for request in requests]


def _digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        for part in (
            str(result.plan.signature()),
            result.cost.hex(),
            result.rows.hex(),
            result.plan.pretty(),
        ):
            digest.update(part.encode())
            digest.update(b"\0")
    return digest.hexdigest()


def _counted_pass(db, requests, monkeypatch):
    """One pass with ``JoinNode.__init__`` and
    ``CostModel.nested_loop_scan`` wrapped by call counters."""
    counts = {"nodes": 0, "steps": 0}
    node_init = JoinNode.__init__
    nested_loop_scan = CostModel.nested_loop_scan

    def counting_init(self, *args, **kwargs):
        counts["nodes"] += 1
        node_init(self, *args, **kwargs)

    def counting_scan(self, *args, **kwargs):
        counts["steps"] += 1
        return nested_loop_scan(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(JoinNode, "__init__", counting_init)
        patch.setattr(CostModel, "nested_loop_scan", counting_scan)
        results = _plan_all(db, requests)
    return results, counts


def test_join_dp_cold_planning(monkeypatch, report):
    db = make_tpcd_database(scale=SCALE, z=Z, seed=SEED)
    requests = _requests(db)
    results, counts = _counted_pass(db, requests, monkeypatch)
    plan_digest = _digest(results)

    walls = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        repeat = _plan_all(db, requests)
        walls.append(time.perf_counter() - started)
        assert _digest(repeat) == plan_digest

    payload = {
        "workload": WORKLOAD,
        "queries": QUERIES,
        "optimize_calls": len(requests),
        "plan_digest": plan_digest,
        "join_nodes_built": counts["nodes"],
        "join_steps_costed": counts["steps"],
        "wall_seconds": round(min(walls), 4),
    }
    write_bench_json("join_dp", payload)
    report.add_section(
        "Join DP — cold planning, first 30 U25-C-100 queries x 3 pins",
        f"{len(requests)} optimize calls: {counts['steps']} join steps "
        f"costed, {counts['nodes']} join nodes built, best of {REPEATS} "
        f"{min(walls):.3f} s",
    )
    # a node per subset winner (plus exact-cost tie-breaks), never one
    # per costed step
    assert 0 < counts["nodes"] < counts["steps"]
