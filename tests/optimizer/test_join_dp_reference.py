"""Differential test: the join-graph DP against the frozenset DP it replaced.

:class:`_ReferenceOptimizer` keeps a verbatim copy of the earlier System R
enumeration (``frozenset`` states, ``query.joins_between`` rescans, one
``JoinNode`` per candidate algorithm, ``str(signature())`` tie-breaks).  It
exists only here, as the oracle: every case asserts that
:class:`~repro.optimizer.Optimizer` returns a plan with the same signature,
bit-identical cost and rows, and the same ``pretty()`` rendering.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, FrozenSet, List, Optional

import pytest

from repro.catalog import ColumnRef
from repro.config import DEFAULT_CONFIG
from repro.datagen import make_tpcd_database
from repro.optimizer import OptimizationRequest, Optimizer
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plans import (
    IndexSeekNode,
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import EPSILON, JoinVariable
from repro.sql.predicates import ComparisonPredicate, JoinPredicate
from repro.sql.query import Query
from repro.stats.statistic import StatKey
from repro.workload import generate_workload

SCALE = 0.002
SEEDS = (42, 1729)
WORKLOADS = ("U25-C-40", "U25-S-100")
MODES = ("plain", "pin_eps", "pin_one_minus_eps", "ignore", "degraded")


class _ReferenceOptimizer(Optimizer):
    """The left-deep + bushy DP over ``frozenset`` table subsets, as it
    was before the join-graph rewrite (test-only reference)."""

    def _best_access_path(self, table, query, estimator) -> PlanNode:
        paths = self._access_paths(table, query, estimator)
        return min(paths, key=lambda p: (p.cost, str(p.signature())))

    def _enumerate_joins(
        self, query: Query, estimator: SelectivityEstimator
    ) -> PlanNode:
        tables = list(query.tables)
        access: Dict[str, PlanNode] = {
            t: self._best_access_path(t, query, estimator) for t in tables
        }
        if len(tables) == 1:
            return access[tables[0]]

        # dp over table subsets; left-deep extensions only
        dp: Dict[FrozenSet[str], PlanNode] = {
            frozenset((t,)): access[t] for t in tables
        }
        for size in range(2, len(tables) + 1):
            for combo in itertools.combinations(tables, size):
                subset = frozenset(combo)
                best = self._best_extension(
                    subset, dp, access, query, estimator, allow_cartesian=False
                )
                if self._config.enable_bushy_joins:
                    bushy = self._best_bushy(
                        subset, dp, query, estimator
                    )
                    if bushy is not None and (
                        best is None or self._better(bushy, best)
                    ):
                        best = bushy
                if best is None:
                    # disconnected join graph: fall back to a cross product
                    best = self._best_extension(
                        subset,
                        dp,
                        access,
                        query,
                        estimator,
                        allow_cartesian=True,
                    )
                if best is not None:
                    dp[subset] = best
        final = dp.get(frozenset(tables))
        if final is None:
            raise AssertionError(f"no join order found for tables {tables}")
        return final

    def _best_extension(
        self,
        subset: FrozenSet[str],
        dp,
        access,
        query: Query,
        estimator: SelectivityEstimator,
        allow_cartesian: bool,
    ) -> Optional[PlanNode]:
        """Cheapest left-deep plan for ``subset`` (one extension step)."""
        best: Optional[PlanNode] = None
        for inner in sorted(subset):
            rest = subset - {inner}
            left = dp.get(rest)
            if left is None:
                continue
            joins = query.joins_between(rest, (inner,))
            if not joins and not allow_cartesian:
                continue
            candidate = self._best_join(left, access[inner], joins, estimator)
            if best is None or self._better(candidate, best):
                best = candidate
        return best

    @staticmethod
    def _better(a: PlanNode, b: PlanNode) -> bool:
        """Deterministic plan comparison: cost, then signature."""
        if a.cost != b.cost:
            return a.cost < b.cost
        return str(a.signature()) < str(b.signature())

    def _best_bushy(
        self,
        subset: FrozenSet[str],
        dp,
        query: Query,
        estimator: SelectivityEstimator,
    ) -> Optional[PlanNode]:
        """Cheapest bushy decomposition of ``subset`` into two joined
        sub-plans of size >= 2 each (left-deep shapes are handled by
        ``_best_extension``; considering both here would double work)."""
        if len(subset) < 4:
            return None
        members = sorted(subset)
        best: Optional[PlanNode] = None
        # enumerate one side; fix members[0] on the left to halve the work
        others = members[1:]
        for size in range(1, len(others)):
            for combo in itertools.combinations(others, size):
                left_set = frozenset((members[0],) + combo)
                right_set = subset - left_set
                if len(left_set) < 2 or len(right_set) < 2:
                    continue
                left = dp.get(left_set)
                right = dp.get(right_set)
                if left is None or right is None:
                    continue
                joins = query.joins_between(left_set, right_set)
                if not joins:
                    continue
                candidate = self._best_join(left, right, joins, estimator)
                if best is None or self._better(candidate, best):
                    best = candidate
        return best

    def _join_selectivity(
        self, joins, estimator: SelectivityEstimator
    ) -> float:
        """Combined selectivity of join predicates (grouped per pair)."""
        if not joins:
            return 1.0
        groups: Dict[tuple, list] = {}
        for join in joins:
            pair = tuple(sorted(join.tables()))
            groups.setdefault(pair, []).append(join)
        selectivity = 1.0
        for _, preds in sorted(groups.items()):
            variable = JoinVariable(tuple(preds))
            selectivity *= estimator.join_group_selectivity(variable)
        return selectivity

    def _best_join(
        self,
        left: PlanNode,
        right: PlanNode,
        joins,
        estimator: SelectivityEstimator,
    ) -> PlanNode:
        """Cheapest algorithm for joining ``left`` with base-path ``right``."""
        selectivity = self._join_selectivity(joins, estimator)
        out_rows = max(0.0, left.rows * right.rows * selectivity)
        children_cost = left.cost + right.cost
        candidates: List[PlanNode] = []

        if self._config.enable_hash_join and joins:
            build_rows = min(left.rows, right.rows)
            probe_rows = max(left.rows, right.rows)
            build_side = "right" if right.rows <= left.rows else "left"
            cost = children_cost + self._cost.hash_join(
                build_rows, probe_rows, out_rows
            )
            candidates.append(
                JoinNode(
                    JoinAlgorithm.HASH,
                    left,
                    right,
                    joins,
                    out_rows,
                    cost,
                    build_side=build_side,
                )
            )

        if self._config.enable_merge_join and joins:
            cost = children_cost + self._cost.merge_join(
                left.rows, right.rows, out_rows
            )
            candidates.append(
                JoinNode(
                    JoinAlgorithm.MERGE, left, right, joins, out_rows, cost
                )
            )

        # index nested loops: seek the inner table's join column per outer row
        inner_index = self._usable_inner_index(right, joins)
        if inner_index is not None:
            matches_per_outer = (
                right.rows * selectivity if left.rows > 0 else 0.0
            )
            cost = left.cost + self._cost.nested_loop_index(
                left.rows, matches_per_outer
            )
            candidates.append(
                JoinNode(
                    JoinAlgorithm.NESTED_LOOP_INDEX,
                    left,
                    right,
                    joins,
                    out_rows,
                    cost,
                    inner_index=inner_index,
                )
            )

        # naive nested loops (also the only option for cartesian products)
        rescan_cost = right.cost  # re-derive the inner side per outer row
        cost = left.cost + self._cost.nested_loop_scan(
            max(1.0, left.rows), rescan_cost
        )
        candidates.append(
            JoinNode(
                JoinAlgorithm.NESTED_LOOP_SCAN,
                left,
                right,
                joins,
                out_rows,
                cost,
            )
        )

        best = candidates[0]
        for candidate in candidates[1:]:
            if self._better(candidate, best):
                best = candidate
        return best

    def _usable_inner_index(self, right: PlanNode, joins) -> Optional[str]:
        """Name of an index on the inner side's join column, if usable.

        Index nested loops requires the inner side to be a bare base table
        (we seek instead of using its access path) with an index on one of
        the join columns.
        """
        if not joins:
            return None
        if not isinstance(right, (ScanNode, IndexSeekNode)):
            return None
        table = right.tables()[0]
        if not self._config.enable_index_paths:
            return None
        for join in joins:
            try:
                inner_col = join.side_for(table)
            except ValueError:
                continue
            index = self._db.indexes.index_on(inner_col)
            if index is not None:
                return index.name
        return None


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


def _prepare(db, queries) -> List[StatKey]:
    """Give ``db`` some statistics and indexes so estimates mix
    histograms, densities and magic numbers, and index nested loops
    competes; returns the created statistic keys."""
    join_columns: List[ColumnRef] = []
    selection_columns: List[ColumnRef] = []
    for query in queries:
        for join in query.joins:
            for ref in join.columns():
                if ref not in join_columns:
                    join_columns.append(ref)
        for pred in query.predicates:
            for ref in pred.columns():
                if ref not in selection_columns:
                    selection_columns.append(ref)
    for i, ref in enumerate(join_columns[::3]):
        db.indexes.create_index(f"ix_dp_{i}", ref)
    keys = []
    for ref in join_columns[::2] + selection_columns[::2]:
        key = StatKey.single(ref)
        if not db.stats.has(key):
            db.stats.create(key)
            keys.append(key)
    return keys


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def prepared(request):
    """Per seed: a TPC-D database with statistics and indexes, the
    queries of both workloads, and the created statistic keys."""
    db = make_tpcd_database(scale=SCALE, z=2.0, seed=request.param)
    workloads = {
        name: generate_workload(db, name, seed=request.param).queries()
        for name in WORKLOADS
    }
    keys = _prepare(db, [q for qs in workloads.values() for q in qs])
    return db, workloads, keys


def _request(mode: str, optimizer: Optimizer, query: Query, keys):
    if mode == "plain":
        return OptimizationRequest(query)
    if mode in ("pin_eps", "pin_one_minus_eps"):
        value = EPSILON if mode == "pin_eps" else 1.0 - EPSILON
        pins = {v: value for v in optimizer.magic_variables(query)}
        return OptimizationRequest(query, overrides=pins)
    if mode == "ignore":
        return OptimizationRequest(query, ignore=keys[1::2])
    return OptimizationRequest(query, degraded=True)


def _assert_same_plan(db, config, request) -> None:
    expected = _ReferenceOptimizer(db, config).optimize_request(request)
    actual = Optimizer(db, config).optimize_request(request)
    assert actual.plan.signature() == expected.plan.signature()
    assert actual.plan.signature_str() == str(expected.plan.signature())
    assert actual.cost.hex() == expected.cost.hex()
    assert actual.rows.hex() == expected.rows.hex()
    assert actual.plan.pretty() == expected.plan.pretty()


def _config(bushy: bool):
    return dataclasses.replace(DEFAULT_CONFIG, enable_bushy_joins=bushy)


# ----------------------------------------------------------------------
# the differential cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bushy", (False, True), ids=("leftdeep", "bushy"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_plans_match_reference(prepared, workload, bushy, mode):
    db, workloads, keys = prepared
    config = _config(bushy)
    probe = Optimizer(db, config)
    for query in workloads[workload]:
        _assert_same_plan(db, config, _request(mode, probe, query, keys))


HAND_BUILT = {
    "single_table": lambda: Query(
        tables=("customer",),
        predicates=(
            ComparisonPredicate(ColumnRef("customer", "c_acctbal"), ">", 0.0),
        ),
    ),
    # two connected components: customer-orders and nation-region
    "disconnected": lambda: Query(
        tables=("orders", "nation", "customer", "region"),
        joins=(
            JoinPredicate(
                ColumnRef("orders", "o_custkey"),
                ColumnRef("customer", "c_custkey"),
            ),
            JoinPredicate(
                ColumnRef("nation", "n_regionkey"),
                ColumnRef("region", "r_regionkey"),
            ),
        ),
    ),
    # no join predicate at all: every step is a cross product
    "cartesian": lambda: Query(tables=("region", "nation", "supplier")),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bushy", (False, True), ids=("leftdeep", "bushy"))
@pytest.mark.parametrize("shape", sorted(HAND_BUILT))
def test_hand_built_plans_match_reference(prepared, shape, bushy, mode):
    db, _, keys = prepared
    config = _config(bushy)
    query = HAND_BUILT[shape]()
    _assert_same_plan(
        db, config, _request(mode, Optimizer(db, config), query, keys)
    )


@pytest.mark.parametrize("bushy", (False, True), ids=("leftdeep", "bushy"))
def test_exact_cost_ties_break_on_signature(prepared, bushy, monkeypatch):
    """Flat costs make every access path cost 1 and every join of k
    tables cost k, whatever the order or algorithm, so each DP step and
    each extension ties exactly; only the signature string decides."""
    db, workloads, _ = prepared

    def _one(self, *args):
        return 1.0

    def _free(self, *args):
        return 0.0

    def _rescan_once(self, outer_rows, inner_scan_cost):
        return inner_scan_cost

    monkeypatch.setattr(CostModel, "table_scan", _one)
    monkeypatch.setattr(CostModel, "index_seek", _one)
    monkeypatch.setattr(CostModel, "hash_join", _free)
    monkeypatch.setattr(CostModel, "merge_join", _free)
    monkeypatch.setattr(CostModel, "nested_loop_index", _one)
    monkeypatch.setattr(CostModel, "nested_loop_scan", _rescan_once)
    config = _config(bushy)
    multi_table = [q for q in workloads["U25-C-40"] if len(q.tables) >= 3]
    assert multi_table
    for query in multi_table[:10] + [HAND_BUILT["disconnected"]()]:
        _assert_same_plan(db, config, OptimizationRequest(query))
