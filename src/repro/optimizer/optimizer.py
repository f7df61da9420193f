"""The optimizer facade: access paths, join enumeration, aggregation.

``Optimizer.optimize_request(OptimizationRequest(query, ...))`` is the
canonical entry point; the request object carries everything the paper's
algorithms need:

* ``overrides`` — the Sec 7.2 extension that feeds MNSA's ε / 1-ε
  pinning of statistics-less selectivity variables;
* ``ignore`` — the ``Ignore_Statistics_Subset`` extension the Shrinking
  Set algorithm uses to obtain ``Plan(Q, S')`` for S' ⊂ S.

``magic_variables(query)`` reports which selectivity variables currently
fall back to magic numbers (step (a) of the Sec 4.1 test).
``optimize(query)`` is shorthand for the default request.

An optional :class:`~repro.optimizer.cache.PlanCache` memoizes results
per request; see that module for the epoch / fingerprint invalidation
contract.

Join enumeration is left-deep dynamic programming (System R): states are
table subsets; each extension joins one more base-table access path using
the cheapest of index nested loops, naive nested loops, hash, and
sort-merge.  Ties break on the plan signature so optimization is fully
deterministic — essential for Execution-Tree equivalence experiments.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.concurrency import guarded_by, plan_source
from repro.config import DEFAULT_CONFIG, OptimizerConfig
from repro.errors import OptimizerError
from repro.optimizer.cache import (
    OptimizationRequest,
    PlanCache,
    statistics_fingerprint,
)
from repro.optimizer.cost_model import CostModel
from repro.optimizer.plans import (
    AggregateNode,
    HavingNode,
    IndexSeekNode,
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    ScanNode,
    SortNode,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.optimizer.variables import (
    GroupByVariable,
    JoinVariable,
    SelectivityVariable,
)
from repro.sql.expressions import Aggregate
from repro.sql.predicates import ComparisonPredicate, Predicate
from repro.sql.query import Query


@dataclass
class OptimizationResult:
    """Outcome of one optimizer call.

    Attributes:
        plan: the chosen physical plan.
        cost: the plan's optimizer-estimated cost — the paper's
            ``Estimated-Cost(Q, S)``.
        rows: estimated output rows.
    """

    plan: PlanNode
    cost: float
    rows: float

    @property
    def signature(self) -> tuple:
        return self.plan.signature()


class Optimizer:
    """Cost-based optimizer over one database.

    Args:
        database: the :class:`~repro.storage.Database` to plan against.
        config: knobs for the cost model and enumeration space.
        cache: optional shared :class:`~repro.optimizer.cache.PlanCache`.
            When present, :meth:`optimize_request` consults it before
            planning; :attr:`call_count` still counts every request (the
            paper's metric is optimizer *invocations*, cached or not) while
            :attr:`cold_optimize_count` counts only actual plan searches.
        corrections: optional :class:`~repro.learned.CorrectionStore`
            applied inside selectivity estimation.  Its monotone version
            is folded into the plan-cache key (see
            :meth:`OptimizationRequest.with_learned_version`) so corrected
            and uncorrected plans never alias in a shared cache.
    """

    # repro-lint: optimize-path
    # repro-lint: plan-state-exempt=_cache: attach-once wiring; attach_cache refuses to swap an existing cache, so entries never migrate between caches

    _call_count = guarded_by("_count_lock")
    _cold_count = guarded_by("_count_lock")
    _corrections = plan_source("version")

    def __init__(
        self,
        database,
        config: OptimizerConfig = DEFAULT_CONFIG,
        cache: Optional[PlanCache] = None,
        corrections=None,
    ) -> None:
        self._db = database
        self._config = config
        self._cost = CostModel(config)
        self._cache = cache
        self._corrections = corrections
        self._count_lock = threading.Lock()
        self._call_count = 0
        self._cold_count = 0

    @property
    def config(self) -> OptimizerConfig:
        return self._config

    @property
    def cache(self) -> Optional[PlanCache]:
        return self._cache

    @property
    def corrections(self):
        """The attached :class:`~repro.learned.CorrectionStore`, if any."""
        return self._corrections

    def attach_cache(self, cache: PlanCache) -> None:
        """Attach a plan cache after construction.

        Raises:
            OptimizerError: if a *different* cache is already attached
                (silently swapping caches would corrupt hit accounting).
        """
        if self._cache is not None and self._cache is not cache:
            raise OptimizerError(
                "optimizer already has a different PlanCache attached"
            )
        self._cache = cache

    @property
    def call_count(self) -> int:
        """Optimizer invocations, cached or not (MNSA charges 3 per
        statistic); incremented atomically so parallel drivers and
        service workers can share one optimizer."""
        with self._count_lock:
            return self._call_count

    @property
    def cold_optimize_count(self) -> int:
        """Requests that missed the cache and ran a full plan search."""
        with self._count_lock:
            return self._cold_count

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def optimize_request(
        self, request: OptimizationRequest
    ) -> OptimizationResult:
        """Choose the cheapest plan for a canonical request.

        With a cache attached, the lookup runs in two tiers: a stats-epoch
        equality fast path, then fingerprint revalidation (see
        :mod:`repro.optimizer.cache`).  The epoch is scoped to the shards
        owning the query's tables
        (:meth:`~repro.stats.manager.StatisticsManager.epoch_for_tables`),
        so statistics churn elsewhere never evicts this entry.  Both the
        epoch and the fingerprint are read *before* planning, so a
        concurrent statistics mutation mid-flight leaves at worst a stale
        entry that fails revalidation — never a wrong plan.

        Degraded requests are statistics-independent by construction, so
        they key under epoch 0 with an empty fingerprint: after the first
        planning they are permanent cache hits that touch no statistics
        lock at all.
        """
        with self._count_lock:
            self._call_count += 1
        if self._cache is None:
            return self._execute_request(request)
        request = self._keyed_request(request)
        if request.degraded:
            epoch = 0
        else:
            epoch = self._db.stats.epoch_for_tables(request.query.tables)
        result = self._cache.get_fresh(request, epoch)
        if result is not None:
            return result
        if request.degraded:
            fingerprint: tuple = ()
        else:
            fingerprint = statistics_fingerprint(
                self._db, request.query, request.ignore
            )
        result = self._cache.get_validated(request, epoch, fingerprint)
        if result is not None:
            return result
        result = self._execute_request(request)
        self._cache.store(request, epoch, fingerprint, result)
        return result

    def optimize(self, query: Query) -> OptimizationResult:
        """Choose the cheapest plan for ``query`` (the default request:
        no pins, nothing ignored)."""
        return self.optimize_request(OptimizationRequest(query))

    def magic_variables(self, query: Query) -> List[SelectivityVariable]:
        """Selectivity variables of ``query`` forced onto magic numbers.

        Deliberately uncorrected: a learned correction does not make a
        statistic exist, and the advisor must keep seeing the same
        missing-variable set either way.
        """
        estimator = SelectivityEstimator(self._db, self._config)
        return estimator.missing_variables(query)

    def _learned_version(self) -> Optional[int]:
        """The correction store's version for cache keying, or ``None``
        when no corrections are attached."""
        if self._corrections is None:
            return None
        return self._corrections.version

    def _keyed_request(
        self, request: OptimizationRequest
    ) -> OptimizationRequest:
        """Fold the learned-component version into the cache key.

        The version is read *before* planning, like the stats epoch: a
        concurrent correction update mid-flight leaves at worst an entry
        keyed under the old version, which the next lookup skips.
        Requests that already carry an explicit ``learned`` component are
        passed through untouched.
        """
        if request.learned is not None:
            return request
        learned = self._learned_version()
        if learned is None:
            return request
        return request.with_learned_version(learned)

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------

    def _execute_request(
        self, request: OptimizationRequest
    ) -> OptimizationResult:
        """Run the actual plan search for a request (cache miss path)."""
        with self._count_lock:
            self._cold_count += 1
        overrides = request.overrides_dict() if request.overrides else None
        use_statistics = not request.degraded
        if request.ignore and use_statistics:
            with self._db.stats.ignore_subset(request.ignore):
                return self._optimize(request.query, overrides)
        return self._optimize(
            request.query, overrides, use_statistics=use_statistics
        )

    def _optimize(
        self, query, overrides, use_statistics: bool = True
    ) -> OptimizationResult:
        estimator = SelectivityEstimator(
            self._db,
            self._config,
            overrides,
            corrections=self._corrections,
            use_statistics=use_statistics,
        )
        best = self._enumerate_joins(query, estimator)
        plan = self._add_aggregation(query, estimator, best)
        plan = self._add_order_by(query, plan)
        return OptimizationResult(plan=plan, cost=plan.cost, rows=plan.rows)

    # ----- base table access paths ------------------------------------

    def _access_paths(
        self, table: str, query: Query, estimator: SelectivityEstimator
    ) -> List[PlanNode]:
        """All candidate access paths for one base table."""
        data = self._db.table(table)
        schema = data.schema
        predicates = query.predicates_of(table)
        filter_sel = estimator.table_filter_selectivity(table, predicates)
        out_rows = data.row_count * filter_sel

        paths: List[PlanNode] = []
        scan_cost = self._cost.table_scan(
            data.row_count, schema.row_width_bytes, len(predicates)
        )
        paths.append(ScanNode(table, predicates, out_rows, scan_cost))

        if self._config.enable_index_paths:
            for seek_pred in predicates:
                if not self._seekable(seek_pred):
                    continue
                index = self._db.indexes.index_on(seek_pred.columns()[0])
                if index is None:
                    continue
                seek_sel = estimator.predicate_selectivity(seek_pred)
                matching = data.row_count * seek_sel
                residual = tuple(
                    p for p in predicates if p is not seek_pred
                )
                cost = self._cost.index_seek(matching, len(residual))
                paths.append(
                    IndexSeekNode(
                        table, index.name, seek_pred, residual, out_rows, cost
                    )
                )
        return paths

    @staticmethod
    def _seekable(predicate: Predicate) -> bool:
        """Predicates our sorted indexes can seek on."""
        from repro.sql.predicates import BetweenPredicate, InPredicate

        if isinstance(predicate, ComparisonPredicate):
            return predicate.op in ("=", "<", "<=", ">", ">=")
        return isinstance(predicate, (BetweenPredicate, InPredicate))

    def _best_access_path(self, table, query, estimator) -> PlanNode:
        paths = self._access_paths(table, query, estimator)
        return min(paths, key=lambda p: (p.cost, str(p.signature())))

    # ----- join enumeration -------------------------------------------

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
            raise OptimizerError(f"no join order found for tables {tables}")
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

    # ----- aggregation and ordering -----------------------------------

    def _add_aggregation(
        self, query: Query, estimator: SelectivityEstimator, plan: PlanNode
    ) -> PlanNode:
        if not query.has_aggregation:
            return plan
        aggregates = query.all_aggregates()
        if not query.group_by:
            groups = 1.0
            cost = plan.cost + self._cost.hash_aggregate(plan.rows, groups)
            return AggregateNode(plan, (), aggregates, groups, cost)

        groups = 1.0
        for table in query.tables:
            cols = query.group_by_columns_of(table)
            if not cols:
                continue
            variable = GroupByVariable(
                table, tuple(ref.column for ref in cols)
            )
            fraction = estimator.group_by_fraction(variable)
            groups *= max(1.0, fraction * self._db.row_count(table))
        groups = min(groups, max(1.0, plan.rows))

        # hash aggregation pays a downstream sort for ORDER BY; stream
        # aggregation pays an upstream sort but delivers grouped order.
        # The choice hinges on the *estimated* group count, making it
        # statistics-sensitive.
        hash_plan = AggregateNode(
            plan,
            query.group_by,
            aggregates,
            groups,
            plan.cost + self._cost.hash_aggregate(plan.rows, groups),
            method="hash",
        )
        hash_full = self._add_order_by(
            query, self._add_having(query, hash_plan)
        )
        stream_plan = AggregateNode(
            plan,
            query.group_by,
            aggregates,
            groups,
            plan.cost + self._cost.stream_aggregate(plan.rows, groups),
            method="stream",
        )
        stream_full = self._add_order_by(
            query, self._add_having(query, stream_plan)
        )
        best = (
            stream_full
            if self._better(stream_full, hash_full)
            else hash_full
        )
        # mark so the caller does not add ORDER BY twice
        best._order_by_applied = True
        return best

    def _add_having(self, query: Query, plan: PlanNode) -> PlanNode:
        """Group filter after aggregation.

        HAVING selectivity cannot come from base-table statistics, so it
        is costed with the corresponding magic numbers and introduces no
        selectivity variable.
        """
        if not query.having:
            return plan
        magic = self._config.magic
        selectivity = 1.0
        for condition in query.having:
            if condition.op == "=":
                selectivity *= magic.equality
            elif condition.op == "<>":
                selectivity *= magic.inequality
            else:
                selectivity *= magic.range_
        rows = plan.rows * selectivity
        cost = plan.cost + plan.rows * (
            len(query.having) * self._config.cost.cpu_compare_cost
        )
        return HavingNode(plan, query.having, rows, cost)

    def _order_by_satisfied(self, query: Query, plan: PlanNode) -> bool:
        """True if ``plan`` already delivers the requested order."""
        if isinstance(plan, HavingNode):
            return self._order_by_satisfied(query, plan.child)
        if isinstance(plan, AggregateNode) and plan.method == "stream":
            prefix = plan.group_by[: len(query.order_by)]
            return tuple(query.order_by) == prefix
        return False

    def _add_order_by(self, query: Query, plan: PlanNode) -> PlanNode:
        if getattr(plan, "_order_by_applied", False):
            return plan
        if not query.order_by or plan.rows <= 1.0:
            return plan
        if self._order_by_satisfied(query, plan):
            return plan
        cost = plan.cost + self._cost.sort(plan.rows)
        return SortNode(plan, query.order_by, cost)
