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

Join enumeration is System R dynamic programming over a join graph built
once per plan search (``_JoinGraph``).  Tables are bit positions in
sorted-name order and DP states are ``int`` masks, visited in ascending
order so every sub-plan is ready before the subsets built from it.  The
graph holds per-table adjacency masks and each joined pair's selectivity,
estimated once.  A step joins one more base-table access path
(left-deep) or, with ``enable_bushy_joins``, two sub-plans of two or
more tables each.  Each step is costed as plain floats for hash,
sort-merge, index nested loops and naive nested loops, and only the
subset's winning step becomes a :class:`JoinNode`.  Ties are
deterministic, which Execution-Tree equivalence experiments need:

* within one step an exact cost tie goes to the earlier algorithm in
  that list, which is also how their signature strings compare;
* across steps an exact cost tie goes to the smaller signature string
  (:func:`~repro.optimizer.plans.better_plan`); only then are the tied
  steps' nodes built.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

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
    better_plan,
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
        return min(paths, key=lambda p: (p.cost, p.signature_str()))

    # ----- join enumeration -------------------------------------------

    def _enumerate_joins(
        self, query: Query, estimator: SelectivityEstimator
    ) -> PlanNode:
        access = {
            t: self._best_access_path(t, query, estimator)
            for t in query.tables
        }
        if len(query.tables) == 1:
            return access[query.tables[0]]
        graph = _JoinGraph(query, estimator, self._inner_index_of)
        # dp[mask] is the best plan for the tables in ``mask``; every
        # proper sub-mask of a mask is numerically smaller, so ascending
        # masks see each subset's sub-plans before the subset itself
        dp: list = [None] * (1 << len(graph.names))
        for i, name in enumerate(graph.names):
            dp[1 << i] = access[name]
        for mask in range(3, len(dp)):
            if not mask & (mask - 1):
                continue  # a single table: its access path
            best = self._best_extension(mask, dp, graph, allow_cartesian=False)
            if self._config.enable_bushy_joins:
                bushy = self._best_bushy(mask, dp, graph)
                if bushy is not None and (
                    best is None or self._step_wins(bushy, best, dp, graph)
                ):
                    best = bushy
            if best is None:
                # disconnected join graph: fall back to a cross product
                best = self._best_extension(
                    mask, dp, graph, allow_cartesian=True
                )
            dp[mask] = self._build_step(best, dp, graph)
        return dp[-1]

    def _best_extension(
        self, mask: int, dp, graph: _JoinGraph, allow_cartesian: bool
    ) -> Optional[tuple]:
        """Cheapest left-deep step for ``mask``: some sub-plan joined
        with one more base-table access path, inner tables tried in
        ascending bit (= sorted name) order."""
        best: Optional[tuple] = None
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            inner = low.bit_length() - 1
            rest = mask ^ low
            connected = graph.adjacency[inner] & rest
            if not connected and not allow_cartesian:
                continue
            step = self._cheapest_join(
                rest,
                low,
                dp,
                graph.extension_selectivity(inner, connected),
                bool(connected),
                graph.inner_index(inner, rest),
            )
            if best is None or self._step_wins(step, best, dp, graph):
                best = step
        return best

    def _best_bushy(
        self, mask: int, dp, graph: _JoinGraph
    ) -> Optional[tuple]:
        """Cheapest bushy step for ``mask``: two joined sub-plans of size
        >= 2 each (left-deep shapes are handled by ``_best_extension``;
        considering both here would double work)."""
        members = [1 << i for i in range(len(graph.names)) if mask >> i & 1]
        if len(members) < 4:
            return None
        best: Optional[tuple] = None
        # enumerate one side; fix the lowest member on the left to halve
        # the work, and keep both sides at two or more tables
        first, others = members[0], members[1:]
        for size in range(1, len(others) - 1):
            for combo in itertools.combinations(others, size):
                left_mask = first | sum(combo)
                right_mask = mask ^ left_mask
                if not graph.neighbors[left_mask] & right_mask:
                    continue
                step = self._cheapest_join(
                    left_mask,
                    right_mask,
                    dp,
                    graph.selectivity_between(left_mask, right_mask),
                    True,
                    None,
                )
                if best is None or self._step_wins(step, best, dp, graph):
                    best = step
        return best

    def _cheapest_join(
        self,
        left_mask: int,
        right_mask: int,
        dp,
        selectivity: float,
        connected: bool,
        inner_index: Optional[str],
    ) -> tuple:
        """Cheapest algorithm for joining ``dp[left_mask]`` with
        ``dp[right_mask]``, compared on cost floats alone.

        Returns the step ``(cost, left_mask, right_mask, algorithm, rows,
        inner_index, build_side)``; :meth:`_build_step` makes it a
        :class:`JoinNode`.  Candidates are tried as hash, merge, index
        nested loops, naive nested loops, and only a strictly cheaper one
        replaces the best: on an exact cost tie the earlier one wins,
        which is how their signature strings compare.  ``inner_index``
        is only set when the right side is a base-table access path.
        """
        left, right = dp[left_mask], dp[right_mask]
        out_rows = max(0.0, left.rows * right.rows * selectivity)
        # (cost, algorithm, inner_index, build_side), in tie-break order
        candidates: List[tuple] = []
        if connected:
            children_cost = left.cost + right.cost
            if self._config.enable_hash_join:
                build_side = "right" if right.rows <= left.rows else "left"
                cost = children_cost + self._cost.hash_join(
                    min(left.rows, right.rows),
                    max(left.rows, right.rows),
                    out_rows,
                )
                candidates.append((cost, JoinAlgorithm.HASH, None, build_side))
            if self._config.enable_merge_join:
                cost = children_cost + self._cost.merge_join(
                    left.rows, right.rows, out_rows
                )
                candidates.append((cost, JoinAlgorithm.MERGE, None, "right"))
            # index nested loops: seek the inner table's join column per
            # outer row
            if inner_index is not None:
                matches_per_outer = (
                    right.rows * selectivity if left.rows > 0 else 0.0
                )
                cost = left.cost + self._cost.nested_loop_index(
                    left.rows, matches_per_outer
                )
                candidates.append(
                    (
                        cost,
                        JoinAlgorithm.NESTED_LOOP_INDEX,
                        inner_index,
                        "right",
                    )
                )
        # naive nested loops (also the only option for cartesian
        # products), re-deriving the inner side per outer row
        cost = left.cost + self._cost.nested_loop_scan(
            max(1.0, left.rows), right.cost
        )
        candidates.append((cost, JoinAlgorithm.NESTED_LOOP_SCAN, None, "right"))
        best = candidates[0]
        for candidate in candidates[1:]:
            if candidate[0] < best[0]:
                best = candidate
        cost, algorithm, index, build_side = best
        return (
            cost, left_mask, right_mask, algorithm, out_rows, index, build_side
        )

    def _step_wins(self, step: tuple, best: tuple, dp, graph) -> bool:
        """:func:`better_plan` on two steps of one subset; join nodes are
        built only to break an exact cost tie."""
        if step[0] != best[0]:
            return step[0] < best[0]
        return better_plan(
            self._build_step(step, dp, graph),
            self._build_step(best, dp, graph),
        )

    @staticmethod
    def _build_step(step: tuple, dp, graph: _JoinGraph) -> JoinNode:
        cost, left_mask, right_mask, algorithm, rows, index, build_side = step
        return JoinNode(
            algorithm,
            dp[left_mask],
            dp[right_mask],
            graph.joins_between(left_mask, right_mask),
            rows,
            cost,
            inner_index=index,
            build_side=build_side,
        )

    def _inner_index_of(self, join, table: str) -> Optional[str]:
        """Name of an index on ``join``'s column of ``table``, if index
        nested loops may seek it."""
        if not self._config.enable_index_paths:
            return None
        index = self._db.indexes.index_on(join.side_for(table))
        return None if index is None else index.name

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
            if better_plan(stream_full, hash_full)
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


class _JoinGraph:
    """One query's join graph, built once per plan search.

    Tables are bit positions in sorted-name order, so ascending bits
    visit a subset's tables in ``sorted`` order and DP states are ``int``
    masks.  Each joined table pair's selectivity is estimated once here.

    Attributes:
        names: the query's tables, sorted; table ``i`` is bit ``1 << i``.
        adjacency: per table, the mask of tables it joins with.
        neighbors: per mask, the union of its tables' adjacency masks.
    """

    __slots__ = (
        "names",
        "adjacency",
        "neighbors",
        "_joins",
        "_incident",
        "_selectivity",
    )

    def __init__(
        self, query: Query, estimator: SelectivityEstimator, index_of
    ) -> None:
        self.names = sorted(query.tables)
        bit = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.adjacency = [0] * n
        # every join as (join, left bit, right bit), in query.joins order
        self._joins: List[tuple] = []
        # per table: (join, other table's bit, index name), in
        # query.joins order, for the index nested-loops decision
        self._incident: List[List[tuple]] = [[] for _ in range(n)]
        pairs: Dict[tuple, list] = {}
        for join in query.joins:
            a, b = bit[join.left.table], bit[join.right.table]
            self.adjacency[a] |= 1 << b
            self.adjacency[b] |= 1 << a
            self._joins.append((join, 1 << a, 1 << b))
            self._incident[a].append(
                (join, 1 << b, index_of(join, self.names[a]))
            )
            self._incident[b].append(
                (join, 1 << a, index_of(join, self.names[b]))
            )
            pairs.setdefault((min(a, b), max(a, b)), []).append(join)
        self._selectivity = [[1.0] * n for _ in range(n)]
        for (a, b), preds in sorted(pairs.items()):
            value = estimator.join_group_selectivity(JoinVariable(tuple(preds)))
            self._selectivity[a][b] = self._selectivity[b][a] = value
        self.neighbors = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            self.neighbors[mask] = (
                self.neighbors[mask ^ low]
                | self.adjacency[low.bit_length() - 1]
            )

    def extension_selectivity(self, inner: int, connected: int) -> float:
        """Selectivity of joining table ``inner`` to the tables in
        ``connected``: the product over each joined pair, in sorted pair
        order (for a fixed ``inner`` that is ascending partner order)."""
        row = self._selectivity[inner]
        selectivity = 1.0
        while connected:
            low = connected & -connected
            connected ^= low
            selectivity *= row[low.bit_length() - 1]
        return selectivity

    def selectivity_between(self, left_mask: int, right_mask: int) -> float:
        """Selectivity of the joins spanning two disjoint masks: the
        product over each joined pair ``(i, j)``, ``i < j``, in sorted
        pair order."""
        selectivity = 1.0
        remaining = left_mask | right_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            i = low.bit_length() - 1
            other_side = right_mask if low & left_mask else left_mask
            partners = self.adjacency[i] & other_side & ~(2 * low - 1)
            row = self._selectivity[i]
            while partners:
                partner = partners & -partners
                partners ^= partner
                selectivity *= row[partner.bit_length() - 1]
        return selectivity

    def inner_index(self, inner: int, rest: int) -> Optional[str]:
        """The index nested loops would seek on table ``inner`` when
        joining it to ``rest``: the first joining predicate, in
        query.joins order, whose ``inner`` column is indexed."""
        for _, other, index in self._incident[inner]:
            if other & rest and index is not None:
                return index
        return None

    def joins_between(self, left_mask: int, right_mask: int) -> tuple:
        """Join predicates spanning two disjoint masks, in query.joins
        order."""
        return tuple(
            join
            for join, a, b in self._joins
            if (a & left_mask and b & right_mask)
            or (b & left_mask and a & right_mask)
        )
