"""Normalized, bound statements: the currency between SQL and optimizer.

A :class:`Query` is the paper's normalized SPJ (+ aggregation) query: a set
of tables, a conjunction of selection predicates, a set of equijoin
predicates, optional GROUP BY, ORDER BY, and a projection list.

``Query.relevant_columns()`` implements Sec 3.1: columns in the WHERE or
GROUP BY clauses are relevant; columns appearing *only* in ORDER BY or the
projection are not (footnote 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.catalog import ColumnRef
from repro.errors import SqlBindError
from repro.sql.expressions import Aggregate, ScalarExpression
from repro.sql.predicates import JoinPredicate, Predicate


class Statement:
    """Marker base class for all bound statements."""


@dataclass(frozen=True)
class Query(Statement):
    """A bound, normalized SELECT statement.

    Attributes:
        tables: referenced table names (each at most once; self-joins are
            outside the supported subset).
        predicates: conjunctive selection predicates (single-table).
        joins: equijoin predicates between tables.
        group_by: GROUP BY columns.
        order_by: ORDER BY columns (relevant for plan sort avoidance, not
            for statistics — per the paper's footnote 1).
        projections: SELECT-list items: :class:`ScalarExpression` or
            :class:`Aggregate`.  Empty means ``SELECT *``.
        text: original SQL text if the query came from the parser.
    """

    tables: Tuple[str, ...]
    predicates: Tuple[Predicate, ...] = ()
    joins: Tuple[JoinPredicate, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[ColumnRef, ...] = ()
    projections: Tuple[object, ...] = ()
    having: Tuple[object, ...] = ()
    text: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.tables:
            raise SqlBindError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise SqlBindError(
                f"duplicate table references not supported: {self.tables}"
            )
        table_set = set(self.tables)
        for pred in self.predicates:
            for ref in pred.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"predicate {pred} references table {ref.table!r} "
                        "not in FROM clause"
                    )
            if len(pred.tables()) != 1:
                raise SqlBindError(
                    f"selection predicate {pred} must touch exactly one table"
                )
        for join in self.joins:
            for ref in join.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"join {join} references table {ref.table!r} "
                        "not in FROM clause"
                    )
        for ref in self.group_by + self.order_by:
            if ref.table not in table_set:
                raise SqlBindError(
                    f"column {ref} not in FROM clause tables"
                )
        if self.having and not self.group_by:
            raise SqlBindError("HAVING requires a GROUP BY clause")
        for condition in self.having:
            for ref in condition.columns():
                if ref.table not in table_set:
                    raise SqlBindError(
                        f"HAVING references table {ref.table!r} not in "
                        "FROM clause"
                    )

    # ------------------------------------------------------------------
    # paper Sec 3.1: relevant columns
    # ------------------------------------------------------------------

    def relevant_columns(self) -> Tuple[ColumnRef, ...]:
        """Columns whose statistics can affect this query's optimization.

        WHERE-clause columns (selections and joins) and GROUP BY columns
        are relevant; ORDER-BY-only and projection-only columns are not
        (paper Sec 3.1, footnote 1).
        """
        seen = []
        for pred in self.predicates:
            for ref in pred.columns():
                if ref not in seen:
                    seen.append(ref)
        for join in self.joins:
            for ref in join.columns():
                if ref not in seen:
                    seen.append(ref)
        for ref in self.group_by:
            if ref not in seen:
                seen.append(ref)
        return tuple(seen)

    def relevant_columns_of(self, table: str) -> FrozenSet[str]:
        """Names of ``table``'s relevant columns (empty for a table the
        query does not reference).

        Memoized on the instance, outside the dataclass fields, so it
        stays out of ``__eq__``, ``__hash__`` and ``repr``.  The query is
        frozen, so the memo cannot go stale; concurrent first calls
        compute the same value.
        """
        by_table = self.__dict__.get("_relevant_by_table")
        if by_table is None:
            grouped: Dict[str, set] = {}
            for ref in self.relevant_columns():
                grouped.setdefault(ref.table, set()).add(ref.column)
            by_table = {t: frozenset(cols) for t, cols in grouped.items()}
            object.__setattr__(self, "_relevant_by_table", by_table)
        return by_table.get(table, frozenset())

    def selection_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct columns of ``table`` used in selection predicates."""
        seen = []
        for pred in self.predicates:
            for ref in pred.columns():
                if ref.table == table and ref not in seen:
                    seen.append(ref)
        return tuple(seen)

    def join_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct columns of ``table`` used in join predicates."""
        seen = []
        for join in self.joins:
            for ref in join.columns():
                if ref.table == table and ref not in seen:
                    seen.append(ref)
        return tuple(seen)

    def group_by_columns_of(self, table: str) -> Tuple[ColumnRef, ...]:
        """Distinct GROUP BY columns belonging to ``table``."""
        seen = []
        for ref in self.group_by:
            if ref.table == table and ref not in seen:
                seen.append(ref)
        return tuple(seen)

    def predicates_of(self, table: str) -> Tuple[Predicate, ...]:
        """Selection predicates that apply to ``table``."""
        return tuple(
            pred for pred in self.predicates if pred.tables() == (table,)
        )

    def joins_between(self, left_tables, right_tables) -> Tuple:
        """Join predicates connecting two disjoint table sets."""
        left_set, right_set = set(left_tables), set(right_tables)
        found = []
        for join in self.joins:
            t1, t2 = join.left.table, join.right.table
            spans = (t1 in left_set and t2 in right_set) or (
                t2 in left_set and t1 in right_set
            )
            if spans:
                found.append(join)
        return tuple(found)

    @property
    def has_aggregation(self) -> bool:
        """True if the query groups or aggregates."""
        if self.group_by or self.having:
            return True
        return any(isinstance(p, Aggregate) for p in self.projections)

    def all_aggregates(self) -> Tuple[Aggregate, ...]:
        """Every aggregate the plan must compute: the projected ones plus
        those referenced only in the HAVING clause."""
        seen = []
        for item in self.projections:
            if isinstance(item, Aggregate) and item not in seen:
                seen.append(item)
        for condition in self.having:
            if condition.aggregate not in seen:
                seen.append(condition.aggregate)
        return tuple(seen)

    def __str__(self) -> str:
        if self.text:
            return self.text
        parts = [f"SELECT ... FROM {', '.join(self.tables)}"]
        conj = [str(p) for p in self.predicates] + [str(j) for j in self.joins]
        if conj:
            parts.append("WHERE " + " AND ".join(conj))
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(str(c) for c in self.group_by)
            )
        return " ".join(parts)


@dataclass(frozen=True)
class DmlStatement(Statement):
    """A bound INSERT / DELETE / UPDATE statement.

    The workload generator uses these to drive row-modification counters
    (paper Sec 6 / 8.1 update-mix workloads).

    Attributes:
        kind: ``"insert"``, ``"delete"`` or ``"update"``.
        table: target table name.
        predicate: selection for DELETE/UPDATE (``None`` = whole table).
        assignments: column -> literal for UPDATE.
        rows: literal rows for INSERT (tuples in schema column order or
            dicts keyed by column name).
        text: original SQL text if parsed.
    """

    kind: str
    table: str
    predicate: Optional[Predicate] = None
    assignments: Optional[Dict[str, object]] = field(
        default=None, compare=False
    )
    rows: Tuple[object, ...] = field(default=(), compare=False)
    text: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete", "update"):
            raise SqlBindError(f"unknown DML kind {self.kind!r}")
        if self.kind == "update" and not self.assignments:
            raise SqlBindError("UPDATE requires at least one assignment")
        if self.kind == "insert" and not self.rows:
            raise SqlBindError("INSERT requires at least one row")

    def __str__(self) -> str:
        if self.text:
            return self.text
        return f"{self.kind.upper()} {self.table}"
