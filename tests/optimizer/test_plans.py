"""Tests for repro.optimizer.plans."""

from repro.catalog import ColumnRef
from repro.optimizer.plans import (
    AggregateNode,
    HavingNode,
    IndexSeekNode,
    JoinAlgorithm,
    JoinNode,
    ScanNode,
    SortNode,
    better_plan,
    plan_signature,
)
from repro.sql.predicates import ComparisonPredicate, JoinPredicate

AGE = ColumnRef("emp", "age")
DEPT_ID = ColumnRef("emp", "dept_id")
DID = ColumnRef("dept", "id")
PRED = ComparisonPredicate(AGE, "<", 30)


def _scan(table="emp", preds=(PRED,), rows=10, cost=5.0):
    return ScanNode(table, preds, rows, cost)


def _join(alg=JoinAlgorithm.HASH, **kwargs):
    left = _scan("emp", (PRED,), 10, 5.0)
    right = ScanNode("dept", (), 4, 2.0)
    return JoinNode(
        alg,
        left,
        right,
        (JoinPredicate(DEPT_ID, DID),),
        rows=12,
        cost=20.0,
        **kwargs,
    )


class TestNodeBasics:
    def test_scan_tables(self):
        assert _scan().tables() == ("emp",)

    def test_join_tables_in_order(self):
        assert _join().tables() == ("emp", "dept")

    def test_local_cost(self):
        join = _join()
        assert join.local_cost == 20.0 - 5.0 - 2.0

    def test_walk_preorder(self):
        join = _join()
        kinds = [type(n).__name__ for n in join.walk()]
        assert kinds == ["JoinNode", "ScanNode", "ScanNode"]

    def test_pretty_renders_all_nodes(self):
        text = _join().pretty()
        assert "Scan(emp)" in text and "Scan(dept)" in text

    def test_aggregate_child_access(self):
        agg = AggregateNode(_scan(), (AGE,), (), 3, 9.0)
        assert agg.child.tables() == ("emp",)

    def test_sort_preserves_rows(self):
        sort = SortNode(_scan(rows=7), (AGE,), cost=10.0)
        assert sort.rows == 7


class TestSignatures:
    """Signatures are the basis of Execution-Tree equivalence (Sec 3.2)."""

    def test_identical_plans_equal(self):
        assert plan_signature(_join()) == plan_signature(_join())

    def test_algorithm_changes_signature(self):
        assert plan_signature(
            _join(JoinAlgorithm.HASH)
        ) != plan_signature(_join(JoinAlgorithm.MERGE))

    def test_estimates_do_not_change_signature(self):
        a = ScanNode("emp", (PRED,), 10, 5.0)
        b = ScanNode("emp", (PRED,), 9999, 123.0)
        assert a.signature() == b.signature()

    def test_predicates_change_signature(self):
        a = ScanNode("emp", (PRED,), 10, 5.0)
        b = ScanNode("emp", (), 10, 5.0)
        assert a.signature() != b.signature()

    def test_predicate_order_irrelevant(self):
        other = ComparisonPredicate(ColumnRef("emp", "salary"), ">", 1.0)
        a = ScanNode("emp", (PRED, other), 1, 1.0)
        b = ScanNode("emp", (other, PRED), 1, 1.0)
        assert a.signature() == b.signature()

    def test_seek_vs_scan_differ(self):
        scan = ScanNode("emp", (PRED,), 10, 5.0)
        seek = IndexSeekNode("emp", "idx", PRED, (), 10, 5.0)
        assert scan.signature() != seek.signature()

    def test_seek_index_name_in_signature(self):
        a = IndexSeekNode("emp", "idx1", PRED, (), 10, 5.0)
        b = IndexSeekNode("emp", "idx2", PRED, (), 10, 5.0)
        assert a.signature() != b.signature()

    def test_child_order_matters(self):
        left = _scan("emp", (), 10, 5.0)
        right = ScanNode("dept", (), 4, 2.0)
        join_pred = (JoinPredicate(DEPT_ID, DID),)
        a = JoinNode(JoinAlgorithm.HASH, left, right, join_pred, 1, 1.0)
        b = JoinNode(JoinAlgorithm.HASH, right, left, join_pred, 1, 1.0)
        assert a.signature() != b.signature()

    def test_build_side_matters_for_hash(self):
        a = _join(build_side="left")
        b = _join(build_side="right")
        assert a.signature() != b.signature()

    def test_inner_index_matters_for_nlj(self):
        a = _join(JoinAlgorithm.NESTED_LOOP_INDEX, inner_index="i1")
        b = _join(JoinAlgorithm.NESTED_LOOP_INDEX, inner_index="i2")
        assert a.signature() != b.signature()

    def test_aggregate_group_keys_in_signature(self):
        a = AggregateNode(_scan(), (AGE,), (), 3, 9.0)
        b = AggregateNode(_scan(), (DEPT_ID,), (), 3, 9.0)
        assert a.signature() != b.signature()

    def test_signature_str_is_str_of_signature(self):
        other = ComparisonPredicate(ColumnRef("emp", "salary"), ">", 1.0)
        seek = IndexSeekNode("emp", "idx", PRED, (other,), 10, 5.0)
        join = JoinNode(
            JoinAlgorithm.NESTED_LOOP_INDEX,
            _join(build_side="left"),
            seek,
            (JoinPredicate(DEPT_ID, DID),),
            rows=3,
            cost=40.0,
            inner_index="idx",
        )
        aggregate = AggregateNode(join, (AGE,), (), 3, 50.0, method="stream")
        having = HavingNode(aggregate, (), 2, 51.0)
        plan = SortNode(having, (AGE, DEPT_ID), cost=60.0)
        for node in plan.walk():
            assert node.signature_str() == str(node.signature())

    def test_better_plan_orders_by_cost_then_signature(self):
        cheap = _scan(cost=1.0)
        dear = ScanNode("dept", (), 4, 2.0)
        assert better_plan(cheap, dear) and not better_plan(dear, cheap)
        hash_join = _join(JoinAlgorithm.HASH)
        merge_join = _join(JoinAlgorithm.MERGE)
        assert hash_join.cost == merge_join.cost
        assert better_plan(hash_join, merge_join)
        assert not better_plan(merge_join, hash_join)
        assert not better_plan(hash_join, _join(JoinAlgorithm.HASH))

    def test_seek_predicates_property(self):
        seek = IndexSeekNode("emp", "idx", PRED, (), 10, 5.0)
        assert seek.predicates == (PRED,)
