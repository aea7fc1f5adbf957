"""Planner tests: plan shapes, operator choice, estimates, PlanInfo."""

import pytest

from repro.check.plancheck import verify_plan
from repro.engine.database import Database
from repro.engine import operators as ops


def make_db(rows_a=1000, rows_b=10):
    db = Database()
    db.execute("CREATE TABLE big (k int, v varchar, grp int)")
    db.execute("CREATE TABLE small (k int, label varchar)")
    big = db.catalog.get_table("big")
    for i in range(rows_a):
        big.insert_row((i, "val%d" % i, i % 10))
    small = db.catalog.get_table("small")
    for i in range(rows_b):
        small.insert_row((i, "lbl%d" % i))
    return db


@pytest.fixture(scope="module")
def db():
    return make_db()


def plan_ops(db, sql):
    return [op.physical_name for op in db.explain(sql).plan.walk()]


class TestScanAndSeek:
    def test_full_scan(self, db):
        names = plan_ops(db, "SELECT * FROM big")
        assert names == ["Clustered Index Scan"]

    def test_seek_on_leading_column(self, db):
        names = plan_ops(db, "SELECT * FROM big WHERE k = 5")
        assert "Clustered Index Seek" in names
        assert "Filter" not in names

    def test_seek_plus_residual_pushed_into_seek(self, db):
        plan = db.explain("SELECT * FROM big WHERE k = 5 AND v LIKE 'va%'").plan
        names = [op.physical_name for op in plan.walk()]
        assert "Clustered Index Seek" in names
        assert "Filter" not in names  # residual LIKE lives inside the seek
        seek = [op for op in plan.walk() if op.physical_name == "Clustered Index Seek"][0]
        assert any("LIKE" in text for text in seek.filters)

    def test_non_leading_comparison_still_seeks(self, db):
        # The clustered index covers all columns (SQL Azure requirement),
        # so even non-leading literal comparisons are seeks, as in Listing 1.
        names = plan_ops(db, "SELECT * FROM big WHERE grp = 3")
        assert "Clustered Index Seek" in names

    def test_complex_predicate_pushed_into_scan(self, db):
        plan = db.explain("SELECT * FROM big WHERE v LIKE 'val1%'").plan
        names = [op.physical_name for op in plan.walk()]
        assert "Clustered Index Scan" in names
        assert "Filter" not in names  # pushed into the scan's Predicate
        scan = [op for op in plan.walk() if op.physical_name == "Clustered Index Scan"][0]
        assert any("LIKE" in text for text in scan.filters)

    def test_filter_survives_above_aggregate(self, db):
        names = plan_ops(
            db,
            "SELECT grp, n FROM (SELECT grp, COUNT(*) AS n FROM big GROUP BY grp) t "
            "WHERE n > 5",
        )
        assert "Filter" in names  # cannot commute with the aggregate

    def test_pushdown_through_derived_projection(self, db):
        plan = db.explain(
            "SELECT * FROM (SELECT k, v AS label FROM big) t WHERE label LIKE 'v%'"
        ).plan
        names = [op.physical_name for op in plan.walk()]
        assert "Filter" not in names

    def test_range_seek(self, db):
        names = plan_ops(db, "SELECT * FROM big WHERE k < 100")
        assert "Clustered Index Seek" in names

    def test_seek_estimate_lower_than_scan(self, db):
        scan = db.explain("SELECT * FROM big").plan
        seek = db.explain("SELECT * FROM big WHERE k = 5").plan
        seek_op = [op for op in seek.walk() if op.physical_name == "Clustered Index Seek"][0]
        assert seek_op.est_rows < scan.est_rows


class TestJoinChoice:
    def test_equi_join_large_inputs_uses_hash(self, db):
        names = plan_ops(db, "SELECT * FROM big a JOIN big b ON a.k = b.k")
        assert "Hash Match" in names or "Merge Join" in names
        assert "Nested Loops" not in names

    def test_tiny_inputs_use_nested_loops(self):
        # Join on a non-leading key so merge would need sorts: for tiny
        # inputs Nested Loops beats both Hash (startup) and Merge (sorts).
        db = make_db(rows_a=5, rows_b=3)
        names = plan_ops(db, "SELECT * FROM small a JOIN small b ON a.label = b.label")
        assert "Nested Loops" in names

    def test_leading_key_join_uses_merge(self):
        db = make_db(rows_a=5, rows_b=3)
        names = plan_ops(db, "SELECT * FROM small a JOIN small b ON a.k = b.k")
        assert "Merge Join" in names

    def test_non_equi_join_uses_nested_loops(self, db):
        names = plan_ops(db, "SELECT * FROM small a JOIN small b ON a.k < b.k")
        assert "Nested Loops" in names

    def test_cross_join_uses_nested_loops(self, db):
        names = plan_ops(db, "SELECT * FROM small a CROSS JOIN small b")
        assert "Nested Loops" in names

    def test_join_cardinality_estimate(self, db):
        plan = db.explain("SELECT * FROM big b JOIN small s ON b.k = s.k").plan
        # 1000 * 10 / max(1000, 10) = 10 expected matches.
        assert 5 <= plan.est_rows <= 50


class TestAggregatePlans:
    def test_group_by_has_stream_aggregate(self, db):
        names = plan_ops(db, "SELECT grp, COUNT(*) FROM big GROUP BY grp")
        assert "Stream Aggregate" in names

    def test_group_cardinality_uses_distinct_stats(self, db):
        plan = db.explain("SELECT grp, COUNT(*) FROM big GROUP BY grp").plan
        agg = [op for op in plan.walk() if op.physical_name == "Stream Aggregate"][0]
        assert agg.est_rows == pytest.approx(10, abs=1)

    def test_scalar_aggregate_one_row(self, db):
        plan = db.explain("SELECT COUNT(*) FROM big").plan
        agg = [op for op in plan.walk() if op.physical_name == "Stream Aggregate"][0]
        assert agg.est_rows == 1


class TestOtherPlanShapes:
    def test_order_by_adds_sort(self, db):
        assert "Sort" in plan_ops(db, "SELECT * FROM big ORDER BY v")

    def test_top_adds_top(self, db):
        assert "Top" in plan_ops(db, "SELECT TOP 5 * FROM big")

    def test_distinct_adds_distinct_sort(self, db):
        plan = db.explain("SELECT DISTINCT grp FROM big").plan
        sorts = [op for op in plan.walk() if op.physical_name == "Sort"]
        assert any(op.logical == "Distinct Sort" for op in sorts)

    def test_union_all_is_concatenation_only(self, db):
        names = plan_ops(db, "SELECT k FROM big UNION ALL SELECT k FROM small")
        assert "Concatenation" in names
        assert "Sort" not in names

    def test_union_dedups_with_sort(self, db):
        names = plan_ops(db, "SELECT k FROM big UNION SELECT k FROM small")
        assert "Concatenation" in names and "Sort" in names

    def test_identity_projection_skipped(self, db):
        names = plan_ops(db, "SELECT k, v, grp FROM big")
        assert "Compute Scalar" not in names

    def test_expression_projection_present(self, db):
        names = plan_ops(db, "SELECT k * 2 FROM big")
        assert "Compute Scalar" in names

    def test_subquery_attached_as_subplan(self, db):
        plan = db.explain(
            "SELECT * FROM big WHERE grp = (SELECT MIN(k) FROM small)"
        ).plan
        with_subplans = [op for op in plan.walk() if op.subplans]
        assert with_subplans, "expected a subplan attached to an operator"

    @pytest.mark.parametrize("select, evaluator", [
        ("SELECT *", "Sort"),             # the Sort evaluates the key
        ("SELECT k", "Compute Scalar"),   # a hidden key: the projection does
    ])
    def test_order_by_subquery_attached_as_subplan(self, db, select, evaluator):
        sql = (select + " FROM small ORDER BY "
               "(SELECT COUNT(*) FROM big WHERE big.grp = small.k) DESC, k")
        result = db.explain(sql)
        owners = [op.physical_name for op in result.plan.walk() if op.subplans]
        assert owners == [evaluator]
        assert "Stream Aggregate" in result.xml
        assert verify_plan(result.plan) == []
        keys = [row[0] for row in db.execute(sql).rows]
        assert keys == list(range(10))

    def test_costs_accumulate(self, db):
        plan = db.explain("SELECT grp, COUNT(*) FROM big GROUP BY grp ORDER BY grp").plan
        assert plan.total_cost > plan.io_cost + plan.cpu_cost or plan.children


class TestPlanInfo:
    def test_referenced_tables(self, db):
        info = db.explain("SELECT * FROM big b JOIN small s ON b.k = s.k").info
        assert info.tables == {"big", "small"}

    def test_referenced_columns(self, db):
        info = db.explain("SELECT v FROM big WHERE grp = 1").info
        assert ("big", "v") in info.columns
        assert ("big", "grp") in info.columns

    def test_view_reference_recorded(self, db):
        db.execute("CREATE VIEW bigview AS SELECT k, grp FROM big")
        info = db.explain("SELECT * FROM bigview WHERE grp = 1").info
        assert "bigview" in info.views
        assert "big" in info.tables

    def test_expression_ops_recorded(self, db):
        info = db.explain("SELECT k + 1 FROM big WHERE v LIKE 'val%'").info
        assert "ADD" in info.expression_ops
        assert "like" in info.expression_ops

    def test_cast_recorded(self, db):
        info = db.explain("SELECT CAST(k AS varchar) FROM big").info
        assert "CAST" in info.expression_ops

    def test_filters_described_like_listing_1(self, db):
        plan = db.explain("SELECT * FROM big WHERE k > 500").plan
        seek = [op for op in plan.walk() if op.filters][0]
        assert any("GT" in text for text in seek.filters)
