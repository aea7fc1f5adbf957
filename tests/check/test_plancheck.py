"""Plan-verifier mutation tests: every PLAN code fires on a corrupted plan.

Each test plans a real query through the real planner, corrupts the plan
the way the targeted invariant would actually break (a dropped schema
column, a swapped join-key type, a lost sort direction, a NaN estimate),
and asserts exactly the expected code fires — plus that the untouched
plan verifies clean, so the corruption is the only thing being detected.
"""

import pytest

from repro.check import verify_plan
from repro.check.plancheck import PLAN_CODES
from repro.engine import operators as ops
from repro.engine import parser, semantic
from repro.engine.database import Database
from repro.engine.expressions import BoundColumn, BoundOuterColumn, OutputColumn
from repro.engine.types import SQLType
from repro.errors import PlanCheckError


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (a INT, b VARCHAR, d DATETIME)")
    database.execute("CREATE TABLE u (a INT, x FLOAT)")
    for i in range(4):
        database.execute(
            "INSERT INTO t VALUES (%d, 'row%d', '2015-06-0%d')" % (i, i, i + 1))
        database.execute("INSERT INTO u VALUES (%d, %d.5)" % (i, i))
    return database


def plan(db, sql):
    return db.planner.plan(semantic.analyze(parser.parse(sql), db.catalog))


def walk_all(operator):
    """Every operator, subquery plans included (Operator.walk skips them)."""
    yield operator
    for subplan in operator.subplans:
        for descendant in walk_all(subplan):
            yield descendant
    for child in operator.children:
        for descendant in walk_all(child):
            yield descendant


def find(root, cls, predicate=None):
    for operator in walk_all(root):
        if isinstance(operator, cls) and (predicate is None
                                          or predicate(operator)):
            return operator
    raise AssertionError("plan has no %s" % cls.__name__)


def codes(planned):
    return set(v.code for v in verify_plan(planned.root, planned.schema))


def assert_clean_then(planned, mutate, expected_code):
    assert codes(planned) == set(), "plan must verify clean before corruption"
    mutate()
    fired = codes(planned)
    assert expected_code in fired, (
        "%s did not fire (got %s)" % (expected_code, sorted(fired)))


class TestMutations:
    def test_plan001_column_slot_out_of_range(self, db):
        planned = plan(db, "SELECT a, b FROM t WHERE a > 1")
        compute = find(planned.root, ops.ComputeScalar,
                       lambda op: any(isinstance(e, BoundColumn)
                                      for e in op.exprs))
        column = next(e for e in compute.exprs if isinstance(e, BoundColumn))
        assert_clean_then(planned, lambda: setattr(column, "slot", 99),
                          "PLAN001")

    def test_plan002_join_key_type_swapped(self, db):
        planned = plan(db, "SELECT t.a, u.x FROM t JOIN u ON t.a = u.a")
        join = find(planned.root, (ops.HashMatch, ops.MergeJoin))
        # A join key that suddenly claims to be temporal against a numeric
        # partner never matches anything — the swapped-key-type corruption.
        assert_clean_then(
            planned,
            lambda: setattr(join.left_keys[0], "sql_type", SQLType.DATETIME),
            "PLAN002")

    def test_plan002_lopsided_key_lists(self, db):
        planned = plan(db, "SELECT t.a, u.x FROM t JOIN u ON t.a = u.a")
        join = find(planned.root, (ops.HashMatch, ops.MergeJoin))
        assert_clean_then(
            planned,
            lambda: setattr(join, "right_keys", list(join.right_keys)[:0]),
            "PLAN002")

    def test_plan003_dropped_scan_column(self, db):
        planned = plan(db, "SELECT a, b FROM t")
        scan = find(planned.root,
                    (ops.ClusteredIndexScan, ops.ClusteredIndexSeek))
        assert_clean_then(planned, lambda: scan.schema.pop(), "PLAN003")

    def test_plan003_projection_arity(self, db):
        planned = plan(db, "SELECT a, b FROM t")
        compute = find(planned.root, ops.ComputeScalar)
        assert_clean_then(
            planned,
            lambda: setattr(compute, "exprs", list(compute.exprs)[:-1]),
            "PLAN003")

    def test_plan004_non_boolean_predicate(self, db):
        planned = plan(db, "SELECT a FROM t WHERE a > 1")
        holder = find(
            planned.root, ops.Operator,
            lambda op: getattr(op, "predicate", None) is not None
            or getattr(op, "residual_predicates", ()))
        bogus = BoundColumn(0, SQLType.INT, "a")

        def mutate():
            if getattr(holder, "predicate", None) is not None:
                holder.predicate = bogus
            else:
                holder.residual_predicates[0] = bogus
        assert_clean_then(planned, mutate, "PLAN004")

    def test_plan005_lost_sort_direction(self, db):
        planned = plan(db, "SELECT a FROM t ORDER BY a DESC")
        sort = find(planned.root, ops.Sort)
        assert_clean_then(
            planned, lambda: setattr(sort, "descendings", []), "PLAN005")

    def test_plan005_bad_output_width(self, db):
        planned = plan(db, "SELECT a FROM t ORDER BY b")
        sort = find(planned.root, ops.Sort,
                    lambda op: op.output_width is not None)
        assert_clean_then(
            planned, lambda: setattr(sort, "output_width", 99), "PLAN005")

    def test_plan006_unknown_aggregate(self, db):
        planned = plan(db, "SELECT a, COUNT(*) c FROM t GROUP BY a")
        agg = find(planned.root, ops.StreamAggregate)

        def mutate():
            agg.agg_specs = [("frobnicate", None, False)]
        assert_clean_then(planned, mutate, "PLAN006")

    def test_plan007_nan_estimate(self, db):
        planned = plan(db, "SELECT a FROM t")
        assert_clean_then(
            planned,
            lambda: setattr(planned.root, "est_rows", float("nan")),
            "PLAN007")

    def test_plan007_negative_rows_and_zero_width(self, db):
        planned = plan(db, "SELECT a FROM t")
        planned.root.est_rows = -5.0
        planned.root.row_size = 0
        fired = codes(planned)
        assert fired == {"PLAN007"}
        # Two findings: one per broken estimate field.
        assert len(verify_plan(planned.root, planned.schema)) == 2

    def test_plan008_declared_type_lie(self, db):
        planned = plan(db, "SELECT b FROM t")
        compute = find(
            planned.root, ops.ComputeScalar,
            lambda op: any(e.sql_type is SQLType.VARCHAR for e in op.exprs))
        slot = next(i for i, e in enumerate(compute.exprs)
                    if e.sql_type is SQLType.VARCHAR)
        assert_clean_then(
            planned,
            lambda: setattr(compute.schema[slot], "sql_type", SQLType.INT),
            "PLAN008")

    def test_plan009_root_schema_mismatch(self, db):
        planned = plan(db, "SELECT a FROM t")
        assert codes(planned) == set()
        widened = list(planned.schema) + [OutputColumn("ghost", SQLType.INT)]
        fired = set(v.code for v in verify_plan(planned.root, widened))
        assert "PLAN009" in fired

    def test_plan010_outer_reference_contract(self, db):
        planned = plan(
            db, "SELECT a FROM t WHERE EXISTS "
                "(SELECT 1 FROM u WHERE u.a = t.a)")
        outer = None
        for operator in walk_all(planned.root):
            exprs = list(getattr(operator, "residual_predicates", ()))
            if getattr(operator, "predicate", None) is not None:
                exprs.append(operator.predicate)
            for expr in exprs:
                for node in expr.walk():
                    if isinstance(node, BoundOuterColumn):
                        outer = node
        assert outer is not None, "correlated plan must bind an outer column"
        assert_clean_then(planned, lambda: setattr(outer, "levels", 9),
                          "PLAN010")


class TestVerifierSurface:
    def test_every_code_has_a_name(self):
        assert set(PLAN_CODES) == {
            "PLAN001", "PLAN002", "PLAN003", "PLAN004", "PLAN005",
            "PLAN006", "PLAN007", "PLAN008", "PLAN009", "PLAN010"}

    def test_violation_to_dict(self, db):
        planned = plan(db, "SELECT a FROM t")
        planned.root.est_rows = -1.0
        violation = verify_plan(planned.root, planned.schema)[0]
        payload = violation.to_dict()
        assert payload["code"] == "PLAN007"
        assert payload["name"] == "estimate-sanity"
        assert payload["operator"]
        assert payload["path"] == "0"

    def test_strict_mode_raises_before_execution(self, db, monkeypatch):
        real_plan = db.planner.plan

        def corrupting_plan(statement, **kwargs):
            planned = real_plan(statement, **kwargs)
            planned.root.est_rows = float("nan")
            return planned
        monkeypatch.setattr(db.planner, "plan", corrupting_plan)
        with pytest.raises(PlanCheckError) as exc_info:
            db.execute("SELECT a FROM t")
        assert any(v.code == "PLAN007" for v in exc_info.value.violations)

    def test_warn_mode_executes_and_counts(self, db, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        db.metrics = MetricsRegistry()
        db.plan_check_mode = "warn"
        real_plan = db.planner.plan

        def corrupting_plan(statement, **kwargs):
            planned = real_plan(statement, **kwargs)
            planned.root.est_rows = float("nan")
            return planned
        monkeypatch.setattr(db.planner, "plan", corrupting_plan)
        result = db.execute("SELECT a FROM t")
        assert len(result.rows) == 4
        counter = db.metrics.get("check_plan_violations_total")
        assert counter is not None and counter.value() == 1

    def test_off_mode_skips_entirely(self, db, monkeypatch):
        db.plan_check_mode = "off"
        monkeypatch.setattr(
            "repro.engine.database.verify_plan",
            lambda *args, **kwargs: pytest.fail("verifier ran in off mode"))
        assert len(db.execute("SELECT a FROM t").rows) == 4

    def test_explain_carries_plan_check(self, db):
        explained = db.explain("SELECT a FROM t WHERE a > 1")
        assert explained.plan_check == []
        assert "<PlanCheck" in explained.xml
        assert 'Result="ok"' in explained.xml

    def test_profile_carries_plan_check(self, db):
        result = db.execute("SELECT a FROM t WHERE a > 1", profile=True)
        assert result.profile.plan_check == []
        assert result.profile.summary()["plan_check"] == "ok"

    def test_check_plan_helper(self, db):
        assert db.check_plan("SELECT a FROM t") == []
        # Non-queries and invalid statements yield no verdict, not an error.
        assert db.check_plan("CREATE TABLE z (a INT)") is None
        assert db.check_plan("SELECT nope FROM t") is None
        assert db.check_plan("SELEC") is None


class TestCacheBypass:
    def test_cache_hit_paths_never_replan_or_reverify(self, db, monkeypatch):
        from repro.runtime.cache import ResultCache

        cache = ResultCache(capacity=8)
        sql = "SELECT a FROM t WHERE a > 0"
        first = db.execute(sql, cache=cache)
        assert not first.cache_hit

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not re-plan or re-verify")
        monkeypatch.setattr(db.planner, "plan", boom)
        monkeypatch.setattr("repro.engine.database.verify_plan", boom)
        # Memoized no-parse hit path.
        hit = db.execute(sql, cache=cache)
        assert hit.cache_hit and list(hit.rows) == list(first.rows)
        # Parsed-key hit path (same statement, different whitespace, so the
        # raw-text memo misses but the normalized key matches).
        hit2 = db.execute("SELECT a FROM t   WHERE a > 0", cache=cache)
        assert hit2.cache_hit
