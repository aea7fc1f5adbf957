"""Per-operator profiling: q-error, operator wrapping, EXPLAIN ANALYZE."""

import pytest

from repro.engine.database import Database
from repro.obs.profiler import QueryProfiler, q_error, render_explain_analyze

CSV_ROWS = [("A", 10.5), ("B", 11.0), ("C", 12.5), ("A", 9.0)]


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE obs (site VARCHAR, temp FLOAT)")
    for site, temp in CSV_ROWS:
        database.execute("INSERT INTO obs VALUES ('%s', %s)" % (site, temp))
    return database


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_zero_rows_floored(self):
        # 0 actual rows vs estimate 5 -> max(5/1, 1/5) = 5, not inf.
        assert q_error(5, 0) == 5.0
        assert q_error(0, 0) == 1.0


class TestProfiledExecution:
    def test_actual_rows_per_operator(self, db):
        result = db.execute(
            "SELECT site, COUNT(*) AS n FROM obs GROUP BY site", profile=True)
        profile = result.profile
        assert profile is not None
        executed = [s for s in profile.operators if s.loops]
        assert executed, "no operator recorded any execution"
        # The root operator must have produced exactly the result rows.
        root = profile.operators[0]
        assert root.rows == len(result.rows)
        for stats in executed:
            assert stats.next_seconds >= 0.0
            assert stats.rows >= 0

    def test_every_physical_operator_row_rendered(self, db):
        result = db.execute(
            "SELECT site FROM obs WHERE temp > 10 ORDER BY site", profile=True)
        text = render_explain_analyze(result.profile)
        # One table line per collected operator (plus header/footer).
        operator_lines = [
            line for line in text.splitlines()[2:]
            if line.strip() and not line.startswith(("q-error", "execution", "-"))
        ]
        assert len(operator_lines) == len(result.profile.operators)
        assert "Est. Rows" in text and "Actual Rows" in text
        assert "Q-Error" in text

    def test_plan_restored_after_profiling(self, db):
        sql = "SELECT site FROM obs ORDER BY site"
        profiled = db.execute(sql, profile=True)
        assert profiled.profile is not None
        # The memoized plan must be unwrapped: a second, unprofiled run
        # works and records nothing.
        plain = db.execute(sql)
        assert plain.profile is None
        assert plain.rows == profiled.rows

    def test_profile_bypasses_cache(self, db):
        from repro.runtime.cache import ResultCache

        cache = ResultCache(capacity=8)
        sql = "SELECT site FROM obs"
        first = db.execute(sql, cache=cache)
        assert not first.cache_hit
        profiled = db.execute(sql, cache=cache, profile=True)
        # Served fresh (actuals must be real), and not stored either.
        assert not profiled.cache_hit
        assert profiled.profile is not None
        warm = db.execute(sql, cache=cache)
        assert warm.cache_hit

    def test_summary_and_to_dict(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM obs", profile=True)
        summary = result.profile.summary()
        assert summary["executed"] >= 1
        assert summary["median_q_error"] >= 1.0
        payload = result.profile.to_dict()
        assert len(payload["operators"]) == summary["operators"]
        for op in payload["operators"]:
            assert "operator" in op and "estimated_rows" in op

    def test_non_select_has_no_profile(self, db):
        result = db.execute("INSERT INTO obs VALUES ('D', 1.0)", profile=True)
        assert result.profile is None


class TestProfilerAttachDetach:
    def test_detach_restores_execute(self, db):
        from repro.engine import semantic
        from repro.engine.parser import parse

        planned = db.planner.plan(
            semantic.analyze(parse("SELECT site FROM obs"), db.catalog))
        profiler = QueryProfiler(planned.root)
        original = planned.root.execute
        profiler.attach()
        assert planned.root.execute is not original
        profiler.detach()
        # Instance attribute removed; the class method is visible again.
        assert "execute" not in planned.root.__dict__

    def test_subplan_operators_collected(self, db):
        result = db.execute(
            "SELECT site FROM obs o WHERE temp > "
            "(SELECT AVG(temp) FROM obs)", profile=True)
        assert any(s.is_subplan for s in result.profile.operators)
