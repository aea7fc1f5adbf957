"""Statistics / cardinality estimation tests (sample-based selectivity)."""

import sys
import threading

import pytest

from repro.engine.catalog import Column, Table, TableStatistics
from repro.engine.database import Database
from repro.engine.types import SQLType


def make_stats(values, sql_type=SQLType.INT):
    return TableStatistics([Column("v", sql_type)], [(value,) for value in values])


class TestRangeSelectivity:
    def test_uniform_data_midpoint(self):
        stats = make_stats(range(100))
        assert stats.range_selectivity("v", ">", 49) == pytest.approx(0.5, abs=0.02)

    def test_skewed_data(self):
        stats = make_stats([1] * 90 + [100] * 10)
        assert stats.range_selectivity("v", ">", 50) == pytest.approx(0.1, abs=0.02)

    def test_all_below_never_zero(self):
        stats = make_stats(range(100))
        estimate = stats.range_selectivity("v", ">", 10**9)
        assert 0.0 < estimate < 0.02

    def test_all_above_never_one(self):
        stats = make_stats(range(100))
        assert stats.range_selectivity("v", ">", -1) <= 0.999

    def test_unknown_column_returns_none(self):
        stats = make_stats(range(10))
        assert stats.range_selectivity("zzz", ">", 5) is None

    def test_non_numeric_literal_returns_none(self):
        stats = make_stats(range(10))
        assert stats.range_selectivity("v", ">", "abc") is None

    def test_equality_not_handled_here(self):
        stats = make_stats(range(10))
        assert stats.range_selectivity("v", "=", 5) is None

    def test_not_equal(self):
        stats = make_stats([1] * 50 + [2] * 50)
        assert stats.range_selectivity("v", "<>", 1) == pytest.approx(0.5, abs=0.02)

    def test_text_column_has_no_sample(self):
        stats = make_stats(("a", "b"), SQLType.VARCHAR)
        assert stats.range_selectivity("v", ">", 1) is None

    def test_sample_cap_respected(self):
        stats = make_stats(range(5000))
        assert len(stats.sample("v")) == TableStatistics.SAMPLE_CAP

    def test_deterministic(self):
        first = make_stats(range(2000)).sample("v")
        second = make_stats(range(2000)).sample("v")
        assert first == second


class TestSampleIsUniform:
    """The sample covers the whole table, not its first rows."""

    def test_ordered_insert_midpoint(self):
        table = Table("t", [Column("v", SQLType.INT)])
        for value in range(10000):
            table.insert_row((value,))
        stats = table.stats
        assert stats.range_selectivity("v", ">=", 5000) == pytest.approx(0.5, abs=0.1)
        assert stats.range_selectivity("v", "<", 5000) == pytest.approx(0.5, abs=0.1)

    def test_small_table_keeps_every_value(self):
        assert sorted(make_stats(range(400)).sample("v")) == [float(v) for v in range(400)]

    def test_explain_estimates_half_of_ordered_table(self):
        db = Database()
        db.execute("CREATE TABLE t (x int)")
        table = db.catalog.get_table("t")
        for x in range(10000):
            table.insert_row((x,))
        plan = db.explain("SELECT * FROM t WHERE x >= 5000").plan
        leaf = [op for op in plan.walk() if op.filters][0]
        assert leaf.est_rows == pytest.approx(5000, rel=0.2)


class TestStatisticsFollowTheRows:
    def make(self):
        table = Table("t", [Column("a", SQLType.INT), Column("b", SQLType.VARCHAR)],
                      [(i, "x") for i in range(10)])
        assert table.stats.row_count == 10
        assert table.stats.distinct_count("a") == 10
        return table

    def test_insert_after_first_read(self):
        table = self.make()
        table.insert_row((42, "y"))
        assert table.stats.row_count == 11
        assert table.stats.distinct_count("a") == 11
        assert table.stats.distinct_count("b") == 2

    def test_unchanged_rows_keep_one_instance(self):
        table = self.make()
        assert table.stats is table.stats

    def test_alter_to_varchar_drops_the_sample(self):
        table = self.make()
        assert table.stats.range_selectivity("a", ">", 4) is not None
        table.alter_column_type("a", SQLType.VARCHAR, str)
        assert table.stats.range_selectivity("a", ">", 4) is None
        assert table.stats.avg_row_width(table.columns) == pytest.approx(2.0)

    def test_average_width_counts_each_cell(self):
        table = Table("t", [Column("n", SQLType.INT), Column("s", SQLType.VARCHAR)],
                      [(1, "abc"), (None, ""), (2, None), (3, 12345)])
        # n: 4 + 1 + 4 + 4; s: 3 + 1 (empty) + 1 (NULL) + 5.
        assert table.stats.avg_row_width(table.columns) == pytest.approx(23 / 4.0)

    def test_distinct_overflow_scales_with_rows(self):
        stats = make_stats(range(TableStatistics.DISTINCT_CAP + 5000))
        assert stats.distinct_count("v") == int((TableStatistics.DISTINCT_CAP + 5000) * 0.9)

    def test_reads_a_consistent_prefix(self):
        rows = [(i,) for i in range(100)]
        stats = TableStatistics([Column("v", SQLType.INT)], rows)
        rows.extend((i,) for i in range(100, 200))
        assert stats.distinct_count("v") == 100
        assert len(stats.sample("v")) == 100

    def test_concurrent_appends_never_tear_the_prefix(self):
        table = Table("t", [Column("v", SQLType.INT)])
        done = threading.Event()
        torn = []

        def writer():
            for value in range(TableStatistics.DISTINCT_CAP):
                table.insert_row((value,))
            done.set()

        def reader():
            while not done.is_set():
                stats = table.stats
                # Row i holds i, so a value at or past row_count was read
                # beyond the prefix.
                if (stats.distinct_count("v") != max(1, stats.row_count)
                        or max(stats.sample("v"), default=-1) >= stats.row_count):
                    torn.append(stats.row_count)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        assert table.stats.row_count == TableStatistics.DISTINCT_CAP


class TestPlannerUsesSamples:
    @pytest.fixture
    def db(self):
        database = Database()
        database.execute("CREATE TABLE t (k int, v int)")
        table = database.catalog.get_table("t")
        # 90% of v below 100, 10% above.
        for i in range(1000):
            table.insert_row((i, 50 if i % 10 else 5000))
        return database

    def test_skew_aware_estimate(self, db):
        plan = db.explain("SELECT * FROM t WHERE v > 100").plan
        leaf = [op for op in plan.walk() if op.filters][0]
        # Flat default would say 300 rows; the sample knows it is ~100.
        assert leaf.est_rows == pytest.approx(100, rel=0.5)

    def test_flipped_comparison(self, db):
        plan = db.explain("SELECT * FROM t WHERE 100 < v").plan
        leaf = [op for op in plan.walk() if op.filters][0]
        assert leaf.est_rows == pytest.approx(100, rel=0.5)

    def test_estimate_tracks_actual(self, db):
        for threshold in (10, 60, 4000):
            plan = db.explain("SELECT * FROM t WHERE v > %d" % threshold).plan
            actual = len(db.execute("SELECT * FROM t WHERE v > %d" % threshold).rows)
            leaf = [op for op in plan.walk() if op.filters][0]
            assert leaf.est_rows == pytest.approx(max(actual, 1), rel=0.6, abs=10)
