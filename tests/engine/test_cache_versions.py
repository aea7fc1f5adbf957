"""The result cache stores an answer under the catalog versions it was
computed from.

Each object's version is read when semantic analysis resolves it.  A
write that lands between planning and storing the result therefore makes
the stored entry fail validation; it can never bless rows of the old
state with the new versions.  Each test runs one platform mutation right
after planning returns, then checks that the next (cacheable) read
agrees with an uncached one.
"""

import pytest

from repro.core.sqlshare import SQLShare
from repro.engine import parser
from repro.errors import ReproError
from repro.runtime import ResultCache


@pytest.fixture
def share():
    platform = SQLShare()
    platform.upload("alice", "growing", "n\n1\n2\n3\n")
    platform.result_cache = ResultCache()
    return platform


def mutate_after_next_plan(monkeypatch, share, mutation):
    real_plan = share.db.planner.plan
    pending = [mutation]

    def plan(*args, **kwargs):
        planned = real_plan(*args, **kwargs)
        if pending:
            pending.pop()()
        return planned

    monkeypatch.setattr(share.db.planner, "plan", plan)


def uncached(share, sql):
    cache, share.result_cache = share.result_cache, None
    try:
        return share.run_query("alice", sql).rows
    finally:
        share.result_cache = cache


def test_append_after_plan(monkeypatch, share):
    sql = "SELECT COUNT(*) FROM growing"
    mutate_after_next_plan(monkeypatch, share, lambda: share.append(
        "alice", "growing", "n\n4\n5\n6\n"))
    assert share.run_query("alice", sql).rows == [(3,)]
    result = share.run_query("alice", sql)
    assert not result.cache_hit
    assert result.rows == uncached(share, sql) == [(6,)]


def test_redefine_after_plan(monkeypatch, share):
    share.create_dataset("alice", "small", "SELECT n FROM growing WHERE n < 3")
    sql = "SELECT COUNT(*) FROM small"
    narrower = "SELECT n FROM growing WHERE n < 2"
    mutate_after_next_plan(monkeypatch, share, lambda: share.db.create_view(
        "small", parser.parse(narrower), sql=narrower, replace=True))
    assert share.run_query("alice", sql).rows == [(2,)]
    result = share.run_query("alice", sql)
    assert not result.cache_hit
    assert result.rows == uncached(share, sql) == [(1,)]


def test_delete_after_plan(monkeypatch, share):
    share.create_dataset("alice", "everything", "SELECT n FROM growing")
    sql = "SELECT COUNT(*) FROM everything"
    mutate_after_next_plan(monkeypatch, share, lambda: share.delete_dataset(
        "alice", "growing"))
    assert share.run_query("alice", sql).rows == [(3,)]
    # The dependent view is left dangling: every later read fails, cached
    # or not.
    with pytest.raises(ReproError):
        share.run_query("alice", sql)
    with pytest.raises(ReproError):
        uncached(share, sql)
