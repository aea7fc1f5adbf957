"""Semantic analysis is the only binder: what it accepts plans and runs,
what it rejects fails everywhere with the same diagnostic.

The cases here once split the analyzer and a second binder inside the
planner: valid T-SQL that analyzed clean and then failed to plan, invalid
SQL that ``/check`` passed and execution rejected with a bare
``BindError``, Phase-2 counts inflated by a failed ORDER BY bind, and
generated column names that depended on what the process had planned
before.
"""

import pytest

from repro.core.sqlshare import SQLShare
from repro.engine.database import Database
from repro.errors import ERROR, SQLError
from repro.server.client import SQLShareClient
from repro.server.rest import SQLShareApp
from repro.storage import StorageManager

SCHEMA = [
    "CREATE TABLE t (x INT, y INT)",
    "CREATE TABLE u (x INT)",
    "INSERT INTO t VALUES (1, 30), (2, 10), (3, 20), (1, 5)",
    "INSERT INTO u VALUES (1), (2)",
]

#: (sql, expected rows in order)
VALID = [
    ("SELECT * FROM t ORDER BY t.y DESC",
     [(1, 30), (3, 20), (2, 10), (1, 5)]),
    ("SELECT t.x, t.y FROM t ORDER BY t.y",
     [(1, 5), (2, 10), (3, 20), (1, 30)]),
    ("SELECT x, COUNT(*) AS n FROM t GROUP BY x ORDER BY t.x",
     [(1, 2), (2, 1), (3, 1)]),
    ("SELECT x, SUM(y) FROM t GROUP BY x ORDER BY SUM(y) DESC",
     [(1, 35), (3, 20), (2, 10)]),
    # The hidden key belongs to this SELECT's (elided) projection, not to
    # the derived table's projection underneath it.
    ("SELECT * FROM (SELECT x, 0 - y AS neg FROM t) s ORDER BY s.neg",
     [(1, -30), (3, -20), (2, -10), (1, -5)]),
]

#: (sql, diagnostic code)
INVALID = [
    ("SELECT DISTINCT x FROM t ORDER BY y", "SEM011"),
    ("SELECT TOP 1 x, COUNT(*) FROM t GROUP BY x ORDER BY y", "SEM013"),
    ("SELECT * FROM (SELECT t.x, u.x FROM t JOIN u ON t.x = u.x) s", "SEM002"),
    ("WITH c AS (SELECT x FROM t) SELECT * FROM c, c", "SEM002"),
    ("SELECT * FROM t t1 JOIN t t2 ON t1.x = t2.x ORDER BY x", "SEM002"),
]


@pytest.fixture
def db():
    database = Database()
    for sql in SCHEMA:
        database.execute(sql)
    return database


@pytest.fixture
def client():
    app = SQLShareApp(run_async=False)
    for sql in SCHEMA:
        app.platform.db.execute(sql)
    return SQLShareClient("alice", app=app)


def _errors(diagnostics):
    return sorted((d["code"], d["span"]["start"]) for d in diagnostics
                  if d["severity"] == ERROR and d["span"] is not None)


@pytest.mark.parametrize("sql,expected", VALID)
def test_valid_statement_analyzes_plans_and_sorts(db, sql, expected):
    assert [d for d in db.check(sql, lint=False) if d.severity == ERROR] == []
    assert db.check_plan(sql) == []
    assert db.execute(sql).rows == expected


@pytest.mark.parametrize("sql,code", INVALID)
def test_invalid_statement_gets_one_verdict_everywhere(db, client, sql, code):
    checked = _errors(d.to_dict() for d in db.check(sql, lint=False))
    assert checked and {c for c, _start in checked} == {code}

    payload = client.check(sql, lint=False)
    assert payload["ok"] is False
    assert _errors(payload["diagnostics"]) == checked

    with pytest.raises(SQLError) as excinfo:
        db.execute(sql)
    assert _errors(d.to_dict() for d in excinfo.value.diagnostics) == checked
    assert "ColumnRef(" not in str(excinfo.value)
    assert db.check_plan(sql) is None


@pytest.mark.parametrize("sql,op,count", [
    ("SELECT x FROM t ORDER BY (x + 1) + y", "ADD", 2),
    ("SELECT x FROM t ORDER BY CAST(y AS INT) + 1", "CAST", 1),
])
def test_order_by_fallback_counts_operators_once(db, sql, op, count):
    assert db.explain(sql).info.expression_ops.count(op) == count


def test_generated_names_depend_on_the_statement_alone(db):
    sql = "SELECT COUNT(*), MAX(x) FROM t"
    first = db.query_schema(sql)
    db.execute("SELECT y, COUNT(*) FROM t GROUP BY y ORDER BY COUNT(*)")
    assert db.query_schema(sql) == first
    assert [name for name, _type in first] == ["Expr1003", "Expr1004"]


def test_dataset_over_a_generated_name_survives_recovery(tmp_path):
    manager = StorageManager(str(tmp_path))
    platform = manager.attach(SQLShare())
    platform.upload("alice", "obs", "x,y\n1,2\n3,4\n")
    platform.run_query("alice", "SELECT COUNT(*), MAX(x) FROM obs")
    platform.create_dataset("alice", "counted", "SELECT COUNT(*) FROM obs")
    [(generated, _type)] = platform.db.query_schema("SELECT * FROM counted")
    platform.create_dataset("alice", "renamed",
                            "SELECT %s AS n FROM counted" % generated)
    manager.close()

    recovered, report = StorageManager(str(tmp_path)).recover()
    assert report.replay_errors == []
    assert recovered.run_query("alice", "SELECT n FROM renamed").rows == [(2,)]


def test_check_reports_a_clean_query_it_cannot_plan(client):
    payload = client.check("SELECT t.x FROM t RIGHT JOIN u ON t.x > u.x")
    assert payload["ok"] is False
    assert "plan_check" not in payload
    [error] = [d for d in payload["diagnostics"] if d["severity"] == ERROR]
    assert "equality join condition" in error["message"]
