"""A cardinality-feedback view belongs to the one plan it was passed to.

The planner is shared by every thread of a database.  Two plans that run
at once must each cost with their own feedback view, and a plan given no
view must see none, whatever ran before it.
"""

import threading

from repro.engine import parser, semantic
from repro.engine.database import Database

SQL = ("SELECT a.k, COUNT(*) AS n FROM a JOIN b ON a.k = b.k "
       "WHERE a.v > 3 GROUP BY a.k")
TIMEOUT = 10


class _Recording(object):
    """A feedback view that records which threads consult it and runs
    ``pause`` at its first consultation."""

    def __init__(self, pause):
        self.callers = []
        self._pause = pause

    def estimate_for(self, operator):
        self.callers.append(threading.current_thread().name)
        if len(self.callers) == 1:
            self._pause()
        return None


def _database():
    db = Database()
    db.execute("CREATE TABLE a (k INT, v INT)")
    db.execute("CREATE TABLE b (k INT, w INT)")
    for i in range(20):
        db.execute("INSERT INTO a VALUES (%d, %d)" % (i % 5, i))
        db.execute("INSERT INTO b VALUES (%d, %d)" % (i % 7, i))
    return db


def test_concurrent_plans_keep_their_own_feedback():
    db = _database()
    planner = db.planner

    def analysis():
        return semantic.analyze(parser.parse(SQL), db.catalog)

    a_mid_plan = threading.Barrier(2, timeout=TIMEOUT)
    both_mid_plan = threading.Barrier(2, timeout=TIMEOUT)
    a_done = threading.Barrier(2, timeout=TIMEOUT)

    def pause_a():
        a_mid_plan.wait()       # B may start now
        both_mid_plan.wait()    # B is mid-plan with its own view

    def pause_b():
        both_mid_plan.wait()
        a_done.wait()           # hold B mid-plan until A has finished

    view_a = _Recording(pause_a)
    view_b = _Recording(pause_b)
    errors = []

    def run_a():
        try:
            planner.plan(analysis(), feedback=view_a)
            a_done.wait()
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def run_b():
        try:
            a_mid_plan.wait()
            planner.plan(analysis(), feedback=view_b)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run_a, name="A"),
               threading.Thread(target=run_b, name="B")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(2 * TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert set(view_b.callers) == {"B"}
    assert set(view_a.callers) == {"A"}
    assert len(view_a.callers) > 1  # A went on planning after B began

    # A plan given no view sees neither of them afterwards.
    consulted = len(view_a.callers), len(view_b.callers)
    planner.plan(analysis())
    db.execute("CREATE VIEW later AS " + SQL)
    assert (len(view_a.callers), len(view_b.callers)) == consulted
