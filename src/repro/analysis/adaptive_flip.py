"""Adaptive re-planning demonstration: the regression flip experiment.

SQLShare's users never tune anything — so when the optimizer's synthetic
selectivity guesses pick a catastrophically wrong join strategy, nobody
files a ticket.  The adaptive loop (``repro.adaptive``) is the automated
answer, and this module is its end-to-end proof:

1. **Plant** a misestimate.  A self-join whose inputs are filtered by
   several always-true ``<>`` predicates compounds the default
   selectivity guesses until the planner believes the join inputs are a
   handful of rows — and picks nested loops over a table where every row
   matches.  The plan is ~10x+ slower than the hash join it should be.
2. **Detect**: after the first real execution the runtime compares the
   plan's root estimate against the actual row count; the q-error blows
   through the bound and the controller schedules a probe.
3. **Probe**: the next execution of the same fingerprint is silently
   upgraded to a profiled run, harvesting per-operator actual
   cardinalities into the feedback store.
4. **Re-plan**: the fingerprint's cached plan is forgotten; the next
   planning pass consults observed cardinalities instead of guesses and
   flips to the hash join.

The experiment reports the per-execution plan/latency trail and how many
executions the correction took (the bound is 20; in practice it is 3).
A second experiment exercises the workload advisor on the same
machinery: a filter-heavy workload earns a clustering
(index) recommendation, an aggregate-view workload earns a
materialization, and both are applied and re-measured.

Surfaced as ``repro advise`` (no ``--url``); the bound is held by
``tests/adaptive/test_replan.py``.
"""

import time

from repro.core.sqlshare import SQLShare
from repro.reporting.tables import format_kv, format_table

#: The planted-misestimate workload: every ``<>`` predicate is true for
#: every row, but each one multiplies the planner's estimate down, so the
#: join inputs look tiny and nested loops wins the cost race.
FLIP_SQL = (
    "select a.id, b.id from "
    "(select * from [sensor_sweep] where flag <> 'synthetic' "
    "and tag <> 'calib') a join "
    "(select * from [sensor_sweep] where flag <> 'dropped' "
    "and tag <> 'test') b on a.k = b.k"
)

#: Acceptance bound from the issue: the flip must land within this many
#: executions of the same statement.
MAX_EXECUTIONS_TO_CORRECT = 20


def _sweep_csv(rows):
    lines = ["id,k,flag,tag"]
    for i in range(rows):
        lines.append("%d,%d,real,obs" % (i, i))
    return "\n".join(lines) + "\n"


def _join_physical(explained):
    """The physical strategy of the topmost join in an explained plan."""
    stack = [explained.plan]
    while stack:
        operator = stack.pop(0)
        if "Join" in operator.logical:
            return operator.physical_name
        stack.extend(operator.subplans)
        stack.extend(operator.children)
    return explained.plan.physical_name


def build_flip_platform(rows=400):
    """A platform holding only the sensor_sweep table."""
    platform = SQLShare()
    platform.upload("ada", "sensor_sweep", _sweep_csv(rows))
    platform.make_public("ada", "sensor_sweep")
    return platform


def run_flip_experiment(rows=400, executions=8, q_error_bound=4.0):
    """Plant, detect, probe, re-plan; returns the full trail as a dict."""
    from repro.runtime import QueryRuntime, RuntimeConfig

    platform = build_flip_platform(rows=rows)
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=0,
        cache_enabled=False,  # every execution must be real
        tracing_enabled=False,
        adaptive_q_error_bound=q_error_bound,
    ))
    trail = []
    corrected_at = None
    initial = _join_physical(platform.db.explain(FLIP_SQL))
    try:
        for execution in range(1, executions + 1):
            planned = _join_physical(platform.db.explain(FLIP_SQL))
            start = time.perf_counter()
            job = runtime.submit("ada", FLIP_SQL, inline=True)
            elapsed = time.perf_counter() - start
            trail.append({
                "execution": execution,
                "plan": planned,
                "seconds": round(elapsed, 6),
                "profiled": job.profile_data is not None,
                "state": job.state,
            })
            if corrected_at is None and planned != initial:
                corrected_at = execution
    finally:
        runtime.shutdown()
    final = _join_physical(platform.db.explain(FLIP_SQL))
    slow = [t["seconds"] for t in trail if t["plan"] == initial
            and not t["profiled"]]
    fast = [t["seconds"] for t in trail if t["plan"] != initial
            and not t["profiled"]]
    return {
        "rows": rows,
        "sql": FLIP_SQL,
        "plan_before": initial,
        "plan_after": final,
        "flipped": final != initial,
        "executions_to_correct": corrected_at,
        "max_executions_allowed": MAX_EXECUTIONS_TO_CORRECT,
        "within_bound": (corrected_at is not None
                         and corrected_at <= MAX_EXECUTIONS_TO_CORRECT),
        "seconds_before": min(slow) if slow else None,
        "seconds_after": min(fast) if fast else None,
        "speedup": (round(min(slow) / min(fast), 2)
                    if slow and fast and min(fast) > 0 else None),
        "trail": trail,
        "adaptive": runtime.adaptive.summary() if runtime.adaptive else None,
    }


# -- the advisor experiment ----------------------------------------------------


def _readings_csv(sites=80, rows_per_site=40):
    lines = ["site,val"]
    for site in range(sites):
        for row in range(rows_per_site):
            lines.append("s%d,%d" % (site, row))
    return "\n".join(lines) + "\n"


def build_advisor_platform(sites=80, rows_per_site=40):
    """A platform with a filter-heavy base table and an aggregate view."""
    platform = SQLShare()
    platform.upload("ada", "readings", _readings_csv(sites, rows_per_site))
    platform.make_public("ada", "readings")
    platform.create_dataset(
        "ada", "site_totals",
        "SELECT site, COUNT(*) AS n, SUM(val) AS total "
        "FROM [readings] GROUP BY site")
    platform.make_public("ada", "site_totals")
    return platform


def _time_query(platform, user, sql, repeats=3):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        platform.run_query(user, sql)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_advisor_experiment(sites=80, rows_per_site=40, repeats=4):
    """Workload → recommendations → apply → re-measure; returns a dict."""
    from repro.adaptive import WorkloadAdvisor
    from repro.runtime import QueryRuntime, RuntimeConfig

    platform = build_advisor_platform(sites, rows_per_site)
    index_sql = "SELECT val FROM [readings] WHERE site = 's17'"
    mv_sql = "SELECT * FROM [site_totals]"
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=0, cache_enabled=False, tracing_enabled=False))
    try:
        for _ in range(repeats):
            runtime.submit("ada", index_sql, inline=True)
            runtime.submit("ada", mv_sql, inline=True)
        advisor = WorkloadAdvisor(platform, query_store=runtime.query_store)
        report = advisor.recommendations(top=10, min_executions=2)
        recommendations = report["recommendations"]
        index_recs = [r for r in recommendations if r["kind"] == "index"]
        mv_recs = [r for r in recommendations if r["kind"] == "materialize"]
        before = {
            "index_query_seconds": _time_query(platform, "ada", index_sql),
            "mv_query_seconds": _time_query(platform, "ada", mv_sql),
        }
        applied = []
        for recommendation in index_recs[:1] + mv_recs[:1]:
            applied.append(advisor.apply(recommendation))
        after = {
            "index_query_seconds": _time_query(platform, "ada", index_sql),
            "mv_query_seconds": _time_query(platform, "ada", mv_sql),
        }
    finally:
        runtime.shutdown()
    return {
        "queries_considered": report["queries_considered"],
        "recommendations": recommendations,
        "index_recommendations": len(index_recs),
        "mv_recommendations": len(mv_recs),
        "applied": applied,
        "before": before,
        "after": after,
        "index_speedup": (round(before["index_query_seconds"]
                                / after["index_query_seconds"], 2)
                          if after["index_query_seconds"] > 0 else None),
        "mv_speedup": (round(before["mv_query_seconds"]
                             / after["mv_query_seconds"], 2)
                       if after["mv_query_seconds"] > 0 else None),
    }


def analyze_adaptive(rows=400, executions=8):
    """Both experiments in one report (the ``repro advise`` local path)."""
    return {
        "flip": run_flip_experiment(rows=rows, executions=executions),
        "advisor": run_advisor_experiment(),
    }


def _seconds(value):
    return "%.4f" % value if value is not None else "n/a"


def render_adaptive(report):
    """The combined report as readable text."""
    flip = report["flip"]
    out = [format_kv({
        "table rows": flip["rows"],
        "plan before": flip["plan_before"],
        "plan after": flip["plan_after"],
        "corrected at execution": flip["executions_to_correct"],
        "bound": flip["max_executions_allowed"],
        "slow plan (s)": _seconds(flip["seconds_before"]),
        "fast plan (s)": _seconds(flip["seconds_after"]),
        "speedup": flip["speedup"],
    }, title="adaptive re-planning: planted regression flip")]
    out.append(format_table(
        ["exec", "plan", "seconds", "profiled"],
        [(t["execution"], t["plan"], "%.4f" % t["seconds"],
          "probe" if t["profiled"] else "")
         for t in flip["trail"]],
        title="execution trail"))
    advisor = report["advisor"]
    out.append(format_table(
        ["rank", "kind", "dataset", "column", "freq", "score"],
        [(r["rank"], r["kind"], r["dataset"], r.get("column", ""),
          r["frequency"], "%.1f" % r["score"])
         for r in advisor["recommendations"]],
        title="workload advisor recommendations"))
    out.append(format_kv({
        "index query before (s)": _seconds(
            advisor["before"]["index_query_seconds"]),
        "index query after (s)": _seconds(
            advisor["after"]["index_query_seconds"]),
        "index speedup": advisor["index_speedup"],
        "view query before (s)": _seconds(
            advisor["before"]["mv_query_seconds"]),
        "view query after (s)": _seconds(
            advisor["after"]["mv_query_seconds"]),
        "view speedup": advisor["mv_speedup"],
    }, title="advisor apply: measured effect"))
    return "\n\n".join(out)
