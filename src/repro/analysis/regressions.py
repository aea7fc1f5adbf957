"""Plan-regression detection over a replayed workload.

The paper's longitudinal stance, applied to the optimizer: as a deployment
ages, tables grow, statistics drift, and the planner starts choosing
different physical plans for the *same* query text.  Most such changes are
improvements (that is why the optimizer re-plans); the dangerous ones are
regressions — the new plan is measurably slower than the baseline the old
plan had established.  SQL Server's Query Store made hunting these a
first-class DBA workflow; this analysis runs that workflow over our
synthetic deployment:

1. replay a slice of the logged workload several times with the result
   cache disabled, so every round executes for real and each query's
   current plan accumulates an established latency baseline;
2. perturb the deployment by growing every base table the replayed
   queries touch (repeated ``INSERT INTO t SELECT * FROM t`` — the
   catalog's live row counts are what the cost model reads, so growth is
   what flips scan/join strategies);
3. replay the same slice again and ask the Query Store which fingerprints
   changed plans and which of those changes were regressions.

The report feeds ``repro querystore --regressions`` style output and the
EXPERIMENTS.md regression-detection experiment.
"""

from repro.obs.querystore import QueryStore
from repro.reporting.dashboard import render_regression_verdict
from repro.reporting.tables import format_kv, format_table
from repro.runtime import QueryRuntime, RuntimeConfig
from repro.synth.driver import build_sqlshare_deployment, replayable_queries


def _referenced_tables(platform, queries):
    """Base tables the replayed queries actually read (by log entry)."""
    wanted = {sql for _user, sql in queries}
    catalog = platform.db.catalog
    names = set()
    for entry in platform.log.successful():
        if entry.sql in wanted:
            for name in entry.tables:
                if catalog.has_table(name):
                    names.add(name.lower())
    return sorted(names)


def grow_tables(platform, names, doublings=3, max_rows=20000):
    """Grow tables in place by repeated self-insert; returns what changed.

    ``INSERT INTO t SELECT * FROM t`` goes through the engine, so row
    counts, catalog versions and cache invalidation all behave exactly as
    a real mutation — which is the point: the planner must see the growth
    the same way it would in production.
    """
    grown = []
    catalog = platform.db.catalog
    for name in names:
        if not catalog.has_table(name):
            continue
        table = catalog.get_table(name)
        before = len(table.rows)
        if before == 0:
            continue
        for _ in range(doublings):
            if len(table.rows) * 2 > max_rows:
                break
            platform.db.execute('INSERT INTO "%s" SELECT * FROM "%s"'
                                % (table.name, table.name))
        after = len(table.rows)
        if after != before:
            grown.append({"table": table.name, "rows_before": before,
                          "rows_after": after})
    return grown


def analyze_regressions(platform=None, limit=60, rounds=6, doublings=3,
                        max_rows=20000, min_executions=None, scale=None):
    """Replay → grow → replay; returns the workload-wide regression report.

    ``rounds`` is the number of replays on each side of the perturbation;
    it must be at least the store's ``min_executions`` or no baseline ever
    establishes (the default store needs 5).
    """
    if platform is None:
        platform, _generator = build_sqlshare_deployment(scale=scale)
    queries = replayable_queries(platform, limit=limit)
    # A dedicated store isolates the experiment from any ambient runtime
    # history; min_executions defaults to "every pre-growth round counts".
    platform.query_store = QueryStore(
        min_executions=min_executions if min_executions is not None
        else min(rounds, 5))
    # One serial runtime for every round.  Cache disabled: every round
    # must execute for real, otherwise the baselines would be one execution
    # plus (rounds - 1) cache hits.  Adaptive re-planning off: this
    # experiment measures *detection* of a planted regression, so the loop
    # must not correct it mid-run.
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=0, cache_enabled=False, tracing_enabled=False,
        adaptive_enabled=False))

    def replay():
        for _ in range(rounds):
            for user, sql in queries:
                runtime.submit(user, sql, source="replay", inline=True)

    replay()
    store = runtime.query_store
    changes_before = store.plan_changes
    grown = grow_tables(platform, _referenced_tables(platform, queries),
                        doublings=doublings, max_rows=max_rows)
    replay()
    changed = [
        entry.to_dict(store.min_executions, store.regression_factor)
        for entry in store.entries() if entry.plan_changes
    ]
    return {
        "queries_replayed": len(queries),
        "rounds": rounds,
        "grown_tables": grown,
        "plan_changes": store.plan_changes - changes_before,
        "changed_queries": changed,
        "regressions": store.regressions(),
        "store": store.summary(),
    }


def render_regressions(report):
    """The regression report as readable text."""
    out = [format_kv({
        "queries replayed": report["queries_replayed"],
        "rounds each side": report["rounds"],
        "tables grown": len(report["grown_tables"]),
        "plan changes": report["plan_changes"],
        "regressions": len(report["regressions"]),
    }, title="plan-regression detection (replay / grow / replay)")]
    if report["grown_tables"]:
        out.append(format_table(
            ["table", "rows before", "rows after"],
            [(g["table"], g["rows_before"], g["rows_after"])
             for g in report["grown_tables"][:15]],
            title="perturbation"))
    if report["changed_queries"]:
        out.append(format_table(
            ["fingerprint", "plans", "execs", "regressed", "sql"],
            [(entry["fingerprint"], len(entry["plans"]), entry["executions"],
              "yes" if entry["regression"] else "",
              entry["sql"][:44] + ("..." if len(entry["sql"]) > 44 else ""))
             for entry in report["changed_queries"][:20]],
            title="queries whose plan changed"))
    for verdict in report["regressions"]:
        out.append(render_regression_verdict(verdict))
    if not report["plan_changes"]:
        out.append("no plans changed — the perturbation did not move the "
                   "cost model (try more doublings or a larger workload)")
    return "\n\n".join(out)
