"""`repro top`: a plain-text operations dashboard.

Pure rendering — the CLI fetches the REST payloads (runtime stats, health,
alerts, query store) and this module turns them into one screenful of
text.  Keeping rendering free of I/O makes the dashboard testable without
a server and reusable for one-shot (``--once``) snapshots in scripts.
"""

import time

from repro.reporting.tables import format_table

_STATE_MARKS = {"ok": " ", "pending": "~", "firing": "!"}


def _fmt_seconds(value):
    if value is None:
        return "-"
    if value >= 1.0:
        return "%.2fs" % value
    return "%.1fms" % (value * 1000.0)


def render_dashboard(stats, health=None, alerts=None, querystore=None,
                     now=None):
    """One screenful of operational state from the REST payloads."""
    lines = []
    stamp = time.strftime(
        "%H:%M:%S", time.localtime(now if now is not None else time.time()))
    status = (health or {}).get("status", "unknown")
    lines.append("repro top — %s — health: %s" % (stamp, status.upper()))
    lines.append("")

    if "shards" in stats:
        # Cluster payload: a per-shard summary table, then the aggregate
        # figures (the per-process sections below don't apply as one unit).
        return "\n".join(lines + _render_cluster(stats, health=health))

    lines.append("scheduler  workers=%d  queued=%d  running=%d" % (
        stats.get("workers", 0), stats.get("queued", 0),
        stats.get("running", 0)))
    finished = stats.get("finished") or {}
    if finished:
        lines.append("finished   " + "  ".join(
            "%s=%d" % (state.lower(), count)
            for state, count in sorted(finished.items())))
    latency = stats.get("latency") or {}
    exec_latency = latency.get("exec_seconds")
    if exec_latency:
        lines.append("latency    p50=%s  p90=%s  p99=%s  (n=%d)" % (
            _fmt_seconds(exec_latency.get("p50")),
            _fmt_seconds(exec_latency.get("p90")),
            _fmt_seconds(exec_latency.get("p99")),
            exec_latency.get("count", 0)))
    cache = stats.get("cache")
    if cache:
        lines.append("cache      entries=%d  hit_rate=%.1f%%  hits=%d  misses=%d" % (
            cache.get("entries", 0), 100.0 * cache.get("hit_rate", 0.0),
            cache.get("hits", 0), cache.get("misses", 0)))
    qs = querystore or stats.get("querystore")
    if qs:
        lines.append(
            "querystore entries=%d  plan_changes=%d  regressions=%d" % (
                qs.get("entries", 0), qs.get("plan_changes", 0),
                qs.get("regressions", 0)))

    if alerts:
        lines.append("")
        rows = [
            ("%s%s" % (_STATE_MARKS.get(rule["state"], "?"), rule["name"]),
             rule["state"], rule["severity"],
             "-" if rule["value"] is None else "%.4g" % rule["value"],
             "%.4g" % rule["threshold"])
            for rule in alerts.get("alerts", [])
        ]
        if rows:
            lines.append(format_table(
                ["alert", "state", "severity", "value", "threshold"], rows))
        for note in alerts.get("notifications", [])[-5:]:
            lines.append("  %s %s: %s -> %s" % (
                time.strftime("%H:%M:%S", time.localtime(note["epoch"])),
                note["rule"], note["from_state"], note["to_state"]))
    return "\n".join(lines)


def _render_cluster(stats, health=None):
    """Per-shard rows + aggregate line for a cluster stats payload."""
    lines = []
    cluster = stats.get("cluster") or {}
    down = (health or {}).get("shards_down") or cluster.get("down") or []
    lines.append("cluster    shards=%d  down=%s  directory=%d" % (
        cluster.get("shards", len(stats.get("shards", {}))),
        ",".join(str(s) for s in down) if down else "none",
        cluster.get("directory_entries", 0)))
    restarts = {str(w["shard"]): w["restarts"]
                for w in cluster.get("workers", [])}
    rows = []
    for shard in sorted(stats.get("shards", {}), key=int):
        shard_stats = stats["shards"][shard]
        if not shard_stats.get("alive", True):
            rows.append((shard, "DOWN", "-", "-", "-", "-",
                         restarts.get(shard, 0)))
            continue
        finished = shard_stats.get("finished") or {}
        latency = (shard_stats.get("latency") or {}).get("exec_seconds") or {}
        batch = shard_stats.get("batch") or {}
        rows.append((
            shard, "up",
            "%d/%d" % (shard_stats.get("running", 0),
                       shard_stats.get("queued", 0)),
            sum(finished.values()) if isinstance(finished, dict) else finished,
            _fmt_seconds(latency.get("p99")),
            "%d/%d" % (batch.get("queued", 0), batch.get("total", 0)),
            restarts.get(shard, 0),
        ))
    if rows:
        lines.append(format_table(
            ["shard", "state", "run/queue", "finished", "p99",
             "batch q/total", "restarts"], rows))
    aggregate = stats.get("aggregate") or {}
    if aggregate:
        lines.append("aggregate  " + "  ".join(
            "%s=%s" % (key, value)
            for key, value in sorted(aggregate.items())))
    traces = stats.get("cross_shard_traces") or []
    if traces:
        lines.append("")
        lines.append("slowest cross-shard traces (coordinator submit time):")
        lines.append(format_table(
            ["trace", "job", "user", "home", "submit"],
            [(entry.get("trace_id", "?"), entry.get("job_id", "?"),
              entry.get("user", "?"), entry.get("home", "?"),
              "%.1fms" % entry.get("submit_ms", 0.0))
             for entry in traces]))
    return lines


def render_querystore(payload, regressions_only=False):
    """The query store listing `repro querystore` prints."""
    lines = [
        "query store: %d entr%s (%d recorded, %d evicted, "
        "%d plan change%s, %d regression%s)" % (
            payload.get("entries", 0),
            "y" if payload.get("entries") == 1 else "ies",
            payload.get("recorded", 0), payload.get("evictions", 0),
            payload.get("plan_changes", 0),
            "" if payload.get("plan_changes") == 1 else "s",
            payload.get("regressions", 0),
            "" if payload.get("regressions") == 1 else "s"),
    ]
    queries = payload.get("queries", [])
    if not queries:
        lines.append("  (no %s)" % (
            "regressions" if regressions_only else "queries recorded"))
        return "\n".join(lines)
    rows = []
    for entry in queries:
        sql = entry["sql"]
        rows.append((
            entry["fingerprint"],
            entry["executions"],
            entry["errors"],
            entry["cache_hits"],
            len(entry["plans"]),
            "yes" if entry.get("regression") else "",
            sql[:48] + ("..." if len(sql) > 48 else ""),
        ))
    lines.append(format_table(
        ["fingerprint", "execs", "errors", "hits", "plans", "regressed", "sql"],
        rows))
    for entry in queries:
        verdict = entry.get("regression")
        if verdict:
            lines.append(render_regression_verdict(verdict))
    return "\n".join(lines)


def render_regression_verdict(verdict):
    """One regression verdict as a readable block."""
    return (
        "regression %(fingerprint)s: plan %(baseline_plan)s -> "
        "%(regressed_plan)s, mean %(baseline)s -> %(regressed)s "
        "(%(slowdown).1fx over %(n)d vs %(m)d executions)\n  %(sql)s" % {
            "fingerprint": verdict["fingerprint"],
            "baseline_plan": verdict["baseline_plan"],
            "regressed_plan": verdict["regressed_plan"],
            "baseline": _fmt_seconds(verdict["baseline_mean_seconds"]),
            "regressed": _fmt_seconds(verdict["regressed_mean_seconds"]),
            "slowdown": verdict["slowdown"],
            "n": verdict["baseline_executions"],
            "m": verdict["regressed_executions"],
            "sql": verdict["sql"][:100],
        })
