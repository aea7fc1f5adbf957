"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``demo``    — run the quickstart workflow and print the results.
- ``analyze`` — generate a deployment and print the paper's tables/figures.
- ``serve``   — start the REST API over a freshly generated deployment
  (``--shards N`` scales out across N worker processes behind a
  coordinator).
- ``cluster`` — inspect a running cluster (``cluster status``).
- ``export``  — write an anonymized corpus release to a directory.
- ``lint``    — statically check SQL files (or stdin) without executing.
- ``selfcheck`` — concurrency lint (lock discipline) over this codebase.
- ``profile`` — EXPLAIN ANALYZE a statement (estimated vs actual rows per
  operator), or report q-error over a generated workload.
- ``checkpoint`` — force a snapshot checkpoint on a data directory.
- ``recover``    — rebuild a platform from a data directory and report (or
  ``--verify`` round-trip) the recovered state.
- ``top``        — live terminal dashboard over a running server's
  scheduler stats, alerts and health.
- ``logs``       — merged structured event log of a serve data directory
  (coordinator + every shard, one timeline), filterable by trace id,
  user or event kind, with ``--follow`` tailing.
- ``querystore`` — per-fingerprint runtime history and plan regressions,
  from a running server (``--url``) or a local replay/grow/replay
  experiment.
- ``advise``     — workload-driven physical-design advisor: ranked index
  and materialization recommendations with opt-in ``--apply``, from a
  running server (``--url``) or a local plant→detect→re-plan demo.
"""

import argparse
import sys


def _cmd_demo(_args):
    from examples import quickstart  # noqa: F401  (examples on sys.path)

    quickstart.main()
    return 0


def _cmd_analyze(args):
    sys.path.insert(0, "benchmarks")
    from benchmarks import run_all

    run_all.main(args.scale)
    return 0


def _generate(scale):
    from repro.synth.driver import build_sqlshare_deployment

    print("generating deployment at scale %.2f..." % scale)
    platform, generator = build_sqlshare_deployment(scale=scale)
    print("  %(uploads)d uploads, %(queries)d logged queries" % generator.stats)
    return platform


def _cmd_serve(args):
    from repro.runtime import RuntimeConfig
    from repro.server.rest import serve

    if args.shards > 1:
        return _serve_cluster(args)
    platform = None
    if args.data_dir:
        from repro.storage import StorageManager

        manager = StorageManager(
            args.data_dir, sync=args.wal_sync,
            auto_checkpoint_records=args.checkpoint_every or None)
        if manager.has_state():
            print("recovering from %s..." % args.data_dir)
            platform, report = manager.recover()
            print("  snapshot %s + %d replayed record(s)"
                  " (%d torn dropped) in %.3fs"
                  % (report.to_dict()["snapshot"], report.records_replayed,
                     report.torn_records_dropped, report.elapsed_seconds))
        else:
            platform = _generate(args.scale) if args.scale > 0 else None
            if platform is not None:
                manager.adopt(platform)
                print("  checkpointed into %s" % args.data_dir)
            else:
                from repro.core.sqlshare import SQLShare

                platform = manager.attach(SQLShare())
    elif args.scale > 0:
        platform = _generate(args.scale)
    if args.data_dir:
        # Single-node structured event log beside the WAL, where `repro
        # logs --data-dir` expects it (clusters configure per process).
        import os

        from repro.obs import events

        events.configure(
            path=os.path.join(args.data_dir, events.EVENTS_FILE),
            process="server")
    config = RuntimeConfig(
        max_workers=4,
        monitor_enabled=not args.no_monitor,
        monitor_interval=args.monitor_interval,
    )
    server = serve(platform, host=args.host, port=args.port,
                   runtime_config=config)
    print("SQLShare REST API listening on http://%s:%d "
          "(X-SQLShare-User header selects the identity)"
          % (args.host, server.server_address[1]))
    if config.monitor_enabled:
        print("continuous monitoring on: /api/v1/health, /api/v1/timeseries,"
              " /api/v1/querystore, /api/v1/alerts (sample every %.1fs)"
              % config.monitor_interval)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _serve_cluster(args):
    """``repro serve --shards N``: coordinator + N worker processes."""
    import signal

    from repro.cluster.app import serve_cluster
    from repro.cluster.coordinator import ClusterCoordinator

    if not args.data_dir and not args.ephemeral:
        print("error: --shards requires --data-dir (each shard gets its own "
              "WAL/snapshot directory under it); add --ephemeral to run "
              "without durability", file=sys.stderr)
        return 2
    coordinator = ClusterCoordinator(
        args.shards,
        args.data_dir or ".repro-cluster",
        scale=args.scale,
        ephemeral=args.ephemeral,
        wal_sync=args.wal_sync,
        workers=args.shard_workers,
        checkpoint_every=args.checkpoint_every,
        monitor_interval=args.monitor_interval,
    )
    # A plain `kill` of the coordinator must not orphan N worker
    # processes: route SIGTERM through the same shutdown path as ^C.
    signal.signal(signal.SIGTERM, lambda _sig, _frm: sys.exit(0))
    print("starting %d shard worker(s)..." % args.shards)
    coordinator.start()
    try:
        for worker in coordinator.status()["workers"]:
            print("  shard %d: pid %d, port %d (%s)"
                  % (worker["shard"], worker["pid"], worker["port"],
                     worker["data_dir"]))
        server = serve_cluster(coordinator, host=args.host, port=args.port)
        print("SQLShare cluster API listening on http://%s:%d "
              "(%d shards; X-SQLShare-User selects identity and home shard)"
              % (args.host, server.server_address[1], args.shards))
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down cluster")
    finally:
        # Covers bind failures too: a coordinator that already spawned
        # workers must never leak them when the front-door port is taken.
        coordinator.stop()
    return 0


def _cmd_cluster(args):
    """``repro cluster status``: one-shot cluster topology report."""
    import json

    from repro.server.client import ClientError, SQLShareClient

    client = SQLShareClient(args.user, base_url=args.url)
    try:
        payload = client._call("GET", "/api/v1/cluster/status")
    except ClientError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    down = payload.get("down", [])
    print("cluster: %d shard(s), %d down, %d directory entries"
          % (payload["shards"], len(down), payload["directory_entries"]))
    for worker in payload["workers"]:
        print("  shard %d: %s pid=%s port=%s restarts=%d"
              % (worker["shard"],
                 "up  " if worker["alive"] else "DOWN",
                 worker["pid"], worker["port"], worker["restarts"]))
    return 1 if down else 0


def _cmd_export(args):
    from repro.synth.driver import build_sqlshare_deployment
    from repro.workload.extract import WorkloadAnalyzer
    from repro.workload.release import export_corpus

    print("generating deployment at scale %.2f..." % args.scale)
    platform, _generator = build_sqlshare_deployment(scale=args.scale)
    print("attaching plans...")
    WorkloadAnalyzer(platform).analyze()
    manifest = export_corpus(
        platform, args.out, anonymize=not args.identified
    )
    print("wrote corpus release to %s: %s" % (args.out, manifest))
    return 0


def _render_diagnostic(diagnostic, text, path):
    """One finding as ``path:line:col: [CODE] severity: message`` plus a
    caret line pointing into the source."""
    lines = []
    span = diagnostic.span
    where = path
    if span is not None and span.line:
        where = "%s:%d:%d" % (path, span.line, span.col)
    lines.append("%s: [%s] %s: %s"
                 % (where, diagnostic.code, diagnostic.severity,
                    diagnostic.message))
    if span is not None and span.line:
        source_lines = text.splitlines()
        if 0 < span.line <= len(source_lines):
            source_line = source_lines[span.line - 1].replace("\t", " ")
            lines.append("    " + source_line)
            width = max(1, span.end - span.start)
            # Clamp the underline to the rest of the line (spans may cover
            # several lines; the caret marks where they start).
            width = max(1, min(width, len(source_line) - span.col + 1))
            lines.append("    " + " " * (span.col - 1) + "^" * width)
    return "\n".join(lines)


def _cmd_lint(args):
    from repro.engine.database import Database
    from repro.lint import lint_text

    db = Database()
    sources = []
    try:
        if args.ddl:
            with open(args.ddl) as handle:
                sources.append((args.ddl, handle.read(), True))
        for path in args.files:
            if path == "-":
                sources.append(("<stdin>", sys.stdin.read(), False))
            else:
                with open(path) as handle:
                    sources.append((path, handle.read(), False))
    except OSError as error:
        print("error: cannot read %r: %s"
              % (error.filename, error.strerror), file=sys.stderr)
        return 2
    if not sources:
        print("nothing to lint", file=sys.stderr)
        return 2
    errors = 0
    total = 0
    for path, text, ddl_only in sources:
        findings = lint_text(text, db, lint=not args.no_lint)
        if ddl_only:
            # The --ddl file only sets up the catalog; still report its
            # errors (a broken schema makes everything downstream noise).
            findings = [d for d in findings if d.severity == "error"]
        for diagnostic in findings:
            total += 1
            if diagnostic.severity == "error":
                errors += 1
            print(_render_diagnostic(diagnostic, text, path))
        if args.explain and not ddl_only:
            # Static plan verdict per query (lint_text above already
            # applied the script's DDL, so queries plan against it).
            from repro.lint import split_statements

            for offset, stmt_text in split_statements(text):
                violations = db.check_plan(stmt_text.strip())
                if violations is None:
                    continue
                line = text.count("\n", 0, offset) + 1
                if not violations:
                    print("%s:%d: plan check ok" % (path, line))
                    continue
                for violation in violations:
                    total += 1
                    errors += 1
                    print("%s:%d: [%s] error: %s at %s (path %s)"
                          % (path, line, violation.code, violation.message,
                             violation.operator, violation.path))
    print("%d finding%s (%d error%s)"
          % (total, "" if total == 1 else "s",
             errors, "" if errors == 1 else "s"))
    return 1 if errors else 0


def _cmd_selfcheck(args):
    import os

    from repro.check import analyze_paths, format_baseline, load_baseline

    root = os.path.abspath(args.root) if args.root else os.getcwd()
    findings = analyze_paths(args.paths, root=root)
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(format_baseline(findings))
        print("wrote %d accepted finding key(s) to %s"
              % (len(set(f.key for f in findings)), args.write_baseline))
        return 0
    baseline = load_baseline(args.baseline) if args.baseline else set()
    fresh = [f for f in findings if f.key not in baseline]
    for finding in fresh:
        print("%s:%d: [%s] %s: %s  (%s)"
              % (finding.path, finding.line, finding.code, finding.severity,
                 finding.message, finding.scope))
    accepted = len(findings) - len(fresh)
    print("%d finding%s (%d accepted by baseline)"
          % (len(fresh), "" if len(fresh) == 1 else "s", accepted))
    return 1 if fresh else 0


def _cmd_profile(args):
    from repro.analysis.estimation import analyze_estimation, render_estimation
    from repro.engine.database import Database
    from repro.lint import split_statements

    if args.workload:
        from repro.synth.driver import build_sqlshare_deployment

        print("generating deployment at scale %.2f..." % args.scale)
        platform, _generator = build_sqlshare_deployment(scale=args.scale)
        report = analyze_estimation(platform, limit=args.limit)
        print(render_estimation(report))
        return 0

    if args.sql is None:
        print("error: provide a SQL statement (or --workload)", file=sys.stderr)
        return 2
    text = sys.stdin.read() if args.sql == "-" else args.sql

    db = Database()
    try:
        if args.ddl:
            with open(args.ddl) as handle:
                for _offset, statement in split_statements(handle.read()):
                    db.execute(statement)
    except OSError as error:
        print("error: cannot read %r: %s"
              % (error.filename, error.strerror), file=sys.stderr)
        return 2

    from repro.errors import SQLError
    from repro.obs.profiler import render_explain_analyze
    from repro.obs.tracing import Trace

    exit_code = 0
    for _offset, statement in split_statements(text):
        trace = Trace("cli")
        try:
            result = db.execute(statement, trace=trace, profile=True)
        except SQLError as error:
            print("error: %s" % error, file=sys.stderr)
            exit_code = 1
            continue
        if result.profile is None:
            print("-- %s: %d row(s), nothing to profile (not a SELECT)"
                  % (statement.split(None, 1)[0].upper(), len(result.rows)))
            continue
        print(render_explain_analyze(result.profile))
        phases = ", ".join(
            "%s %.3fms" % (span.name, span.duration * 1000.0)
            for span in trace.spans()
        )
        print("phases: %s" % phases)
    return exit_code


def _cmd_top(args):
    import time as _time

    from repro.reporting.dashboard import render_dashboard
    from repro.server.client import ClientError, SQLShareClient

    client = SQLShareClient(args.user, base_url=args.url)

    def fetch():
        stats = client.runtime_stats()
        health = client.health()
        try:
            alerts = client.alerts()
        except ClientError:
            alerts = None  # monitoring disabled on the server
        return render_dashboard(stats, health=health, alerts=alerts)

    try:
        if args.once:
            print(fetch())
            return 0
        while True:
            # ANSI clear + home; plain reprint keeps dumb terminals usable.
            print("\033[2J\033[H" + fetch(), flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0
    except ClientError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


def _render_event(record):
    """One event record as a terminal line: time, process, event, then
    the correlation keys and structured fields as ``key=value`` pairs."""
    import datetime

    try:
        stamp = datetime.datetime.fromtimestamp(
            record.get("ts", 0.0)).strftime("%H:%M:%S.%f")[:-3]
    except (OverflowError, OSError, ValueError):
        stamp = "??:??:??.???"
    parts = ["%s %-11s %-10s" % (stamp, record.get("process", "?"),
                                 record.get("event", "?"))]
    if record.get("trace_id"):
        parts.append("trace=%s" % record["trace_id"])
    if record.get("user"):
        parts.append("user=%s" % record["user"])
    if record.get("fingerprint"):
        parts.append("fp=%s" % record["fingerprint"])
    rendered = ("ts", "event", "process", "seq", "trace_id", "user",
                "fingerprint")
    for key in sorted(record):
        if key in rendered:
            continue
        value = record[key]
        if value is not None:
            parts.append("%s=%s" % (key, value))
    return " ".join(parts)


def _cmd_logs(args):
    """``repro logs``: one merged timeline over every event log under a
    serve data directory (coordinator + shards), oldest first."""
    import json

    from repro.obs import events

    paths = events.cluster_log_paths(args.data_dir)
    if not paths:
        print("no event logs under %s (is it a --data-dir a server wrote "
              "to?)" % args.data_dir, file=sys.stderr)
        return 2
    emit = ((lambda record: print(json.dumps(record, sort_keys=True,
                                             default=str)))
            if args.json else (lambda record: print(_render_event(record))))
    if args.follow:
        try:
            for record in events.follow_events(
                    paths, trace_id=args.trace, user=args.user,
                    event=args.event):
                emit(record)
        except KeyboardInterrupt:
            print()
        return 0
    records = events.read_events(paths, trace_id=args.trace,
                                 user=args.user, event=args.event)
    if args.limit and len(records) > args.limit:
        records = records[-args.limit:]
    for record in records:
        emit(record)
    return 0


def _cmd_querystore(args):
    from repro.reporting.dashboard import render_querystore

    if args.url:
        from repro.server.client import ClientError, SQLShareClient

        client = SQLShareClient(args.user, base_url=args.url)
        try:
            if args.fingerprint:
                payload = client.querystore(fingerprint=args.fingerprint)
                import json

                print(json.dumps(payload, indent=2, sort_keys=True, default=str))
                return 0
            payload = client.querystore(regressions=args.regressions,
                                        limit=args.limit)
        except ClientError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
        print(render_querystore(payload, regressions_only=args.regressions))
        return 0 if not (args.regressions and payload["queries"]) else 3

    # No server: run the replay/grow/replay regression experiment locally.
    from repro.analysis.regressions import analyze_regressions, render_regressions

    report = analyze_regressions(limit=args.limit, scale=args.scale)
    print(render_regressions(report))
    if args.regressions:
        return 3 if report["regressions"] else 0
    return 0


def _cmd_advise(args):
    import json

    if args.url:
        from repro.reporting.tables import format_table
        from repro.server.client import ClientError, SQLShareClient

        client = SQLShareClient(args.user, base_url=args.url)
        try:
            payload = client.advisor(limit=args.top,
                                     min_executions=args.min_executions)
        except ClientError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
        recommendations = payload["recommendations"]
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        else:
            if not recommendations:
                print("no recommendations (need >= %d executions per "
                      "fingerprint; run more workload first)"
                      % payload["min_executions"])
            else:
                print(format_table(
                    ["rank", "kind", "dataset", "column", "freq", "score",
                     "action"],
                    [(r["rank"], r["kind"], r["dataset"],
                      r.get("column", ""), r["frequency"],
                      "%.1f" % r["score"], r["action"])
                     for r in recommendations],
                    title="workload advisor (%d queries considered)"
                          % payload["queries_considered"]))
        if not args.apply:
            return 0
        failures = 0
        for recommendation in recommendations:
            try:
                outcome = client.advisor_apply(recommendation,
                                               dry_run=args.dry_run)
            except ClientError as error:
                failures += 1
                print("apply %s [%s]: error: %s"
                      % (recommendation["kind"], recommendation["dataset"],
                         error), file=sys.stderr)
                continue
            print("apply %s [%s]: %s"
                  % (recommendation["kind"], recommendation["dataset"],
                     "dry run ok" if outcome.get("dry_run") else "applied"))
        return 1 if failures else 0

    # No server: run the full plant -> detect -> probe -> re-plan flip
    # plus the advisor apply experiment on a purpose-built deployment.
    from repro.analysis.adaptive_flip import analyze_adaptive, render_adaptive

    report = analyze_adaptive()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_adaptive(report))
    return 0 if report["flip"]["within_bound"] else 1


def _cmd_checkpoint(args):
    import json

    from repro.storage import StorageManager

    manager = StorageManager(args.data_dir, sync=args.wal_sync)
    if not manager.has_state():
        print("error: %s holds no recoverable state" % args.data_dir,
              file=sys.stderr)
        return 2
    manager.recover()
    stats = manager.checkpoint()
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_recover(args):
    import json

    from repro.storage import StorageManager, state_digest

    manager = StorageManager(args.data_dir, sync=args.wal_sync)
    if not manager.has_state():
        print("error: %s holds no recoverable state" % args.data_dir,
              file=sys.stderr)
        return 2
    platform, report = manager.recover(strict=not args.lenient)
    payload = {
        "report": report.to_dict(),
        "summary": platform.summary(),
        "digest": state_digest(platform),
    }
    if args.verify:
        # Round-trip: checkpoint the recovered platform into a scratch
        # directory, recover *that*, and require digest equality — proof
        # the recovered state serializes losslessly.
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            probe = StorageManager(scratch)
            probe.attach(platform)
            probe.checkpoint()
            manager.attach(platform)  # re-point the hooks at the real WAL
            replica, _ = probe.recover()
            payload["verify"] = {
                "digest": state_digest(replica),
                "ok": state_digest(replica) == payload["digest"],
            }
        if not payload["verify"]["ok"]:
            print(json.dumps(payload, indent=2, sort_keys=True))
            print("error: recovered state failed round-trip verification",
                  file=sys.stderr)
            return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQLShare reproduction (SIGMOD 2016) command-line tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the quickstart workflow")

    analyze = commands.add_parser("analyze", help="regenerate the paper's results")
    analyze.add_argument("--scale", type=float, default=0.05,
                         help="workload scale (1.0 ~ paper size; default 0.05)")

    serve = commands.add_parser("serve", help="start the REST API")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--scale", type=float, default=0.0,
                       help="pre-populate with a generated deployment (0 = empty)")
    serve.add_argument("--data-dir", default=None,
                       help="durable data directory: recover from it on start, "
                            "write-ahead log every mutation into it")
    serve.add_argument("--wal-sync", choices=["buffered", "fsync"],
                       default="buffered",
                       help="WAL durability: 'buffered' survives a killed "
                            "process, 'fsync' survives power loss (default "
                            "buffered)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="auto-checkpoint after this many WAL records "
                            "(0 = only on POST /api/v1/checkpoint)")
    serve.add_argument("--no-monitor", action="store_true",
                       help="disable the continuous monitor (sampler + alerts)")
    serve.add_argument("--monitor-interval", type=float, default=5.0,
                       help="seconds between metrics samples (default 5)")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard the deployment across this many worker "
                            "processes behind a coordinator (default 1 = "
                            "single process)")
    serve.add_argument("--shard-workers", type=int, default=4,
                       help="interactive worker threads per shard (default 4)")
    serve.add_argument("--ephemeral", action="store_true",
                       help="with --shards: run workers without WAL/snapshots")

    cluster = commands.add_parser(
        "cluster", help="inspect a running cluster coordinator")
    cluster_commands = cluster.add_subparsers(dest="cluster_command",
                                              required=True)
    cluster_status = cluster_commands.add_parser(
        "status", help="shard topology, liveness and restart counts")
    cluster_status.add_argument("--url", default="http://127.0.0.1:8080",
                                help="coordinator base URL "
                                     "(default http://127.0.0.1:8080)")
    cluster_status.add_argument("--user", default="operator")
    cluster_status.add_argument("--json", action="store_true",
                                help="dump the raw status payload as JSON")

    top = commands.add_parser(
        "top", help="live terminal dashboard over a running server")
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="server base URL (default http://127.0.0.1:8080)")
    top.add_argument("--user", default="operator",
                     help="identity for the X-SQLShare-User header")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default 2)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen clearing)")

    logs = commands.add_parser(
        "logs",
        help="merged structured event log of a serve data directory "
             "(coordinator + every shard, one ordered timeline)")
    logs.add_argument("--data-dir", default=".repro-cluster",
                      help="the --data-dir a server wrote to "
                           "(default .repro-cluster)")
    logs.add_argument("--trace", default=None,
                      help="only events stamped with this trace id")
    logs.add_argument("--user", default=None,
                      help="only events for this user")
    logs.add_argument("--event", default=None,
                      help="only this event kind (submit, route, shard_op, "
                           "cache_hit, cache_miss, batch, respawn, alert, "
                           "finish, probe, replan, regression)")
    logs.add_argument("--limit", type=int, default=200,
                      help="keep the newest N merged events (default 200; "
                           "0 = all)")
    logs.add_argument("--follow", action="store_true",
                      help="keep tailing the logs after the replay "
                           "(Ctrl-C stops)")
    logs.add_argument("--json", action="store_true",
                      help="raw JSON records instead of rendered lines")

    querystore = commands.add_parser(
        "querystore",
        help="per-fingerprint runtime history and plan regressions "
             "(from a server with --url, or a local replay experiment)")
    querystore.add_argument("--url", default=None,
                            help="read a running server's query store "
                                 "instead of replaying locally")
    querystore.add_argument("--user", default="operator")
    querystore.add_argument("--fingerprint", default=None,
                            help="dump one entry's full history as JSON "
                                 "(requires --url)")
    querystore.add_argument("--regressions", action="store_true",
                            help="only regressed queries; exit 3 when any "
                                 "are found")
    querystore.add_argument("--limit", type=int, default=50,
                            help="max queries listed / replayed (default 50)")
    querystore.add_argument("--scale", type=float, default=0.05,
                            help="deployment scale for the local experiment "
                                 "(default 0.05)")

    advise = commands.add_parser(
        "advise",
        help="workload-driven advisor: ranked index/materialization "
             "recommendations (from a server with --url, or a local "
             "adaptive re-planning demo)")
    advise.add_argument("--url", default=None,
                        help="read a running server's workload instead of "
                             "running the local experiment")
    advise.add_argument("--user", default="operator",
                        help="identity for the X-SQLShare-User header; "
                             "--apply runs ownership checks as this user")
    advise.add_argument("--top", type=int, default=10,
                        help="max recommendations listed (default 10)")
    advise.add_argument("--min-executions", type=int, default=2,
                        dest="min_executions",
                        help="frequency floor per fingerprint (default 2)")
    advise.add_argument("--apply", action="store_true",
                        help="opt-in: apply every listed recommendation "
                             "(requires --url)")
    advise.add_argument("--dry-run", action="store_true",
                        help="with --apply: validate targets without "
                             "mutating anything")
    advise.add_argument("--json", action="store_true",
                        help="raw JSON payload instead of rendered tables")

    export = commands.add_parser("export", help="write a corpus release")
    export.add_argument("--out", required=True, help="output directory")
    export.add_argument("--scale", type=float, default=0.05)
    export.add_argument("--identified", action="store_true",
                        help="keep real usernames (default anonymizes)")

    lint = commands.add_parser(
        "lint", help="statically check SQL files without executing them")
    lint.add_argument("files", nargs="*", default=["-"],
                      help="SQL files to check ('-' for stdin)")
    lint.add_argument("--ddl", default=None,
                      help="schema file executed first to populate the catalog")
    lint.add_argument("--no-lint", action="store_true",
                      help="semantic errors only, skip the smell rules")
    lint.add_argument("--explain", action="store_true",
                      help="also plan each query and report the static "
                           "plan verifier's verdict (PLAN codes)")

    selfcheck = commands.add_parser(
        "selfcheck",
        help="concurrency lint over this codebase's own lock discipline")
    selfcheck.add_argument("paths", nargs="*", default=["src/repro"],
                           help="python files/directories to analyze "
                                "(default src/repro)")
    selfcheck.add_argument("--root", default=None,
                           help="directory finding paths are made relative "
                                "to (default: cwd), keeping baselines "
                                "machine-independent")
    selfcheck.add_argument("--baseline", default=None,
                           help="accepted-findings file; only findings not "
                                "listed in it are reported (exit 1)")
    selfcheck.add_argument("--write-baseline", default=None,
                           help="write current finding keys to this file "
                                "and exit 0")

    profile = commands.add_parser(
        "profile",
        help="EXPLAIN ANALYZE a statement: estimated vs actual rows per operator")
    profile.add_argument("sql", nargs="?", default=None,
                         help="SQL text to profile ('-' for stdin)")
    profile.add_argument("--ddl", default=None,
                         help="schema/data file executed first to populate the catalog")
    profile.add_argument("--workload", action="store_true",
                         help="profile a generated workload and report q-error "
                              "per operator type instead of one statement")
    profile.add_argument("--scale", type=float, default=0.05,
                         help="workload scale for --workload (default 0.05)")
    profile.add_argument("--limit", type=int, default=200,
                         help="max replayed queries for --workload (default 200)")

    checkpoint = commands.add_parser(
        "checkpoint",
        help="recover a data directory, then snapshot it and truncate the WAL")
    checkpoint.add_argument("--data-dir", required=True)
    checkpoint.add_argument("--wal-sync", choices=["buffered", "fsync"],
                            default="buffered")

    recover = commands.add_parser(
        "recover",
        help="rebuild a platform from a data directory and report what "
             "recovery did")
    recover.add_argument("--data-dir", required=True)
    recover.add_argument("--wal-sync", choices=["buffered", "fsync"],
                         default="buffered")
    recover.add_argument("--verify", action="store_true",
                         help="also round-trip the recovered state through a "
                              "scratch checkpoint and require digest equality")
    recover.add_argument("--lenient", action="store_true",
                         help="collect replay errors instead of failing on the "
                              "first one")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "analyze": _cmd_analyze,
        "serve": _cmd_serve,
        "export": _cmd_export,
        "lint": _cmd_lint,
        "selfcheck": _cmd_selfcheck,
        "profile": _cmd_profile,
        "checkpoint": _cmd_checkpoint,
        "recover": _cmd_recover,
        "top": _cmd_top,
        "logs": _cmd_logs,
        "querystore": _cmd_querystore,
        "advise": _cmd_advise,
        "cluster": _cmd_cluster,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
