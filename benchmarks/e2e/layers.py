"""Per-layer metrics of a traced run.

Turns the tracer's spans, the client's op records and the program's own
public counters (``runtime.stats()``, which carries the cache's and the
storage manager's) into the ``per_layer`` metrics of BENCHMARK.json.  A
layer whose boundary is gone, or that the workload does not use (the cache
on a cache-off workload), reads ``None``.
"""

import statistics

import harness
from harness import ADMIN, READ, WRITE


def _delta(before, after, *path):
    for key in path:
        before = (before or {}).get(key)
        after = (after or {}).get(key)
    if before is None or after is None:
        return None
    return after - before


def _ms(seconds, fraction):
    value = harness.percentile(seconds, fraction)
    return None if value is None else value * 1000.0


def _union(intervals):
    """Total length covered by possibly overlapping (start, end) pairs."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_metrics(ctx, tracer, warm, timed, before, after):
    busy, named = tracer.busy("timed")
    setup_busy, _ = tracer.busy("setup")
    recovery_spans = tracer.spans("recovery")

    def count(name, phase="timed"):
        return tracer.counts[(phase, name)]

    def layer(name, source=busy):
        return None if name in tracer.missing_layers else source.get(name, 0.0)

    def span(name, field):
        return named.get(name, (0, 0.0))[field]

    ops = [r for r in timed.records if r.op.kind != ADMIN]
    reads = [r for r in ops if r.op.kind == READ and r.ok]
    writes = [r for r in ops if r.op.kind == WRITE and r.ok]
    roots = {}      # op id -> [(start, end)] of its top-level spans
    run_query = {}  # op id -> seconds inside SQLShare.run_query
    checkpoints = []
    for item in tracer.spans("timed"):
        if item.parent is None and item.op_id is not None:
            roots.setdefault(item.op_id, []).append((item.start, item.end))
        if item.name == "sqlshare.run_query" and item.op_id is not None:
            run_query[item.op_id] = item.duration
        if item.name == "storage.checkpoint":
            checkpoints.append(item)

    metrics = {}
    for name in ("engine.parser", "lint", "engine.semantic", "engine.planner",
                 "check.plancheck", "engine.executor", "ingest"):
        metrics[name + ".busy_s"] = layer(name)
    for name in ("engine.database", "core.sqlshare", "server.rest"):
        metrics[name + ".self_s"] = layer(name)
    metrics["engine.parser.calls"] = (
        None if "engine.parser" in tracer.missing_layers
        else span("parser.parse", 0))

    executed = "engine.database" not in tracer.missing_layers
    rows_out = count("engine.executor.rows_out")
    metrics["engine.executor.rows_out"] = rows_out if executed else None
    metrics["engine.executor.base_rows_per_row_out"] = (
        count("engine.executor.base_rows") / float(rows_out)
        if executed and rows_out else None)

    # -- result cache: the program's own counters over the timed phase
    cache_on = after.get("cache") is not None \
        and "runtime.cache" not in tracer.missing_layers
    hits = _delta(before, after, "cache", "hits")
    misses = _delta(before, after, "cache", "misses")
    metrics["runtime.cache.hit_rate"] = (
        hits / float(hits + misses) if cache_on and hits + misses else None)
    metrics["runtime.cache.lookup_busy_s"] = \
        span("cache.lookup", 1) if cache_on else None
    metrics["runtime.cache.store_busy_s"] = \
        span("cache.store", 1) if cache_on else None
    metrics["runtime.cache.invalidate_busy_s"] = \
        span("cache.invalidate", 1) if cache_on else None
    for counter in ("capacity_evictions", "invalidations"):
        metrics["runtime.cache." + counter] = (
            _delta(before, after, "cache", counter) if cache_on else None)
    metrics["runtime.cache.stale_served"] = ctx.stale_served

    # -- scheduler: its own span, the worker time no other span covers,
    #    and the two hand-offs an op waits through
    jobs = [(op_id, r.job_times) for op_id, r in tracer.ops.items()
            if r.job_times is not None and op_id in roots]
    worker_gap = sum(
        max(0.0, finished - started - run_query.get(op_id, finished - started))
        for op_id, (_, started, finished, _) in jobs)
    submit = layer("runtime.scheduler")
    metrics["runtime.scheduler.self_s"] = (
        None if submit is None else submit + worker_gap)
    queue = [started - submitted for _, (submitted, started, _, _) in jobs]
    wake = [woke - finished for _, (_, _, finished, woke) in jobs]
    metrics["runtime.scheduler.queue_wait_p50_ms"] = _ms(queue, 0.50)
    metrics["runtime.scheduler.queue_wait_p95_ms"] = _ms(queue, 0.95)
    metrics["runtime.scheduler.wake_wait_p50_ms"] = _ms(wake, 0.50)
    metrics["runtime.scheduler.rejected"] = sum(
        1 for r in ops if r.status == 429)

    metrics["server.rest.response_bytes"] = (
        None if "server.rest" in tracer.missing_layers
        else count("server.rest.response_bytes"))

    metrics["adaptive.warmup_probes"] = sum(
        1 for r in warm.records if r.profiled)
    metrics["adaptive.probes"] = sum(1 for r in ops if r.profiled)
    metrics["adaptive.replans"] = _delta(before, after, "adaptive", "replans")

    ingest = layer("ingest")
    metrics["ingest.setup_busy_s"] = layer("ingest", setup_busy)
    metrics["ingest.bytes_in"] = (None if ingest is None
                                  else count("ingest.bytes_in"))
    metrics["ingest.rows_per_s"] = (count("ingest.rows") / ingest
                                    if ingest else None)

    # -- storage
    user_bytes = sum(r.op.nbytes for r in writes)
    wal_bytes = _delta(before, after, "storage", "wal", "bytes_written")
    metrics["storage.wal.append_busy_s"] = layer("storage.wal")
    metrics["storage.wal.appends"] = _delta(
        before, after, "storage", "wal", "appends")
    metrics["storage.wal.bytes_written"] = wal_bytes
    metrics["storage.wal.bytes_per_user_byte"] = (
        wal_bytes / float(user_bytes) if wal_bytes and user_bytes else None)
    snapshots = "storage.snapshot" not in tracer.missing_layers
    metrics["storage.snapshot.checkpoint_busy_s"] = layer("storage.snapshot")
    metrics["storage.snapshot.checkpoints"] = (
        len(checkpoints) if snapshots else None)
    metrics["storage.snapshot.bytes_written"] = (
        count("storage.snapshot.bytes_written") if snapshots else None)
    # A checkpoint is a periodic stall that a median hides: the longest
    # foreground op that overlapped one.  (It holds the state lock from
    # start to end, so the other client waits beside it for as long as it
    # runs; that wait is inside core.sqlshare.self_s.)
    stalls = [r.latency_ms for r in ops for c in checkpoints
              if r.start < c.end and r.end > c.start]
    metrics["storage.snapshot.max_stall_ms"] = max(stalls) if stalls else None

    recovery = ctx.recovery or {}
    recover = [s for s in recovery_spans if s.name == "storage.recover"]
    load = sum(s.duration for s in recovery_spans
               if s.name == "recovery.snapshot_load")
    metrics["storage.recovery.snapshot_load_s"] = load if recover else None
    metrics["storage.recovery.replay_busy_s"] = (
        recover[0].duration - load if recover else None)
    metrics["storage.recovery.records_replayed"] = (
        count("storage.recovery.records_replayed", "recovery") if recover else None)
    metrics["recovery_s"] = recovery.get("recovery_s")
    metrics["stored_bytes_per_user_byte"] = \
        recovery.get("stored_bytes_per_user_byte")

    # -- diagnostics
    latencies = [r.latency_ms for r in ops if r.ok]
    metrics["diag.lat_p99_ms"] = harness.percentile(latencies, 0.99)
    metrics["diag.read_lat_p50_ms"] = harness.percentile(
        [r.latency_ms for r in reads], 0.50)
    metrics["diag.write_lat_p50_ms"] = harness.percentile(
        [r.latency_ms for r in writes], 0.50)
    metrics["diag.generator_share"] = timed.generator_share
    # Against the untraced run's ops_per_s this gives the tracing overhead.
    metrics["diag.traced_ops_per_s"] = (
        sum(1 for r in ops if r.ok) / timed.elapsed if timed.elapsed else None)
    # How much of an op's latency the spans and the two waits explain.
    shares = []
    for op_id, record in tracer.ops.items():
        if op_id in roots and record.ok and record.end > record.start:
            intervals = list(roots[op_id])
            if record.job_times is not None:
                submitted, started, finished, woke = record.job_times
                intervals += [(submitted, started), (finished, woke)]
            shares.append(_union(intervals) / (record.end - record.start))
    metrics["diag.accounted_share_p50"] = (
        statistics.median(shares) if shares else None)
    return metrics
