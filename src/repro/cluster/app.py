"""The coordinator's WSGI application: the cluster's single REST surface.

:class:`ClusterApp` *is* a :class:`~repro.server.rest.SQLShareApp` — the
same WSGI shell, route table, body reader, status table, error mapping
and 401/404/405 dispatcher — whose route ``<name>`` is answered by its
method ``_<name>`` where the cluster differs, so every existing client
works unchanged against ``repro serve --shards N``:

- **Every route without a handler here** is forwarded, by name, to the
  shard that owns the request: the dataset's owner (via the dataset
  directory) for ``/dataset/{name}...`` routes, so a consumer on shard 1
  can read a producer's shard-0 dataset directly; the requesting user's
  home shard for everything else — it owns their datasets, their
  scheduler admission state and their batch queue.  The directory
  follows creations and deletions.
- **Aggregate endpoints** (``/datasets``, ``/runtime/stats``,
  ``/metrics``, ``/health``, ``/advisor``) fan out to every live shard
  and merge.
- **Cross-shard queries**: a submit whose SQL references datasets homed
  on other shards triggers the fetch-and-local-join fallback — each
  remote dataset's rows are fetched from its owning shard and installed
  on the home shard as a ``kind="replica"`` dataset, then the query runs
  locally with an explicit ``cross_shard`` marker in its outcome record.
  This is the CasJobs shape: correctness first, locality when you
  co-partition, and the marker makes the expensive path measurable.
- **Stitched traces, merged logs and ``/cluster/status``** answer from
  the coordinator's own state.
"""

import re
import threading
import time
from collections import OrderedDict
from wsgiref.simple_server import make_server

from repro.engine.prepared import StatementMemo
from repro.errors import ClusterError
from repro.obs import events
from repro.obs.tracing import Trace, maybe_span, new_trace_id
from repro.server.rest import (
    SQLShareApp, ThreadingWSGIServer, error_class, error_status)


class ClusterApp(SQLShareApp):
    """The REST surface over a :class:`ClusterCoordinator`."""

    #: Stitched-trace registry bound: enough for any dashboard/debug
    #: session, small enough that traces of long-gone queries age out.
    MAX_TRACES = 2048

    def __init__(self, coordinator, tracing=True):
        self.coordinator = coordinator
        #: Cluster-wide tracing: every submit mints a trace id, coordinator
        #: routing/fan-out spans are recorded here, and worker fragments
        #: are stitched in from traced protocol replies.
        self.tracing = tracing
        self._traces = OrderedDict()  # job_id -> {trace, home, user, ...}
        self._traces_lock = threading.Lock()
        #: The coordinator's front door for SQL text: routing reads the
        #: referenced names, the route event the fingerprint — the same
        #: facts (and the same function) the shards' permission checks use.
        self.statements = StatementMemo()

    @classmethod
    def _route_handler(cls, method, template, name):
        """The cluster's own handler for route ``name`` — the method
        ``_<name>`` — where it answers differently, else a forwarder."""
        handler = getattr(cls, "_" + name, None)
        if handler is not None:
            return handler

        def forward(self, user, body, **params):
            return self._forward(method, template.format(**params), user,
                                 body, dataset=params.get("name"))

        return forward

    # -- forwarding ------------------------------------------------------------

    def _forward(self, method, path, user, body, dataset=None):
        """Proxy one request to the shard that owns it: ``dataset``'s owner
        when the route names one (the user's home shard for a name the
        directory does not know), else the user's home shard."""
        shard = self.coordinator.shard_for_user(user)
        if dataset is not None:
            entry = self.coordinator.resolve(dataset)
            if entry is not None:
                shard = entry["shard"]
        status, payload = self._proxy(shard, method, path, user, body)
        if status == 201 and "dataset" in payload:
            created = payload["dataset"]  # upload / save a derived dataset
            self.coordinator.directory.register(
                created.get("name", ""), user, shard,
                kind=created.get("kind", "wrapper"))
        elif method == "DELETE" and dataset is not None and status == 200:
            self.coordinator.directory.forget(dataset)
        return status, payload

    def _proxy(self, shard, method, path, user, body, trace=None):
        reply = self.coordinator.call(shard, {
            "op": "http", "method": method, "path": path,
            "user": user, "body": body or None,
        }, trace=trace)
        if not reply.get("ok", False):
            return 500, {"error": reply.get("error", "worker error"),
                         "shard": shard}
        return reply["status"], reply["payload"]

    def _list_datasets(self, user, body):
        """Union of every live shard's visible datasets, replicas excluded
        (a replica is the same dataset already listed by its owner)."""
        merged = {}
        for shard in self.coordinator.alive_shards():
            status, payload = self._proxy(
                shard, "GET", "/api/v1/datasets", user, None)
            if status != 200:
                continue
            for info in payload.get("datasets", []):
                if info.get("kind") == "replica":
                    continue
                merged.setdefault(info["name"].lower(), info)
        datasets = sorted(merged.values(), key=lambda info: info["name"])
        return 200, {"datasets": datasets}

    # -- query routing (the cross-shard fallback) ------------------------------

    def _submit_query(self, user, body):
        sql = body.get("sql")
        home = self.coordinator.shard_for_user(user)
        if sql is None:
            return self._proxy(home, "POST", "/api/v1/query", user, body)
        trace = Trace(new_trace_id()) if self.tracing else None
        started = time.monotonic()
        cross = False
        # Unparseable text references nothing: the home shard produces the
        # real diagnostic, which must not be masked by routing.
        prepared = self.statements.prepare(sql)
        with maybe_span(trace, "route", user=user) as annotations:
            for name in sorted({name.lower() for name in prepared.names}):
                entry = self.coordinator.resolve(name, trace=trace)
                if entry is None or entry["shard"] == home:
                    continue
                error = self._replicate(entry["shard"], home, user, name,
                                        trace=trace)
                if error is not None:
                    return error
                cross = True
            annotations["home"] = home
            annotations["cross_shard"] = cross
        if cross:
            body = dict(body)
            body["cross_shard"] = True
        # The home shard's worker injects the propagated context into the
        # submit body (op http), so the job's lifecycle spans join ``trace``
        # without the body carrying anything extra from here.
        status, payload = self._proxy(home, "POST", "/api/v1/query", user,
                                      body, trace=trace)
        if trace is not None:
            job_id = payload.get("id") if isinstance(payload, dict) else None
            if status == 202 and job_id:
                with self._traces_lock:
                    self._traces[job_id] = {
                        "trace": trace, "home": home, "user": user,
                        "job_id": job_id, "trace_id": trace.trace_id,
                        "cross_shard": cross,
                        "submit_ms": round(
                            (time.monotonic() - started) * 1000.0, 3),
                    }
                    while len(self._traces) > self.MAX_TRACES:
                        self._traces.popitem(last=False)
                payload["trace_id"] = trace.trace_id
            events.emit("route", trace_id=trace.trace_id, user=user,
                        fingerprint=prepared.fingerprint, job_id=job_id,
                        home=home, cross_shard=cross or None, status=status)
        return status, payload

    def _replicate(self, owner_shard, home, user, name, trace=None):
        """Fetch ``name`` from its owning shard (permission-checked there)
        and install it as a replica on ``home``.  Returns an error response
        to surface, or None on success."""
        with maybe_span(trace, "replicate", dataset=name,
                        from_shard=owner_shard, to_shard=home):
            fetched = self.coordinator.call(owner_shard, {
                "op": "fetch_dataset", "user": user, "name": name,
            }, trace=trace)
            if not fetched.get("ok", False):
                message = fetched.get("error", "fetch failed")
                status = error_status(
                    error_class(fetched.get("error_type")), message)
                return status, {"error": message, "dataset": name}
            self.coordinator.call_checked(home, {
                "op": "install_replica",
                "name": fetched["name"],
                "owner": fetched["owner"],
                "columns": fetched["columns"],
                "rows": fetched["rows"],
                "visibility": fetched["visibility"],
                "shared_with": fetched["shared_with"],
            }, trace=trace)
        return None

    # -- stitched traces & merged logs -----------------------------------------

    def _query_trace(self, user, body, query_id):
        """The cluster-wide stitched trace for one submitted query.

        The coordinator's own spans (route, replicate, per-shard calls)
        plus every worker fragment collected during the submit are already
        in the stored trace; the job's lifecycle spans are fetched live
        from the home shard and folded in.  A home shard that died takes
        its spans with it — the coordinator-side spans survive, flagged
        ``truncated``, and the response lists the dead shard.
        """
        path = "/api/v1/query/%s/trace" % query_id
        with self._traces_lock:
            entry = self._traces.get(query_id)
        if entry is None:
            # Unknown to the coordinator (tracing off, registry aged out,
            # or pre-tracing query): fall through to the plain shard view.
            return self._forward("GET", path, user, body)
        if entry["user"] != user:
            return 403, {"error": "query %s belongs to %s"
                         % (query_id, entry["user"])}
        home = entry["home"]
        home_label = "shard%d" % home
        stitched = entry["trace"].snapshot()
        truncated = []
        try:
            status, payload = self._proxy(home, "GET", path, user, body)
        except ClusterError:
            status, payload = None, None
            # The failed collection is trace-relevant: remember the trace
            # id on the handle so the supervisor's respawn event for this
            # shard correlates with the trace that lost its spans.
            self.coordinator.handles[home].last_trace_failure = (
                entry["trace_id"])
        if status == 200 and isinstance(payload, dict):
            # The shard payload is a Trace.to_dict (plus status/chrome
            # keys add_remote ignores).  Ids are namespaced by job id:
            # the submit-time op fragment already claimed the bare
            # ``shardN:spX`` names.
            stitched.add_remote(payload, process=home_label,
                                prefix=query_id)
        else:
            truncated.append(home)
            stitched.mark_process_truncated(home_label)
        response = stitched.to_dict()
        response["job_id"] = query_id
        response["home_shard"] = home
        response["processes"] = stitched.processes()
        response["truncated_shards"] = truncated
        response["chrome_trace"] = stitched.to_chrome()
        return 200, response

    def _logs(self, user, body):
        """Merged cluster event log: coordinator + every shard's files,
        ordered by timestamp.  ``?trace=`` / ``?user=`` / ``?event=``
        filter; ``?limit=`` keeps the newest N (default 200)."""
        paths = events.cluster_log_paths(self.coordinator.base_dir)
        records = events.read_events(
            paths, trace_id=body.get("trace"), user=body.get("user"),
            event=body.get("event"))
        try:
            limit = int(body.get("limit", 200))
        except (TypeError, ValueError):
            limit = 200
        if limit and len(records) > limit:
            records = records[-limit:]
        return 200, {"events": records, "sources": len(paths)}

    # -- workload advisor (per-shard advisors, one merged ranking) -------------

    def _advisor(self, user, body):
        """Fan the advisor out to every live shard and merge into one
        ranking.  Each shard only sees its own workload and datasets, so
        its recommendations are locally correct; the merge re-ranks by
        score and stamps each entry with its home ``shard`` so apply can
        route back."""
        try:
            limit = int(body.get("limit", 10))
        except (TypeError, ValueError):
            limit = 10
        merged = []
        considered = 0
        reporting = []
        for shard in self.coordinator.alive_shards():
            status, payload = self._proxy(
                shard, "GET", "/api/v1/advisor", user, body)
            if status != 200:
                continue
            reporting.append(shard)
            considered += payload.get("queries_considered", 0)
            for recommendation in payload.get("recommendations", []):
                recommendation["shard"] = shard
                merged.append(recommendation)
        merged.sort(key=lambda rec: (-rec.get("score", 0.0),
                                     rec.get("dataset", "")))
        for rank, recommendation in enumerate(merged, start=1):
            recommendation["rank"] = rank
        return 200, {
            "queries_considered": considered,
            "shards_reporting": reporting,
            "recommendations": merged[:limit],
        }

    def _advisor_apply(self, user, body):
        """Route one apply to the shard that owns the target dataset.

        The dataset directory is authoritative; a recommendation's own
        ``shard`` stamp (from the merged listing) is the fallback, then
        the user's home shard."""
        recommendation = body.get("recommendation") or {}
        name = recommendation.get("dataset") or body.get("dataset")
        shard = None
        if name:
            entry = self.coordinator.resolve(name)
            if entry is not None:
                shard = entry["shard"]
        if shard is None:
            shard = recommendation.get("shard")
        if shard is None:
            shard = self.coordinator.shard_for_user(user)
        return self._proxy(int(shard), "POST", "/api/v1/advisor/apply",
                           user, body)

    # -- aggregate endpoints ---------------------------------------------------

    def _runtime_stats(self, user, body):
        shards = {}
        for handle in self.coordinator.handles:
            if not handle.alive:
                shards[str(handle.shard)] = {"alive": False}
                continue
            try:
                reply = self.coordinator.call_checked(
                    handle.shard, {"op": "stats"})
            except ClusterError:
                shards[str(handle.shard)] = {"alive": False}
                continue
            stats = reply["stats"]
            stats["alive"] = True
            shards[str(handle.shard)] = stats
        aggregate = {"finished": 0, "batch_total": 0, "cache_hits": 0}
        for stats in shards.values():
            finished = stats.get("finished")
            if isinstance(finished, dict):
                aggregate["finished"] += sum(finished.values())
            elif isinstance(finished, (int, float)):
                aggregate["finished"] += finished
            batch = stats.get("batch") or {}
            aggregate["batch_total"] += batch.get("total", 0)
            cache = stats.get("cache") or {}
            aggregate["cache_hits"] += cache.get("hits", 0)
        return 200, {
            "cluster": self.coordinator.status(),
            "shards": shards,
            "aggregate": aggregate,
            "cross_shard_traces": self._slowest_cross_shard(),
        }

    def _slowest_cross_shard(self, top=5):
        """The slowest recent cross-shard submits (coordinator wall time),
        the dashboard's "where did the fan-out cost go" panel."""
        with self._traces_lock:
            entries = [entry for entry in self._traces.values()
                       if entry["cross_shard"]]
        entries.sort(key=lambda entry: entry["submit_ms"], reverse=True)
        return [
            {"job_id": entry["job_id"], "trace_id": entry["trace_id"],
             "user": entry["user"], "home": entry["home"],
             "submit_ms": entry["submit_ms"]}
            for entry in entries[:top]
        ]

    def _cluster_status(self, user, body):
        payload = self.coordinator.status()
        payload["monitor"] = self.coordinator.monitor.stats()
        return 200, payload

    def _health(self, user, body):
        """Aggregate liveness: any dead/unresponsive shard degrades the
        whole cluster to 503 with an explicit ``shard_down`` reason."""
        down = self.coordinator.down_shards()
        payload = self.coordinator.monitor.health()
        payload["monitoring"] = True
        payload["shards"] = self.coordinator.shards
        payload["shards_down"] = down
        if down:
            payload["status"] = "degraded"
            payload["reason"] = "shard_down"
            return 503, payload
        return (503 if payload["status"] == "degraded" else 200), payload

    def _metrics(self, user, body):
        """One Prometheus scrape for the whole cluster: the coordinator's
        own series verbatim, every live shard's series re-labeled with
        ``shard="<i>"`` (HELP/TYPE emitted once per family), and — so one
        scrape yields one cluster-level p99 without cross-series bucket
        math — each histogram family again as a merged ``<name>_cluster``
        histogram with bucket counts summed across shards."""
        shard_texts = []
        for handle in self.coordinator.handles:
            if not handle.alive:
                continue
            try:
                reply = self.coordinator.call_checked(
                    handle.shard, {"op": "metrics"})
            except ClusterError:
                continue
            shard_texts.append((handle.shard, reply["text"]))
        out = [self.coordinator.metrics.render_prometheus().rstrip("\n")]
        seen_meta = set()
        for shard, text in shard_texts:
            out.append(_relabel_exposition(text, shard, seen_meta))
        out.append(_merge_cluster_histograms(
            [text for _shard, text in shard_texts]))
        text = "\n".join(part for part in out if part) + "\n"
        return 200, text, "text/plain; version=0.0.4; charset=utf-8"


def _relabel_exposition(text, shard, seen_meta):
    """Inject ``shard="<i>"`` into every sample of one worker's scrape."""
    label = 'shard="%d"' % shard
    lines = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            # "# HELP <name> ..." / "# TYPE <name> ..." — once per family.
            parts = line.split(None, 3)
            key = tuple(parts[1:3]) if len(parts) >= 3 else (line,)
            if key in seen_meta:
                continue
            seen_meta.add(key)
            lines.append(line)
            continue
        brace = line.find("{")
        if brace >= 0:
            lines.append(line[:brace + 1] + label + "," + line[brace + 1:])
        else:
            name, _, value = line.partition(" ")
            lines.append("%s{%s} %s" % (name, label, value))
    return "\n".join(lines)


_LE_LABEL = re.compile(r'le="([^"]+)"')


def _le_sort_key(le):
    try:
        return float(le)
    except ValueError:
        return float("inf")  # "+Inf" sorts last


def _format_sample(value):
    return "%g" % value


def _merge_cluster_histograms(texts):
    """Cluster-merged ``<name>_cluster`` histogram families.

    Per-shard histograms keep their ``shard`` label for drill-down, but a
    cluster-level quantile over them needs PromQL bucket arithmetic the
    plain exposition consumer (and ``repro top``) doesn't have.  Summing
    bucket/sum/count across shards is exact — buckets are counters over
    identical ``le`` grids — so a single scrape carries a directly
    quantile-able cluster histogram beside the per-shard ones.  The
    merged family gets its own name rather than another label so it can
    never double-count against the relabeled originals.
    """
    help_text = {}
    order = []
    merged = {}
    for text in texts:
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) >= 4 and parts[3] == "histogram":
                    if parts[2] not in merged:
                        merged[parts[2]] = {"buckets": {}, "sum": 0.0,
                                            "count": 0.0}
                        order.append(parts[2])
            elif line.startswith("# HELP "):
                parts = line.split(None, 3)
                if len(parts) >= 3:
                    help_text.setdefault(
                        parts[2], parts[3] if len(parts) == 4 else "")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            sample, _, value = line.rpartition(" ")
            metric = sample.partition("{")[0]
            try:
                number = float(value)
            except ValueError:
                continue
            if metric.endswith("_bucket") and metric[:-7] in merged:
                le = _LE_LABEL.search(sample)
                if le is not None:
                    buckets = merged[metric[:-7]]["buckets"]
                    buckets[le.group(1)] = (
                        buckets.get(le.group(1), 0.0) + number)
            elif metric.endswith("_sum") and metric[:-4] in merged:
                merged[metric[:-4]]["sum"] += number
            elif metric.endswith("_count") and metric[:-6] in merged:
                merged[metric[:-6]]["count"] += number
    lines = []
    for name in order:
        family = merged[name]
        if not family["buckets"]:
            continue
        cluster = name + "_cluster"
        note = (help_text.get(name, "").rstrip(".") +
                " (merged across shards).").lstrip()
        lines.append("# HELP %s %s" % (cluster, note))
        lines.append("# TYPE %s histogram" % cluster)
        for le in sorted(family["buckets"], key=_le_sort_key):
            lines.append('%s_bucket{le="%s"} %s' % (
                cluster, le, _format_sample(family["buckets"][le])))
        lines.append("%s_sum %s" % (cluster, _format_sample(family["sum"])))
        lines.append("%s_count %s"
                     % (cluster, _format_sample(family["count"])))
    return "\n".join(lines)


def serve_cluster(coordinator, host="127.0.0.1", port=8080):
    """The cluster app on :class:`ThreadingWSGIServer`, as ``rest.serve``."""
    return make_server(host, port, ClusterApp(coordinator),
                       server_class=ThreadingWSGIServer)
