"""The REST API as a WSGI application (stdlib only).

Query execution follows the paper's §3.3 protocol: ``POST /api/v1/query``
assigns an identifier and returns immediately; the client polls
``GET /api/v1/query/<id>`` for status and fetches rows from
``GET /api/v1/query/<id>/results`` — "an obvious choice over an atomic
request ... as long running queries would reduce the requests the REST
server can handle."

Queries are executed by the :mod:`repro.runtime` scheduler — a bounded
worker pool with per-user admission control, statement timeouts, a
versioned result cache, and cooperative cancellation exposed as
``DELETE /api/v1/query/<id>``.  ``GET /api/v1/runtime/stats`` reports the
scheduler's live counters.

Observability: ``GET /api/v1/metrics`` serves the platform's metrics
registry in Prometheus text exposition format (unauthenticated, like a
production scrape target); ``GET /api/v1/query/<id>/trace`` returns the
job's lifecycle spans (JSON plus Chrome ``trace_event`` form); submitting
with ``"profile": true`` attaches per-operator actuals to the results
payload.

Authentication is a trusted ``X-SQLShare-User`` header (the deployed system
used university SSO; the identity plumbing is identical downstream).

The route table, the WSGI shell and the error mapping here are the only
ones: the cluster's coordinator (:class:`repro.cluster.app.ClusterApp`)
subclasses :class:`SQLShareApp` and replaces handlers, not the shell.
"""

import json
import re
import time
from urllib.parse import parse_qsl as _parse_qsl

from repro.core.sqlshare import SQLShare
from repro.errors import (
    AdmissionError,
    ClusterError,
    DatasetError,
    Diagnostic,
    PermissionError_,
    QuotaError,
    ReproError,
    SQLError,
)
from repro.obs import events as events_mod
from repro.obs.tracing import TraceContext
from repro.runtime import QueryRuntime, RuntimeConfig

#: (method, compiled pattern, path template, handler name, auth), in
#: declaration order.  Each app class binds the rows to its own handlers
#: by name (:meth:`SQLShareApp._bind_routes`).
_ROUTES = []

_PARAM = re.compile(r"\{(\w+)\}")


def route(method, template, auth=True):
    """Register the decorated handler for ``method`` on ``template``; each
    ``{param}`` matches one path segment and reaches the handler as a
    keyword argument."""
    pattern = re.compile("^%s$" % _PARAM.sub(r"(?P<\1>[^/]+)", template))

    def decorator(func):
        _ROUTES.append((method, pattern, template, func.__name__, auth))
        return func

    return decorator


class _HTTPError(Exception):
    def __init__(self, status, message):
        super(_HTTPError, self).__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "200 OK",
    201: "201 Created",
    202: "202 Accepted",
    400: "400 Bad Request",
    401: "401 Unauthorized",
    403: "403 Forbidden",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: Exception class -> HTTP status, most specific first.  The one mapping
#: for failures raised in this process and for the ``error_type`` names a
#: shard reports (see :func:`error_status`).
_ERROR_STATUS = (
    (PermissionError_, 403),
    (QuotaError, 403),
    (DatasetError, 409),  # 404 when the dataset does not exist
    (ClusterError, 503),
    (ReproError, 400),
)


def error_status(error_class, message):
    """The HTTP status for a failure of ``error_class`` with ``message``;
    500 for anything outside the package's error hierarchy."""
    for cls, status in _ERROR_STATUS:
        if issubclass(error_class, cls):
            if cls is DatasetError and "no dataset" in message:
                return 404
            return status
    return 500


def error_class(name):
    """The package exception class called ``name`` — how a failure a shard
    reports as ``type(exc).__name__`` maps back onto :data:`_ERROR_STATUS`
    (``Exception`` for a name outside the hierarchy)."""
    pending = [ReproError]
    while pending:
        cls = pending.pop()
        if cls.__name__ == name:
            return cls
        pending.extend(cls.__subclasses__())
    return Exception


class SQLShareApp(object):
    """WSGI application wrapping one SQLShare platform instance."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._routes = cls._bind_routes()

    @classmethod
    def _bind_routes(cls):
        """The route table with every row bound to this class's handler."""
        return [(method, pattern, cls._route_handler(method, template, name),
                 auth)
                for method, pattern, template, name, auth in _ROUTES]

    @classmethod
    def _route_handler(cls, method, template, name):
        return getattr(cls, name)

    def __init__(self, platform=None, run_async=True, runtime=None,
                 runtime_config=None):
        self.platform = platform or SQLShare()
        #: When True, queries run on the scheduler's worker pool and the
        #: client truly polls; when False (tests), the query completes
        #: before the POST returns but the protocol is unchanged.
        self.run_async = run_async
        if runtime is None:
            config = runtime_config or RuntimeConfig(
                max_workers=4 if run_async else 0)
            runtime = QueryRuntime(self.platform, config)
        self.runtime = runtime

    # -- WSGI entry point ---------------------------------------------------------

    def __call__(self, environ, start_response):
        method = environ["REQUEST_METHOD"]
        path = environ.get("PATH_INFO", "/")
        user = environ.get("HTTP_X_SQLSHARE_USER")
        content_type = "application/json"
        try:
            body = self._read_body(environ)
            query = environ.get("QUERY_STRING")
            if query:
                # URL parameters back JSON-body fields for GET endpoints
                # (?window=60&prefix=repro_cache); an explicit body wins.
                for key, value in _parse_qsl(query):
                    body.setdefault(key, value)
            response = self._dispatch(method, path, user, body)
            # Handlers normally return (status, payload); text endpoints
            # (Prometheus exposition) return (status, text, content_type).
            if len(response) == 3:
                status, payload, content_type = response
            else:
                status, payload = response
        except _HTTPError as exc:
            status, payload = exc.status, {"error": exc.message}
        except ReproError as exc:
            status = error_status(type(exc), str(exc))
            payload = {"error": str(exc)}
            if isinstance(exc, ClusterError):
                payload["reason"] = "shard_down"
        if content_type == "application/json":
            data = json.dumps(payload, default=str).encode("utf-8")
        else:
            data = payload.encode("utf-8")
        start_response(
            _STATUS_TEXT[status],
            [("Content-Type", content_type), ("Content-Length", str(len(data)))],
        )
        return [data]

    @staticmethod
    def _read_body(environ):
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if not length:
            return {}
        raw = environ["wsgi.input"].read(length)
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError:
            raise _HTTPError(400, "request body is not valid JSON")

    def _dispatch(self, method, path, user, body):
        for route_method, pattern, handler, auth in self._routes:
            if route_method != method:
                continue
            match = pattern.match(path)
            if match:
                if auth and user is None:
                    raise _HTTPError(401, "missing X-SQLShare-User header")
                return handler(self, user, body, **match.groupdict())
        for route_method, pattern, _handler, _auth in self._routes:
            if pattern.match(path):
                raise _HTTPError(405, "method %s not allowed on %s" % (method, path))
        raise _HTTPError(404, "no such endpoint: %s" % path)

    # -- dataset endpoints -----------------------------------------------------------

    @route("GET", "/api/v1/datasets")
    def list_datasets(self, user, body):
        visible = [
            self._dataset_info(dataset)
            for dataset in self.platform.datasets.values()
            if self.platform.permissions.can_access(user, dataset.name)
        ]
        visible.sort(key=lambda info: info["name"])
        return 200, {"datasets": visible}

    @route("POST", "/api/v1/upload")
    def upload(self, user, body):
        name = _require(body, "name")
        data = _require(body, "data")
        dataset = self.platform.upload(
            user, name, data,
            description=body.get("description", ""),
            tags=body.get("tags"),
        )
        return 201, {"dataset": self._dataset_info(dataset)}

    @route("POST", "/api/v1/dataset")
    def save_dataset(self, user, body):
        name = _require(body, "name")
        sql = _require(body, "sql")
        dataset = self.platform.create_dataset(
            user, name, sql,
            description=body.get("description", ""),
            tags=body.get("tags"),
        )
        return 201, {"dataset": self._dataset_info(dataset)}

    @route("GET", "/api/v1/dataset/{name}")
    def get_dataset(self, user, body, name):
        self.platform.permissions.check_access(user, name)
        dataset = self.platform.dataset(name)
        info = self._dataset_info(dataset)
        info["preview"] = {
            "columns": dataset.preview_columns,
            "rows": dataset.preview_rows,
        }
        info["provenance"] = self.platform.views.provenance(name)
        return 200, info

    @route("DELETE", "/api/v1/dataset/{name}")
    def delete_dataset(self, user, body, name):
        self.platform.delete_dataset(user, name)
        return 200, {"deleted": name}

    @route("POST", "/api/v1/dataset/{name}/append")
    def append(self, user, body, name):
        data = _require(body, "data")
        dataset = self.platform.append(user, name, data)
        return 200, {"dataset": self._dataset_info(dataset)}

    @route("PUT", "/api/v1/dataset/{name}/permissions")
    def set_permissions(self, user, body, name):
        if body.get("public") is True:
            self.platform.make_public(user, name)
        elif body.get("public") is False:
            self.platform.make_private(user, name)
        for grantee in body.get("share_with", []):
            self.platform.share(user, name, grantee)
        for grantee in body.get("unshare", []):
            self.platform.unshare(user, name, grantee)
        return 200, {
            "name": self.platform.dataset(name).name,
            "visibility": self.platform.visibility(name),
            "shared_with": sorted(self.platform.permissions.shared_with(name)),
        }

    # -- query endpoints ------------------------------------------------------------------

    @route("POST", "/api/v1/query")
    def submit_query(self, user, body):
        sql = _require(body, "sql")
        timeout = body.get("timeout")
        try:
            job = self.runtime.submit(
                user, sql, source="rest", timeout=timeout,
                inline=not self.run_async,
                profile=bool(body.get("profile", False)),
                # Set by the cluster coordinator when it routed this query
                # through the fetch-and-local-join fallback; the marker
                # lands in the job payload and the query-log record.
                cross_shard=bool(body.get("cross_shard", False)),
                # Propagated distributed-trace context (cluster submits):
                # the job's spans join the coordinator's trace.
                trace_context=TraceContext.from_wire(body.get("trace")),
            )
        except AdmissionError as exc:
            raise _HTTPError(429, str(exc))
        return 202, {
            "id": job.job_id,
            "status": job.protocol_status,
            "diagnostics": job.diagnostics,
        }

    @route("POST", "/api/v1/check")
    def check_query(self, user, body):
        """Static analysis only: diagnostics for a statement, no execution."""
        sql = _require(body, "sql")
        lint = body.get("lint", True)
        prepared = self.platform.db.prepare(sql)
        diagnostics = self.platform.db.check(sql, lint=bool(lint),
                                             prepared=prepared)
        payload = {
            "diagnostics": [d.to_dict() for d in diagnostics],
            "ok": all(d.severity != "error" for d in diagnostics),
        }
        # Static plan verdict: "ok", a list of violations, or absent when
        # the statement is not a query or its diagnostics reject it.  A
        # clean statement that still cannot be planned is an error here,
        # as it would be on execution.
        try:
            violations = self.platform.db.check_plan(sql, prepared=prepared)
        except SQLError as exc:
            payload["diagnostics"].append(Diagnostic.from_error(exc, sql).to_dict())
            payload["ok"] = False
            violations = None
        if violations is not None:
            payload["plan_check"] = (
                "ok" if not violations
                else [violation.to_dict() for violation in violations])
        return 200, payload

    @route("GET", "/api/v1/query/{query_id}")
    def query_status(self, user, body, query_id):
        job = self._get_query(user, query_id)
        return 200, job.to_dict()

    @route("GET", "/api/v1/query/{query_id}/results")
    def query_results(self, user, body, query_id):
        job = self._get_query(user, query_id)
        status = job.protocol_status
        if status in ("pending", "running"):
            return 202, {"id": query_id, "status": status}
        if status == "error":
            return 400, {"id": query_id, "status": status, "error": job.error}
        if status in ("cancelled", "timeout"):
            return 409, {"id": query_id, "status": status, "error": job.error}
        result = job.result
        fetch_started = time.monotonic()
        rows = [list(row) for row in result.rows]
        if job.trace is not None:
            job.trace.add_span("fetch", fetch_started, time.monotonic(),
                               rows=len(rows))
        payload = {
            "id": query_id,
            "status": "complete",
            "columns": result.columns,
            "rows": rows,
            "cache_hit": job.cache_hit,
        }
        if job.profile_data is not None:
            payload["profile"] = job.profile_data.to_dict()
        return 200, payload

    @route("DELETE", "/api/v1/query/{query_id}")
    def cancel_query(self, user, body, query_id):
        self._get_query(user, query_id)  # ownership check
        job = self.runtime.cancel(query_id)
        return 202, {"id": query_id, "status": job.protocol_status}

    @route("GET", "/api/v1/runtime/stats")
    def runtime_stats(self, user, body):
        return 200, self.runtime.stats()

    # -- batch-lane endpoints (the CasJobs-style slow queue) --------------------------------

    @route("POST", "/api/v1/batch")
    def submit_batch(self, user, body):
        """Admit a long-running query to the batch lane.  Returns 202 with
        the batch id; results land in the user's MyDB scratch dataset and
        are fetched via the ordinary dataset endpoints."""
        sql = _require(body, "sql")
        status = self.runtime.batch.submit(
            user, sql, label=body.get("label"),
            inline=None if self.run_async else True)
        return 202, status

    @route("GET", "/api/v1/batch")
    def list_batches(self, user, body):
        """The calling user's batches, oldest first."""
        batches = [self.runtime.batch.status(record["batch_id"])
                   for record in self.platform.batch_journal.for_user(user)]
        return 200, {"batches": batches}

    @route("GET", "/api/v1/batch/{batch_id}")
    def batch_status(self, user, body, batch_id):
        """Poll one batch: state, queue position, ETA, result dataset."""
        status = self.runtime.batch.status(batch_id)
        if status is None:
            raise _HTTPError(404, "no batch %r" % batch_id)
        if status["user"] != user:
            raise _HTTPError(403, "batch %r belongs to another user" % batch_id)
        return 200, status

    # -- durability endpoints ---------------------------------------------------------------

    @route("POST", "/api/v1/checkpoint")
    def checkpoint(self, user, body):
        """Force a snapshot checkpoint (truncates the WAL on success)."""
        storage = getattr(self.platform, "storage", None)
        if storage is None:
            raise _HTTPError(409, "server is running without a data directory")
        return 200, {"checkpoint": storage.checkpoint()}

    # -- observability endpoints ----------------------------------------------------------

    @route("GET", "/api/v1/metrics", auth=False)
    def metrics(self, user, body):
        """Prometheus text exposition (format 0.0.4); no auth, like a
        production scrape target."""
        text = self.platform.metrics.render_prometheus()
        return 200, text, "text/plain; version=0.0.4; charset=utf-8"

    @route("GET", "/api/v1/query/{query_id}/trace")
    def query_trace(self, user, body, query_id):
        job = self._get_query(user, query_id)
        if job.trace is None:
            raise _HTTPError(404, "tracing is disabled on this runtime")
        payload = job.trace.to_dict()
        payload["status"] = job.protocol_status
        payload["chrome_trace"] = job.trace.to_chrome()
        if job.profile_data is not None:
            payload["profile"] = job.profile_data.summary()
        return 200, payload

    @route("GET", "/api/v1/logs")
    def logs(self, user, body):
        """Recent structured lifecycle events from this process's
        in-memory ring; ``?trace=``, ``?user=``, ``?event=`` filter and
        ``?limit=`` bounds the listing (newest kept)."""
        limit = body.get("limit")
        records = events_mod.get_log().recent(
            limit=int(limit) if limit is not None else 200,
            trace_id=body.get("trace"),
            user=body.get("user"),
            event=body.get("event"))
        return 200, {"events": records}

    # -- continuous-monitoring endpoints ----------------------------------------------------

    def _monitor(self):
        monitor = getattr(self.runtime, "monitor", None)
        if monitor is None:
            raise _HTTPError(409, "continuous monitoring is disabled "
                                  "(start the runtime with monitor_enabled)")
        return monitor

    @route("GET", "/api/v1/timeseries")
    def timeseries(self, user, body):
        """Sampled metrics history; ``?prefix=``, ``?window=`` (seconds) and
        ``?max_points=`` narrow the export."""
        monitor = self._monitor()
        window = body.get("window")
        max_points = body.get("max_points")
        return 200, monitor.store.to_dict(
            prefix=body.get("prefix"),
            window=float(window) if window is not None else None,
            max_points=int(max_points) if max_points is not None else None,
        )

    @route("GET", "/api/v1/querystore")
    def querystore(self, user, body):
        """Per-fingerprint runtime history; ``?regressions=1`` filters to
        regressed queries, ``?limit=`` bounds the listing."""
        limit = body.get("limit")
        return 200, self.runtime.query_store.to_dict(
            limit=int(limit) if limit is not None else 50,
            regressions_only=_truthy(body.get("regressions")),
        )

    @route("GET", "/api/v1/querystore/{fingerprint}")
    def querystore_entry(self, user, body, fingerprint):
        store = self.runtime.query_store
        entry = store.get(fingerprint)
        if entry is None:
            raise _HTTPError(404, "no query store entry %r" % fingerprint)
        return 200, entry.to_dict(store.min_executions, store.regression_factor)

    # -- advisor endpoints (repro.adaptive.advisor) -----------------------------------------

    def _workload_advisor(self):
        from repro.adaptive import WorkloadAdvisor

        return WorkloadAdvisor(self.platform,
                               query_store=self.runtime.query_store)

    @route("GET", "/api/v1/advisor")
    def advisor(self, user, body):
        """Ranked index/materialization recommendations (a dry run);
        ``?limit=`` bounds the listing, ``?min_executions=`` sets the
        frequency floor."""
        limit = body.get("limit")
        min_executions = body.get("min_executions")
        payload = self._workload_advisor().recommendations(
            top=int(limit) if limit is not None else 10,
            min_executions=(int(min_executions)
                            if min_executions is not None else 2))
        adaptive = getattr(self.runtime, "adaptive", None)
        if adaptive is not None:
            payload["adaptive"] = adaptive.summary()
        return 200, payload

    @route("POST", "/api/v1/advisor/apply")
    def advisor_apply(self, user, body):
        """Opt-in apply of one recommendation — either the dict returned
        by ``GET /api/v1/advisor`` under ``recommendation``, or inline
        ``kind``/``dataset``/``column`` fields.  Ownership checks run as
        the calling user."""
        recommendation = body.get("recommendation")
        if recommendation is None:
            recommendation = {
                "kind": _require(body, "kind"),
                "dataset": _require(body, "dataset"),
                "column": body.get("column"),
            }
        outcome = self._workload_advisor().apply(
            recommendation, owner=user, dry_run=_truthy(body.get("dry_run")))
        return 200, outcome

    @route("GET", "/api/v1/alerts")
    def alerts(self, user, body):
        """Alert rules with live state, plus the notification log."""
        return 200, self._monitor().alerts.to_dict()

    @route("GET", "/api/v1/health", auth=False)
    def health(self, user, body):
        """Aggregate health; no auth so load balancers can probe it.  503
        while any alert is firing, 200 otherwise."""
        monitor = getattr(self.runtime, "monitor", None)
        if monitor is None:
            return 200, {"status": "ok", "monitoring": False}
        payload = monitor.health()
        payload["monitoring"] = True
        return (503 if payload["status"] == "degraded" else 200), payload

    @route("GET", "/api/v1/cluster/status", auth=False)
    def cluster_status(self, user, body):
        """Shard topology and supervision state — a coordinator's answer
        (:class:`repro.cluster.app.ClusterApp`); one node has no shards."""
        raise _HTTPError(404, "not a cluster: this server runs no shards")

    def _get_query(self, user, query_id):
        job = self.runtime.get(query_id)
        if job is None:
            raise _HTTPError(404, "no query %r" % query_id)
        if job.user != user:
            raise _HTTPError(403, "query %r belongs to another user" % query_id)
        return job

    # -- helpers ----------------------------------------------------------------------------

    def _dataset_info(self, dataset):
        return {
            "name": dataset.name,
            "owner": dataset.owner,
            "kind": dataset.kind,
            "sql": dataset.sql,
            "description": dataset.metadata.description,
            "tags": sorted(dataset.metadata.tags),
            "visibility": self.platform.visibility(dataset.name),
            "created_at": dataset.created_at,
            "derived_from": dataset.derived_from,
            "doi": dataset.doi,
        }


SQLShareApp._routes = SQLShareApp._bind_routes()


def _require(body, key):
    value = body.get(key)
    if value is None:
        raise _HTTPError(400, "missing required field %r" % key)
    return value


def _truthy(value):
    """Query-string booleans: ``?regressions=1`` / ``true`` / ``yes``."""
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def serve(platform=None, host="127.0.0.1", port=8080, runtime_config=None):
    """Run the app on wsgiref's simple server (for the examples/demo)."""
    from wsgiref.simple_server import make_server

    app = SQLShareApp(platform, runtime_config=runtime_config)
    # A long-lived service should flag statically suspect plans (log +
    # check_plan_violations_total) but keep serving; strict fail-closed is
    # for tests and CI, where the default stands.
    app.platform.db.plan_check_mode = "warn"
    server = make_server(host, port, app)
    return server
