"""Client side of the end-to-end benchmark.

The in-process WSGI client, the closed-loop runner that times operations
from the caller's side, canonical result digests, order statistics and the
environment record.  Nothing here knows about a particular workload, and
the only thing it knows about the program is its REST protocol.
"""

import hashlib
import io
import json
import os
import platform as host_platform
import re
import statistics
import subprocess
import threading
import time

#: The checkout: ``BENCHMARK.json`` and the program's ``src/`` are here.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Client threads of every workload (``nproc`` on the reference host).
CLIENTS = 2

#: A query that has not finished after this long counts as failed.
JOB_WAIT_SECONDS = 60.0

READ, WRITE, ADMIN = "read", "write", "admin"

_TOP_RE = re.compile(r"\btop\b", re.IGNORECASE)
_ORDER_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)


class Op(object):
    """One pre-encoded request of a client stream.

    A ``read`` is the three-step query protocol (submit, wait, fetch) and
    ``body`` is the encoded ``POST /api/v1/query`` payload; a ``write`` or
    ``admin`` op is the single REST call ``method path``.  ``key`` names
    what the response is checked against after the timed phase and
    ``nbytes`` is the size of the user's file the op submits, if any.
    """

    __slots__ = ("kind", "method", "path", "user", "body", "key", "nbytes")

    def __init__(self, kind, method, path, user, body=b"", key=None,
                 nbytes=0):
        self.kind = kind
        self.method = method
        self.path = path
        self.user = user
        self.body = body
        self.key = key
        self.nbytes = nbytes

    def wire(self):
        """Bytes that identify the op (the self-test compares streams)."""
        return b"\0".join((self.kind.encode(), self.method.encode(),
                           self.path.encode(), self.user.encode(), self.body))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def query_op(user, sql, key=None, profile=False):
    payload = {"sql": sql}
    if profile:
        payload["profile"] = True
    return Op(READ, "POST", "/api/v1/query", user,
              json.dumps(payload).encode("utf-8"), key)


def json_op(kind, method, path, user, payload=None, key=None):
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    return Op(kind, method, path, user, body, key,
              nbytes=len(payload.get("data", "")) if payload else 0)


def stream_digest(streams):
    """SHA-256 over every op of every client's stream, in order."""
    sha = hashlib.sha256()
    for stream in streams:
        for op in stream:
            sha.update(op.wire())
            sha.update(b"\n")
        sha.update(b"--\n")
    return sha.hexdigest()


class OpRecord(object):
    """What the client saw for one op."""

    __slots__ = ("op", "start", "end", "status", "data", "job_times",
                 "profiled")

    def __init__(self, op):
        self.op = op
        self.start = self.end = 0.0
        self.status = 0
        self.data = b""
        #: Traced runs only: when the job was submitted, dispatched to a
        #: worker and finished, and when this client thread ran again.
        self.job_times = None
        self.profiled = False

    @property
    def ok(self):
        return 200 <= self.status < 300

    @property
    def latency_ms(self):
        return (self.end - self.start) * 1000.0


def wsgi_call(app, method, path, user, body=b""):
    """One request against the WSGI callable; returns (status, bytes)."""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
        "HTTP_X_SQLSHARE_USER": user,
    }
    captured = []

    def start_response(status, headers):
        captured.append(status)

    data = b"".join(app(environ, start_response))
    return int(captured[0][:3]), data


def run_op(app, op, record, traced=False):
    """Execute one op, filling ``record``; returns seconds spent inside
    the program (calls and the wait), the rest being client overhead."""
    clock = time.monotonic
    record.start = begin = clock()
    status, data = wsgi_call(app, op.method, op.path, op.user, op.body)
    inside = clock() - begin
    if op.kind == READ and status == 202:
        job_id = json.loads(data)["id"]
        begin = clock()
        job = app.runtime.get(job_id)
        # Stands in for a long-poll: no poll interval enters the latency.
        if job is not None:
            job.wait(JOB_WAIT_SECONDS)
        woke = clock()
        status, data = wsgi_call(
            app, "GET", "/api/v1/query/%s/results" % job_id, op.user)
        inside += clock() - begin
        if traced and job is not None and job.finished_at is not None:
            record.job_times = (job.submitted_at, job.started_at,
                                job.finished_at, woke)
            record.profiled = job.profile_data is not None
    record.end = clock()
    record.status = status
    record.data = data
    return inside


class LoopResult(object):
    def __init__(self, records, elapsed, inside_s, loop_s):
        self.records = records
        #: First op sent to last op answered, over all clients.
        self.elapsed = elapsed
        self.inside_s = inside_s
        self.loop_s = loop_s

    @property
    def generator_share(self):
        """Share of the clients' time spent outside the program."""
        return 1.0 - self.inside_s / self.loop_s if self.loop_s else 0.0


def run_closed_loop(app, streams, positions, seconds=None, max_ops=None,
                    wraps=True, tracer=None):
    """Drive ``streams`` (one op list per client) closed-loop.

    Each client sends its next op only when the previous one is answered.
    ``positions`` holds each client's next index and is advanced in place,
    so consecutive phases (warm-up, timed) continue one stream.  With
    ``wraps`` an exhausted stream starts over; a stream that cannot repeat
    (it creates named datasets) is sized by its workload and ends the phase
    early if it runs out.  The phase ends after ``seconds`` or after
    ``max_ops`` per client, whichever is given.
    """
    records = [[] for _ in streams]
    spent = [(0.0, 0.0)] * len(streams)
    barrier = threading.Barrier(len(streams))
    traced = tracer is not None

    def client(index):
        stream = streams[index]
        mine = records[index]
        position = positions[index]
        inside = 0.0
        barrier.wait()
        started = time.monotonic()
        deadline = started + seconds if seconds is not None else None
        done = 0
        while True:
            if position >= len(stream):
                if not wraps:
                    break
                position = 0
            if deadline is not None and time.monotonic() >= deadline:
                break
            if max_ops is not None and done >= max_ops:
                break
            op = stream[position]
            record = OpRecord(op)
            if traced:
                tracer.begin_op(record)
            inside += run_op(app, op, record, traced)
            if traced:
                tracer.end_op()
            mine.append(record)
            position += 1
            done += 1
        positions[index] = position
        spent[index] = (inside, time.monotonic() - started)

    threads = [threading.Thread(target=client, args=(index,),
                                name="bench-client-%d" % index)
               for index in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = [record for mine in records for record in mine]
    merged.sort(key=lambda record: record.start)
    elapsed = (max(record.end for record in merged) - merged[0].start
               if merged else 0.0)
    return LoopResult(merged, elapsed,
                      sum(inside for inside, _ in spent),
                      sum(loop for _, loop in spent))


# -- order statistics ----------------------------------------------------------


def percentile(values, fraction):
    """Nearest-rank percentile of an unsorted list (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def spread(values):
    """Inter-quartile distance over the median — the driver's own measure
    of run-to-run spread (None with fewer than two values)."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else None


# -- result digests ----------------------------------------------------------------


def _canonical(value):
    # Floats to six significant digits, and an integral float equal to the
    # integer, so an engine may change summation order or numeric width
    # without changing the digest.
    return "%.6g" % value if isinstance(value, float) else json.dumps(value)


def result_digest(sql, payload):
    """``"<rows>:<digest>"`` of a results payload.

    The digest covers the column names and the multiset of rows.  ``TOP``
    without ``ORDER BY`` may return any qualifying rows, so only columns
    and the count are compared there.
    """
    rows = payload["rows"]
    sha = hashlib.sha1(json.dumps(payload["columns"]).encode("utf-8"))
    if not (_TOP_RE.search(sql) and not _ORDER_RE.search(sql)):
        for line in sorted("\x1f".join(_canonical(value) for value in row)
                           for row in rows):
            sha.update(b"\x1e")
            sha.update(line.encode("utf-8"))
    return "%d:%s" % (len(rows), sha.hexdigest()[:16])


def golden_key(user, sql):
    return hashlib.sha1(("%s\0%s" % (user, sql)).encode("utf-8")).hexdigest()[:16]


# -- environment ---------------------------------------------------------------------


def environment(root):
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "loadavg": load,
        "clients": CLIENTS,
        "flush_policy": "buffered",
    }
