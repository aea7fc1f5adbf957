"""The cluster coordinator: spawns, supervises and talks to shard workers.

The coordinator is the only process clients see.  It owns no query
engine — just the worker subprocesses, one pooled protocol connection
per shard, the dataset directory (name -> owning shard), and the
cluster-level metrics/alerting the per-shard registries cannot express
(``repro_cluster_shards_down`` drives the ``ShardDown`` default alert).

Supervision is deliberately simple: a 1 Hz loop polls each worker's
process and pings its socket.  An exited worker is respawned with the
same shard directory, so a durable shard recovers from its own
WAL+snapshot; an unresponsive-but-running worker is only *marked* down
(surfaced via /health as 503 ``shard_down``) — killing a busy worker on
a slow ping would turn load into an outage.
"""

import os
import json
import subprocess
import sys
import threading
import time

from repro.cluster import protocol
from repro.cluster.router import DatasetDirectory, shard_for_user
from repro.cluster.worker import PORT_FILE
from repro.errors import ClusterError
from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import ContinuousMonitor
from repro.obs.tracing import TraceContext

READY_TIMEOUT = 60.0


class WorkerHandle(object):
    """One shard's process + pooled connection, serialized by a lock."""

    def __init__(self, shard):
        self.shard = shard
        self.proc = None
        self.port = None
        self.pid = None
        self.alive = False
        self.restarts = 0
        self.connection = None
        self.lock = threading.Lock()
        self.started_at = None
        #: Trace id of the most recent *traced* call this shard failed —
        #: the respawn event carries it, so a trace whose shard died
        #: mid-request correlates with the recovery that followed.
        self.last_trace_failure = None

    def close_connection(self):
        if self.connection is not None:
            self.connection.close()
            self.connection = None


class ClusterCoordinator(object):
    """Spawn N workers, route frames to them, restart them when they die."""

    def __init__(self, shards, base_dir, scale=0.0, seed=42, ephemeral=False,
                 wal_sync="buffered", workers=4,
                 checkpoint_every=0, statement_timeout=30.0,
                 monitor_interval=5.0, supervise_interval=1.0,
                 call_timeout=60.0):
        if shards <= 0:
            raise ValueError("shard count must be positive, got %d" % shards)
        self.shards = shards
        self.base_dir = str(base_dir)
        self.scale = scale
        self.seed = seed
        self.ephemeral = ephemeral
        self.wal_sync = wal_sync
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self.statement_timeout = statement_timeout
        self.supervise_interval = supervise_interval
        self.call_timeout = call_timeout
        #: The coordinator's structured event log (configured at start);
        #: each worker configures its own.
        self.events = None
        self.handles = [WorkerHandle(index) for index in range(shards)]
        self.directory = DatasetDirectory()
        self._stop = threading.Event()
        self._supervisor = None
        self.started_at = None
        # Cluster-level metrics: the coordinator has no engine of its own,
        # so this registry carries only topology/supervision series.
        self.metrics = MetricsRegistry()
        self.metrics.gauge(
            "repro_cluster_shards",
            "Configured shard count.").set(shards)
        self.metrics.gauge_callback(
            "repro_cluster_shards_down",
            "Shards currently dead or unresponsive.",
            lambda: float(len(self.down_shards())))
        self._restarts_total = self.metrics.counter(
            "repro_cluster_worker_restarts_total",
            "Worker processes respawned by the supervisor.")
        self.monitor = ContinuousMonitor(self.metrics, interval=monitor_interval)

    # -- lifecycle -------------------------------------------------------------

    def shard_dir(self, shard):
        return os.path.join(self.base_dir, "shard-%d" % shard)

    def start(self):
        os.makedirs(self.base_dir, exist_ok=True)
        # The coordinator process's structured event sink (route / shard
        # op / respawn lines); each worker configures its own in main().
        self.events = events.configure(
            path=os.path.join(self.base_dir, events.EVENTS_FILE),
            process="coordinator")
        self.started_at = time.time()
        for handle in self.handles:
            self._spawn(handle)
        for handle in self.handles:
            self._wait_ready(handle)
            self.refresh_directory(handle.shard)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="cluster-supervisor", daemon=True)
        self._supervisor.start()
        self.monitor.start()
        return self

    def _worker_argv(self, handle):
        argv = [
            sys.executable, "-m", "repro.cluster.worker",
            "--shard-dir", self.shard_dir(handle.shard),
            "--shard-index", str(handle.shard),
            "--shards", str(self.shards),
            "--scale", str(self.scale),
            "--seed", str(self.seed),
            "--wal-sync", self.wal_sync,
            "--workers", str(self.workers),
            "--statement-timeout", str(self.statement_timeout),
            "--checkpoint-every", str(self.checkpoint_every),
        ]
        if self.ephemeral:
            argv.append("--ephemeral")
        return argv

    def _spawn(self, handle):
        shard_dir = self.shard_dir(handle.shard)
        os.makedirs(shard_dir, exist_ok=True)
        port_path = os.path.join(shard_dir, PORT_FILE)
        # A stale port file from a previous run must not look "ready".
        try:
            os.remove(port_path)
        except FileNotFoundError:
            pass
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_root + os.pathsep + existing
                             if existing else src_root)
        handle.proc = subprocess.Popen(self._worker_argv(handle), env=env)
        handle.alive = False
        handle.started_at = time.time()
        handle.close_connection()

    def _wait_ready(self, handle, timeout=READY_TIMEOUT):
        """Poll for the worker's port file, then confirm with a ping."""
        port_path = os.path.join(self.shard_dir(handle.shard), PORT_FILE)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if handle.proc.poll() is not None:
                raise ClusterError(
                    "shard %d worker exited with code %s during startup"
                    % (handle.shard, handle.proc.returncode))
            if os.path.exists(port_path):
                with open(port_path, "r", encoding="utf-8") as fh:
                    info = json.load(fh)
                handle.port = info["port"]
                handle.pid = info["pid"]
                reply = self.call(handle.shard, {"op": "ping"},
                                  mark_down_on_failure=False)
                if reply.get("ok"):
                    handle.alive = True
                    return handle
            time.sleep(0.05)
        raise ClusterError(
            "shard %d worker did not become ready within %.0fs"
            % (handle.shard, timeout))

    def stop(self):
        self._stop.set()
        self.monitor.stop()
        if self._supervisor is not None:
            self._supervisor.join(self.supervise_interval + 1.0)
        for handle in self.handles:
            try:
                self.call(handle.shard, {"op": "shutdown"},
                          mark_down_on_failure=False)
            except ClusterError:
                pass
            handle.close_connection()
            if handle.proc is not None:
                try:
                    handle.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    handle.proc.kill()
                    handle.proc.wait()

    # -- transport -------------------------------------------------------------

    def call(self, shard, message, mark_down_on_failure=True, trace=None):
        """Send one frame to ``shard`` over its pooled connection.

        Reconnects once on a broken pipe (the worker may have been
        restarted under us); a second failure marks the shard down and
        raises :class:`ClusterError` — the supervisor owns recovery.

        With ``trace`` (a :class:`~repro.obs.tracing.Trace`), the frame
        carries a propagated context whose parent is this hop's
        ``call:<op>`` span, the worker's span fragment is stitched back
        in from the reply, and a ``shard_op`` event is emitted.  A failed
        traced call still records its span — flagged ``truncated`` — and
        remembers the trace id on the handle so the supervisor's respawn
        event can correlate with the request that saw the shard die.
        """
        handle = self.handles[shard]
        if trace is None:
            return self._transport(handle, message, mark_down_on_failure)
        op = message.get("op")
        span_id = trace.new_span_id()
        context = TraceContext(trace.trace_id, parent=span_id)
        start = time.monotonic()
        connect = handle.connection is None
        try:
            reply = self._transport(
                handle, protocol.attach_trace(message, context),
                mark_down_on_failure)
        except ClusterError:
            handle.last_trace_failure = trace.trace_id
            trace.add_span("call:%s" % op, start, time.monotonic(),
                           span_id=span_id, shard=shard, error=True,
                           truncated=True)
            events.emit("shard_op", trace_id=trace.trace_id, op=op,
                        shard=shard, error=True)
            raise
        now = time.monotonic()
        attrs = {"shard": shard}
        if connect:
            attrs["connect"] = True
        trace.add_span("call:%s" % op, start, now, span_id=span_id, **attrs)
        if isinstance(reply, dict):
            fragment = reply.pop(protocol.TRACE_KEY, None)
            if fragment:
                trace.add_remote(fragment, process="shard%d" % shard,
                                 parent=span_id)
        events.emit("shard_op", trace_id=trace.trace_id, op=op, shard=shard,
                    ms=round((now - start) * 1000.0, 3))
        return reply

    def _transport(self, handle, message, mark_down_on_failure):
        with handle.lock:
            for attempt in (0, 1):
                try:
                    if handle.connection is None:
                        if handle.port is None:
                            raise ClusterError(
                                "shard %d has no known port" % handle.shard)
                        handle.connection = protocol.ShardConnection(
                            handle.port, timeout=self.call_timeout)
                        handle.connection.connect()
                    return handle.connection.call(message)
                except (protocol.ProtocolError, OSError) as exc:
                    handle.close_connection()
                    if attempt == 1:
                        if mark_down_on_failure:
                            handle.alive = False
                        raise ClusterError(
                            "shard %d unreachable: %s" % (handle.shard, exc))
        raise AssertionError("unreachable")

    def call_checked(self, shard, message, trace=None):
        """``call`` + raise :class:`ClusterError` on an application error."""
        reply = self.call(shard, message, trace=trace)
        if not reply.get("ok", False):
            raise ClusterError(
                "shard %d op %r failed: %s"
                % (shard, message.get("op"), reply.get("error")))
        return reply

    # -- topology --------------------------------------------------------------

    def shard_for_user(self, user):
        return shard_for_user(user, self.shards)

    def alive_shards(self):
        return [handle.shard for handle in self.handles if handle.alive]

    def down_shards(self):
        return [handle.shard for handle in self.handles if not handle.alive]

    def refresh_directory(self, shard):
        """Rebuild the directory's view of one shard from its catalog."""
        reply = self.call_checked(shard, {"op": "catalog"})
        self.directory.forget_shard(shard)
        for entry in reply["datasets"]:
            self.directory.register(
                entry["name"], entry["owner"], shard, kind=entry["kind"])

    def resolve(self, name, trace=None):
        """Directory lookup with resolve-on-miss against every live shard."""
        entry = self.directory.lookup(name)
        if entry is not None:
            return entry
        for shard in self.alive_shards():
            try:
                reply = self.call_checked(shard, {"op": "resolve",
                                                  "name": name}, trace=trace)
            except ClusterError:
                continue
            found = reply.get("entry")
            if found is not None and found.get("kind") != "replica":
                self.directory.register(
                    found["name"], found["owner"], shard, kind=found["kind"])
                return self.directory.lookup(name)
        return None

    # -- supervision -----------------------------------------------------------

    def _supervise_loop(self):
        while not self._stop.wait(self.supervise_interval):
            for handle in self.handles:
                if self._stop.is_set():
                    return
                self._check_worker(handle)

    def _check_worker(self, handle):
        proc = handle.proc
        if proc is None:
            return
        if proc.poll() is not None:
            # The process died (crash, OOM, kill -9): respawn it.  A durable
            # shard replays its own WAL+snapshot on the way back up.
            handle.alive = False
            handle.close_connection()
            self._restarts_total.inc()
            handle.restarts += 1
            try:
                self._spawn(handle)
                self._wait_ready(handle)
                self.refresh_directory(handle.shard)
            except (ClusterError, OSError):
                handle.alive = False
            # Correlated recovery line: carries the trace id of the last
            # traced call this shard failed (if any), so `repro logs
            # --trace <id>` shows the respawn beside the request it broke.
            events.emit("respawn", shard=handle.shard,
                        trace_id=handle.last_trace_failure,
                        restarts=handle.restarts, pid=handle.pid,
                        recovered=handle.alive)
            return
        # Process is up: ping unless the connection is busy with a call.
        if not handle.lock.acquire(timeout=0.5):
            return  # busy serving a long call; busy is not dead
        handle.lock.release()
        try:
            reply = self.call(handle.shard, {"op": "ping"},
                              mark_down_on_failure=False)
            handle.alive = bool(reply.get("ok"))
        except ClusterError:
            handle.alive = False

    # -- reporting -------------------------------------------------------------

    def status(self):
        return {
            "shards": self.shards,
            "started_at": self.started_at,
            "directory_entries": len(self.directory),
            "down": self.down_shards(),
            "workers": [
                {
                    "shard": handle.shard,
                    "pid": handle.pid,
                    "port": handle.port,
                    "alive": handle.alive,
                    "restarts": handle.restarts,
                    "data_dir": self.shard_dir(handle.shard),
                }
                for handle in self.handles
            ],
        }
