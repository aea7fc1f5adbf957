"""The per-shard worker process: ``python -m repro.cluster.worker``.

One worker is a complete single-node deployment — its own
:class:`~repro.core.sqlshare.SQLShare` platform, query runtime (both
lanes), WAL/snapshot data directory and metrics registry — serving the
coordinator over the length-prefixed JSON protocol on a localhost TCP
socket.  Nothing is shared between workers: crash one and the others
keep serving; restart it and it recovers from its *own* WAL+snapshot.

Startup writes the bound port to ``<shard-dir>/worker.port`` (the
coordinator polls for the file), then serves until a ``shutdown`` frame
or SIGTERM.

Operations (one JSON frame each):

``ping``             liveness: pid + shard index.
``http``             proxy one REST request through the worker's own
                     WSGI app — the generic op the coordinator uses for
                     the whole existing surface.
``fetch_dataset``    permission-checked full read of one dataset, with
                     schema and sharing metadata (cross-shard step 1).
``install_replica``  install a fetched dataset as a local, non-durable
                     ``kind="replica"`` dataset (cross-shard step 2).
``catalog``          every local dataset's (name, owner, kind) — the
                     coordinator's directory rebuild.
``resolve``          one name's (owner, kind), or null.
``stats``            the runtime's stats payload, tagged with the shard.
``metrics``          Prometheus exposition text for this shard.
``checkpoint``       force a snapshot checkpoint (when durable).
``shutdown``         graceful stop (checkpoint, close, exit).
"""

import argparse
import json
import os
import socket
import sys
import threading
import time

from repro.cluster import protocol
from repro.cluster.router import shard_for_user
from repro.core.sqlshare import SQLShare, quote_ident
from repro.engine.catalog import Column
from repro.engine.types import SQLType
from repro.errors import DatasetError, ReproError
from repro.obs import events
from repro.obs.tracing import Trace
from repro.runtime import RuntimeConfig, QueryRuntime
from repro.server.client import _WSGITransport
from repro.server.rest import SQLShareApp

PORT_FILE = "worker.port"


def filter_to_shard(platform, shard, shards):
    """Drop every dataset whose owner does not belong to this shard.

    Partitioning is by user (see :mod:`repro.cluster.router`): after
    generation each worker keeps only its own users' datasets.  Derived
    views referencing dropped datasets stay in place and fail at query
    time — exactly the single-node semantics — until cross-shard routing
    installs a replica under the missing name.
    """
    dropped = 0
    for dataset in platform.all_datasets():
        if shard_for_user(dataset.owner, shards) != shard:
            platform.delete_dataset(dataset.owner, dataset.name)
            dropped += 1
    return dropped


def install_replica(platform, name, owner, columns, rows,
                    visibility="private", shared_with=()):
    """Install a remote dataset's rows as a local ``replica`` dataset.

    Replicas are deliberately **not** WAL-logged: they are soft state,
    refreshed by the coordinator on every cross-shard query, and a
    recovered worker simply starts without them.  An existing replica of
    the same name is replaced; a non-replica of the same name is a
    routing bug and refuses loudly.
    """
    with platform._state_lock:
        existing = platform.datasets.get(name.lower())
        if existing is not None:
            if existing.kind != "replica":
                raise DatasetError(
                    "dataset %r exists locally and is not a replica" % name)
            platform._drop_dataset(existing)
        base_table = platform._mint_base_table(name)
        column_objects = [Column(col_name, SQLType(type_name))
                          for col_name, type_name in columns]
        platform.db.create_table_from_rows(
            base_table, column_objects, [tuple(row) for row in rows])
        dataset = platform._wrap_base_table(
            name, owner, "replica", base_table,
            description="cross-shard replica")
        platform._invalidate_cache(name, dataset)
        # Mirror the source's sharing so the local permission check gives
        # exactly the answer the owning shard already gave.
        if visibility == "public":
            platform.permissions.make_public(name)
        else:
            for user in shared_with:
                platform.permissions.share(name, user)
    return dataset


class WorkerServer(object):
    """The protocol server wrapping one shard's app/runtime/storage."""

    def __init__(self, shard, app, manager=None):
        self.shard = shard
        self.app = app
        self.platform = app.platform
        self.runtime = app.runtime
        self.manager = manager
        self.transport = _WSGITransport(app)
        self._listener = None
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------------

    def bind(self, host="127.0.0.1", port=0):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self._listener = listener
        return listener.getsockname()[1]

    def serve_forever(self):
        self._listener.settimeout(0.2)
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True)
            thread.start()
        self._listener.close()

    def stop(self):
        self._stop.set()

    def _serve_connection(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while not self._stop.is_set():
                try:
                    message = protocol.recv_message(conn)
                except protocol.ConnectionClosed:
                    return
                protocol.send_message(conn, self.handle(message))
        except protocol.ProtocolError:
            pass  # malformed peer; drop the connection
        finally:
            conn.close()

    # -- dispatch --------------------------------------------------------------

    def handle(self, message):
        op = message.get("op")
        context = protocol.extract_trace(message)
        if context is None or not context.sampled:
            return self._dispatch(op, message)
        # Traced frame: record this op into a fragment rooted at the
        # propagated context and ship the fragment back in the reply.
        fragment = Trace(context.trace_id, parent=context.parent)
        started = time.monotonic()
        with fragment.span("op:%s" % op, shard=self.shard):
            reply = self._dispatch(op, message)
        events.emit("shard_op", trace_id=context.trace_id, op=op,
                    ok=bool(reply.get("ok", False))
                    if isinstance(reply, dict) else None,
                    ms=round((time.monotonic() - started) * 1000.0, 3))
        if isinstance(reply, dict):
            reply = dict(reply)
            reply[protocol.TRACE_KEY] = fragment.to_dict()
        return reply

    def _dispatch(self, op, message):
        handler = getattr(self, "_op_%s" % op, None)
        if handler is None:
            return {"ok": False, "error": "unknown op %r" % op}
        try:
            return handler(message)
        except ReproError as exc:
            return {"ok": False, "error": str(exc),
                    "error_type": type(exc).__name__}
        except Exception as exc:  # defensive: one bad frame must not kill us
            return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc),
                    "error_type": type(exc).__name__}

    def _op_ping(self, message):
        return {"ok": True, "pid": os.getpid(), "shard": self.shard}

    def _op_http(self, message):
        headers = {}
        if message.get("user") is not None:
            headers["X-SQLShare-User"] = message["user"]
        body = message.get("body")
        context = protocol.extract_trace(message)
        if context is not None and context.sampled and isinstance(body, dict):
            # Propagate into the REST layer: submit bodies honour a
            # "trace" key, so proxied submits join the cluster trace.
            body = dict(body)
            body.setdefault(protocol.TRACE_KEY, context.to_wire())
        status, payload = self.transport.request(
            message.get("method", "GET"), message["path"], headers, body)
        return {"ok": True, "status": status, "payload": payload}

    def _op_fetch_dataset(self, message):
        user, name = message["user"], message["name"]
        platform = self.platform
        platform.permissions.check_access(user, name)
        dataset = platform.dataset(name)
        sql = "SELECT * FROM %s" % quote_ident(name)
        schema = platform.db.query_schema(sql)
        result = platform.db.execute(sql)
        return {
            "ok": True,
            "name": dataset.name,
            "owner": dataset.owner,
            "kind": dataset.kind,
            "columns": [[col_name, col_type.value]
                        for col_name, col_type in schema],
            "rows": [list(row) for row in result.rows],
            "visibility": platform.visibility(name),
            "shared_with": sorted(platform.permissions.shared_with(name)),
        }

    def _op_install_replica(self, message):
        dataset = install_replica(
            self.platform, message["name"], message["owner"],
            message["columns"], message["rows"],
            visibility=message.get("visibility", "private"),
            shared_with=message.get("shared_with", ()))
        return {"ok": True, "name": dataset.name, "kind": dataset.kind}

    def _op_catalog(self, message):
        return {"ok": True, "datasets": [
            {"name": dataset.name, "owner": dataset.owner,
             "kind": dataset.kind}
            for dataset in self.platform.all_datasets()
        ]}

    def _op_resolve(self, message):
        dataset = self.platform.datasets.get(message["name"].lower())
        if dataset is None:
            return {"ok": True, "entry": None}
        return {"ok": True, "entry": {
            "name": dataset.name, "owner": dataset.owner,
            "kind": dataset.kind,
        }}

    def _op_stats(self, message):
        payload = self.runtime.stats()
        payload["shard"] = self.shard
        return {"ok": True, "stats": payload}

    def _op_metrics(self, message):
        return {"ok": True,
                "text": self.platform.metrics.render_prometheus()}

    def _op_checkpoint(self, message):
        if self.manager is None:
            return {"ok": False, "error": "worker is running ephemerally"}
        return {"ok": True, "checkpoint": self.manager.checkpoint()}

    def _op_shutdown(self, message):
        self._stop.set()
        return {"ok": True}


def build_platform(args):
    """Recover-or-generate this shard's platform, mirroring single-node
    ``repro serve``: an existing data directory wins; otherwise generate
    (filtered to this shard's users) and checkpoint, or start empty."""
    manager = None
    if args.ephemeral:
        if args.scale > 0:
            from repro.synth.driver import build_sqlshare_deployment

            platform, _generator = build_sqlshare_deployment(
                scale=args.scale, seed=args.seed)
            filter_to_shard(platform, args.shard_index, args.shards)
        else:
            platform = SQLShare()
        return platform, manager
    from repro.storage import StorageManager

    manager = StorageManager(
        args.shard_dir, sync=args.wal_sync,
        auto_checkpoint_records=args.checkpoint_every or None)
    if manager.has_state():
        platform, _report = manager.recover()
    elif args.scale > 0:
        from repro.synth.driver import build_sqlshare_deployment

        platform, _generator = build_sqlshare_deployment(
            scale=args.scale, seed=args.seed)
        filter_to_shard(platform, args.shard_index, args.shards)
        manager.adopt(platform)
    else:
        platform = manager.attach(SQLShare())
    return platform, manager


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="one shard of a repro cluster (spawned by the coordinator)")
    parser.add_argument("--shard-dir", required=True,
                        help="this shard's directory (port file + WAL/snapshots)")
    parser.add_argument("--shard-index", type=int, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--scale", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--wal-sync", choices=["buffered", "fsync"],
                        default="buffered")
    parser.add_argument("--checkpoint-every", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4,
                        help="interactive worker threads per shard")
    parser.add_argument("--statement-timeout", type=float, default=30.0)
    parser.add_argument("--ephemeral", action="store_true",
                        help="no WAL/snapshots")
    parser.add_argument("--monitor", action="store_true",
                        help="run the continuous monitor on this shard")
    parser.add_argument("--monitor-interval", type=float, default=5.0)
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    os.makedirs(args.shard_dir, exist_ok=True)
    # This process's structured event sink: one JSON-lines file in the
    # shard directory, every line stamped with the shard's lane label.
    events.configure(
        path=os.path.join(args.shard_dir, events.EVENTS_FILE),
        process="shard%d" % args.shard_index, shard=args.shard_index)
    platform, manager = build_platform(args)
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=args.workers,
        statement_timeout=args.statement_timeout,
        monitor_enabled=args.monitor,
        monitor_interval=args.monitor_interval,
    ))
    app = SQLShareApp(platform=platform, runtime=runtime)
    # Long-lived service: flag statically suspect plans but keep serving.
    platform.db.plan_check_mode = "warn"
    server = WorkerServer(args.shard_index, app, manager=manager)
    port = server.bind()
    # Write-then-rename so the coordinator never reads a half-written file.
    port_path = os.path.join(args.shard_dir, PORT_FILE)
    tmp_path = port_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({"port": port, "pid": os.getpid(),
                   "shard": args.shard_index}, handle)
    os.replace(tmp_path, port_path)
    try:
        server.serve_forever()
    finally:
        runtime.shutdown()
        if manager is not None:
            try:
                manager.checkpoint()
            except Exception:
                pass  # a failed final checkpoint only means longer replay
            manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
