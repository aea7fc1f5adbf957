"""The correlated structured event log: one JSON line per lifecycle event.

Tracing (``repro.obs.tracing``) answers "where did *this* request spend
its time"; the event log answers "what happened on this cluster, in
order" — the SkyServer Traffic Report's raw material.  Every process
(coordinator, each shard worker, a single-node server) appends one JSON
object per lifecycle event — submit, route, shard op, cache hit/miss,
batch transition, respawn, alert transition — stamped with the
``trace_id`` / ``shard`` / ``user`` / ``fingerprint`` that let
``repro logs`` correlate lines across processes into one timeline.

Timestamps are **monotonic offsets from a per-process epoch origin**:
each :class:`EventLog` records ``time.time()`` and ``time.monotonic()``
once at construction and stamps every event with
``origin_epoch + (monotonic_now - origin_mono)``.  Within a process the
order can therefore never be scrambled by wall-clock adjustment, and
across processes on one host the epochs agree closely enough for a
merged timeline (the ``seq`` field breaks ties deterministically).

Logs are written per-process with bounded rotation (``max_bytes`` per
file, ``backups`` rotated generations) so a long-lived shard can never
fill the disk, plus an in-memory ring for endpoint/test access.  Writes
swallow I/O errors: observability must never take a query path down.

Writes are buffered and flushed by a background thread every
``FLUSH_INTERVAL`` seconds rather than per line: at cluster query rates
a per-event flush syscall is the single largest observability cost, and
the log's contract is a merged timeline within tailing latency, not a
durability journal (the WAL owns durability).  ``flush()`` forces the
buffer out for readers that cannot wait.
"""

import json
import os
import threading
import time
from collections import deque

#: Default rotation geometry: ~4 MiB per generation, 3 generations kept.
MAX_BYTES = 4 * 1024 * 1024
BACKUPS = 3

#: How long a written line may sit in the process buffer before the
#: background flusher pushes it to the file (tail-following latency).
FLUSH_INTERVAL = 0.2

#: File name every process uses inside its own directory; ``repro logs``
#: discovers coordinator + shard logs by this name.
EVENTS_FILE = "events.jsonl"


class EventLog(object):
    """A per-process structured event sink: ring buffer + rotated file."""

    def __init__(self, path=None, process="local", shard=None,
                 max_bytes=MAX_BYTES, backups=BACKUPS, capacity=2048):
        self.path = str(path) if path is not None else None
        self.process = process
        self.shard = shard
        self.max_bytes = max_bytes
        self.backups = backups
        self._origin_mono = time.monotonic()
        self._origin_epoch = time.time()
        self._ring = deque(maxlen=capacity)
        self._seq = 0
        self._fh = None
        self._lock = threading.Lock()
        self._dirty = False
        self._flusher = None
        self._closed = False

    # -- writing ---------------------------------------------------------------

    def emit(self, event, trace_id=None, user=None, fingerprint=None,
             **fields):
        """Record one event; returns the record dict (or None on a no-op
        sink).  Never raises: the log is advisory by contract."""
        record = {
            "ts": round(
                self._origin_epoch
                + (time.monotonic() - self._origin_mono), 6),
            "event": event,
            "process": self.process,
        }
        if self.shard is not None:
            record["shard"] = self.shard
        if trace_id is not None:
            record["trace_id"] = trace_id
        if user is not None:
            record["user"] = user
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self._ring.append(record)
            if self.path is not None:
                try:
                    self._write_locked(record)
                except OSError:
                    pass  # a full/unwritable disk must not fail the caller
        return record

    def _write_locked(self, record):
        if self._fh is None:
            # Binary append: BufferedWriter.tell() is cheap and counts
            # buffered bytes, so rotation triggers without a flush.
            # One-time lazy open; writes after it are buffered (no
            # syscall) and the log is advisory by contract.
            self._fh = open(self.path, "ab")  # selfcheck: ok[SELFCHECK003]
            if self._flusher is None and not self._closed:
                self._flusher = threading.Thread(
                    target=self._flush_loop, name="event-log-flusher",
                    daemon=True)
                self._flusher.start()
        line = json.dumps(record, default=str, separators=(",", ":")) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._dirty = True
        if self._fh.tell() >= self.max_bytes:
            self._rotate_locked()

    def _flush_loop(self):
        while not self._closed:
            time.sleep(FLUSH_INTERVAL)
            try:
                self.flush()
            except OSError:
                pass

    def flush(self):
        """Push buffered lines to the file (tailing readers see them)."""
        with self._lock:
            if self._fh is not None and self._dirty:
                self._dirty = False
                self._fh.flush()

    def _rotate_locked(self):
        """Shift ``events.jsonl.(n)`` up one generation and start fresh."""
        self._fh.close()
        self._fh = None
        self._dirty = False
        for index in range(self.backups - 1, 0, -1):
            src = "%s.%d" % (self.path, index)
            if os.path.exists(src):
                os.replace(src, "%s.%d" % (self.path, index + 1))
        if self.backups > 0:
            os.replace(self.path, self.path + ".1")
        else:
            os.remove(self.path)

    # -- reading ---------------------------------------------------------------

    def recent(self, limit=None, trace_id=None, user=None, event=None):
        """Ring-buffer contents, oldest first, optionally filtered."""
        with self._lock:
            records = list(self._ring)
        records = filter_events(records, trace_id=trace_id, user=user,
                                event=event)
        if limit is not None:
            records = records[-limit:]
        return records

    def close(self):
        self._closed = True
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None
                self._dirty = False


class NullEventLog(object):
    """Every emit a no-op — the uninstrumented baseline's sink."""

    path = None
    process = "null"
    shard = None

    def emit(self, event, **_fields):
        return None

    def recent(self, **_filters):
        return []

    def flush(self):
        pass

    def close(self):
        pass


# -- the per-process default sink ---------------------------------------------
#
# One process has one event log (a worker *is* a shard; the coordinator is
# the coordinator), so module-level configure/emit keeps every emit site —
# scheduler, batch lane, alert manager, cluster layers — free of plumbing.

_default = EventLog()
_default_lock = threading.Lock()


def configure(path=None, process="local", shard=None, enabled=True,
              **kwargs):
    """Install this process's event sink (file-backed when ``path`` is
    given, ring-only otherwise, inert when ``enabled=False``)."""
    global _default
    log = (EventLog(path=path, process=process, shard=shard, **kwargs)
           if enabled else NullEventLog())
    with _default_lock:
        previous, _default = _default, log
    previous.close()
    return log


def get_log():
    return _default


def emit(event, **fields):
    """Emit on the process-default sink (see :meth:`EventLog.emit`)."""
    return _default.emit(event, **fields)


# -- merged readers (the `repro logs` machinery) ------------------------------

def cluster_log_paths(base_dir):
    """Every event-log path under a serve/cluster data directory:
    the coordinator's (or single node's) log first, then each shard's,
    each preceded by its rotated generations (oldest first)."""
    bases = [os.path.join(base_dir, EVENTS_FILE)]
    try:
        entries = sorted(os.listdir(base_dir))
    except OSError:
        entries = []
    for entry in entries:
        if entry.startswith("shard-"):
            bases.append(os.path.join(base_dir, entry, EVENTS_FILE))
    paths = []
    for base in bases:
        for index in range(BACKUPS, 0, -1):
            rotated = "%s.%d" % (base, index)
            if os.path.exists(rotated):
                paths.append(rotated)
        if os.path.exists(base):
            paths.append(base)
    return paths


def _parse_lines(fh):
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail mid-rotation; skip, never die
        if isinstance(record, dict):
            yield record


def read_events(paths, trace_id=None, user=None, event=None):
    """All records from ``paths`` merged into one timeline, ordered by
    monotonic-offset timestamp (then process, then per-process seq)."""
    records = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                records.extend(_parse_lines(fh))
        except OSError:
            continue
    records = filter_events(records, trace_id=trace_id, user=user,
                            event=event)
    records.sort(key=_order_key)
    return records


def filter_events(records, trace_id=None, user=None, event=None):
    return [
        record for record in records
        if (trace_id is None or record.get("trace_id") == trace_id)
        and (user is None or record.get("user") == user)
        and (event is None or record.get("event") == event)
    ]


def _order_key(record):
    return (record.get("ts", 0.0), str(record.get("process", "")),
            record.get("seq", 0))


def follow_events(paths, poll=0.5, stop=None, trace_id=None, user=None,
                  event=None):
    """Tail-follow ``paths``: yield existing records merged, then poll for
    growth (a truncated/rotated file is re-read from the top).  ``stop``
    is a callable checked once per poll so tests and Ctrl-C handling can
    end the generator."""
    offsets = {}
    batch = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                batch.extend(_parse_lines(fh))
                offsets[path] = fh.tell()
        except OSError:
            offsets[path] = 0
    batch = filter_events(batch, trace_id=trace_id, user=user, event=event)
    batch.sort(key=_order_key)
    for record in batch:
        yield record
    while stop is None or not stop():
        time.sleep(poll)
        batch = []
        for path in paths:
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size < offsets.get(path, 0):
                offsets[path] = 0  # rotated under us: start over
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offsets.get(path, 0))
                batch.extend(_parse_lines(fh))
                offsets[path] = fh.tell()
        batch = filter_events(batch, trace_id=trace_id, user=user,
                              event=event)
        batch.sort(key=_order_key)
        for record in batch:
            yield record
