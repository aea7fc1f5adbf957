"""Outside-in span recorder for the traced run.

The program is not edited: at start-up each layer's public entry points
are looked up by dotted name and replaced by a wrapper that records a span
(name, start, end, parent, op id) on a per-thread stack.  Spans stay in
memory and are written as Chrome trace JSON when the run ends.  A layer's
*busy* time is self time: a span's duration minus what its child spans
cover, summed over the phase.

A boundary that cannot be resolved — the program was refactored — costs
one warning line and turns that layer's metrics into ``None``; it never
fails the run.
"""

import collections
import functools
import importlib
import json
import sys
import threading
import time

# -- count hooks, run after a wrapped call returns ----------------------------------


def _count_response(tracer, args, result):
    tracer.count("server.rest.response_bytes", sum(map(len, result)))


def _count_execute(tracer, args, result):
    # Rows the plan could have read (sizes of the base tables it reaches)
    # against rows it returned; cache hits did no executor work.
    info = getattr(result, "info", None)
    if info is None or getattr(result, "cache_hit", False):
        return
    database = args[0]
    base_rows = 0
    for table in info.tables:
        try:
            base_rows += database.row_count(table)
        except Exception:  # dropped by a concurrent delete
            pass
    tracer.count("engine.executor.base_rows", base_rows)
    tracer.count("engine.executor.rows_out", len(result.rows))


def _count_ingest(tracer, args, result):
    tracer.count("ingest.rows", result.row_count)
    tracer.count("ingest.bytes_in", len(args[2]))


def _count_checkpoint(tracer, args, result):
    tracer.count("storage.snapshot.bytes_written", result["bytes"])


def _count_recover(tracer, args, result):
    tracer.count("storage.recovery.records_replayed",
                 result[1].records_replayed)


# -- op-id hand-off between the submitting and the executing thread ----------------


def _remember_submit(tracer, state, args, kwargs):
    # QueryRuntime.submit(self, user, sql, ...), on the client thread.
    if state.op_id is not None and len(args) >= 3:
        tracer.pending[(args[1], args[2])].append(state.op_id)


def _adopt_submit(tracer, state, args, kwargs):
    # SQLShare.run_query(self, user, sql, ...), on a worker thread.  Two
    # in-flight ops with the same user and text are the same work, so
    # which of them a span lands on does not matter.
    if state.op_id is None and len(args) >= 3:
        queue = tracer.pending.get((args[1], args[2]))
        if queue:
            state.adopted = True
            state.op_id = queue.popleft()


#: (layer, span name, dotted target, before hook, after hook).  The target
#: is the name the *caller* resolves, which for ``from x import f`` is the
#: importing module's attribute.
BOUNDARIES = [
    ("server.rest", "rest.call",
     "repro.server.rest.SQLShareApp.__call__", None, _count_response),
    ("runtime.scheduler", "scheduler.submit",
     "repro.runtime.scheduler.QueryRuntime.submit", _remember_submit, None),
    ("lint", "db.check", "repro.engine.database.Database.check", None, None),
    ("lint", "lint.statement", "repro.lint.lint_statement", None, None),
    ("engine.parser", "parser.parse", "repro.engine.parser.parse", None, None),
    ("engine.semantic", "semantic.analyze",
     "repro.engine.semantic.analyze", None, None),
    ("engine.planner", "planner.plan",
     "repro.engine.planner.Planner.plan", None, None),
    ("check.plancheck", "plancheck.verify",
     "repro.engine.database.verify_plan", None, None),
    ("engine.executor", "executor.execute_plan",
     "repro.engine.database.execute_plan", None, None),
    ("engine.database", "db.execute",
     "repro.engine.database.Database.execute", None, _count_execute),
    ("runtime.cache", "cache.lookup",
     "repro.runtime.cache.ResultCache.lookup", None, None),
    ("runtime.cache", "cache.store",
     "repro.runtime.cache.ResultCache.store", None, None),
    ("runtime.cache", "cache.invalidate",
     "repro.runtime.cache.ResultCache.invalidate", None, None),
    ("core.sqlshare", "sqlshare.run_query",
     "repro.core.sqlshare.SQLShare.run_query", _adopt_submit, None),
    ("core.sqlshare", "sqlshare.upload",
     "repro.core.sqlshare.SQLShare.upload", None, None),
    ("core.sqlshare", "sqlshare.append",
     "repro.core.sqlshare.SQLShare.append", None, None),
    ("core.sqlshare", "sqlshare.create_dataset",
     "repro.core.sqlshare.SQLShare.create_dataset", None, None),
    ("core.sqlshare", "sqlshare.delete_dataset",
     "repro.core.sqlshare.SQLShare.delete_dataset", None, None),
    ("ingest", "ingest.ingest_text",
     "repro.ingest.ingestor.Ingestor.ingest_text", None, _count_ingest),
    ("storage.wal", "wal.append",
     "repro.storage.wal.WriteAheadLog.append", None, None),
    ("storage.snapshot", "storage.checkpoint",
     "repro.storage.manager.StorageManager.checkpoint", None,
     _count_checkpoint),
    ("storage.recovery", "storage.recover",
     "repro.storage.manager.StorageManager.recover", None, _count_recover),
    ("storage.recovery", "recovery.snapshot_load",
     "repro.storage.snapshot.SnapshotStore.load_latest", None, None),
    ("storage.recovery", "recovery.snapshot_load",
     "repro.storage.manager.restore_platform_state", None, None),
]


def resolve(dotted):
    """``(owner, attribute)`` for a dotted name, or None when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Span(object):
    __slots__ = ("name", "layer", "start", "end", "parent", "op_id", "phase",
                 "child_s", "thread")

    def __init__(self, name, layer, start, parent, op_id, phase, thread):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id
        self.phase = phase
        self.child_s = 0.0
        self.thread = thread

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return max(0.0, self.end - self.start - self.child_s)


class _ThreadState(object):
    def __init__(self, name):
        self.name = name
        self.stack = []
        self.spans = []
        self.op_id = None
        self.adopted = False


class Tracer(object):
    def __init__(self, warn=None):
        #: Wrappers pass straight through while this is False.
        self.enabled = False
        self.phase = "setup"
        #: (phase, name) -> count, fed by the after hooks.
        self.counts = collections.Counter()
        self.pending = collections.defaultdict(collections.deque)
        #: Layers with at least one boundary that no longer resolves.
        self.missing_layers = set()
        self._warn = warn or (lambda line: sys.stderr.write(line + "\n"))
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._installed = []
        self._next_op = 0
        #: op id -> the client's OpRecord, for per-op accounting.
        self.ops = {}

    # -- installation ------------------------------------------------------------

    def install(self, boundaries=None):
        for layer, name, dotted, before, after in (
                BOUNDARIES if boundaries is None else boundaries):
            target = resolve(dotted)
            if target is None:
                self.missing_layers.add(layer)
                self._warn("trace: boundary %s is gone; %s.* metrics are "
                           "null" % (dotted, layer))
                continue
            owner, attribute = target
            original = getattr(owner, attribute)
            setattr(owner, attribute,
                    self._wrap(original, layer, name, before, after))
            self._installed.append((owner, attribute, original))

    def uninstall(self):
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, func, layer, name, before, after):
        tracer = self
        clock = time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            if before is not None:
                before(tracer, state, args, kwargs)
            parent = state.stack[-1] if state.stack else None
            span = Span(name, layer, clock(), parent, state.op_id,
                        tracer.phase, state.name)
            state.spans.append(span)
            state.stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                state.stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                elif state.adopted:
                    # The worker thread's root span is over; the next job
                    # it runs belongs to another op.
                    state.adopted = False
                    state.op_id = None
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def count(self, name, amount):
        self.counts[(self.phase, name)] += amount

    # -- the client loop's hooks ----------------------------------------------------

    def begin_op(self, record):
        state = self._state()
        with self._lock:
            self._next_op += 1
            state.op_id = self._next_op
            self.ops[state.op_id] = record

    def end_op(self):
        self._state().op_id = None

    # -- reading the spans ----------------------------------------------------------

    def spans(self, phase=None):
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans
                if phase is None or span.phase == phase]

    def busy(self, phase):
        """{layer: self seconds} and {span name: (calls, self seconds)}."""
        layers = collections.Counter()
        names = {}
        for span in self.spans(phase):
            layers[span.layer] += span.self_s
            calls, seconds = names.get(span.name, (0, 0.0))
            names[span.name] = (calls + 1, seconds + span.self_s)
        return layers, names

    def write_chrome(self, path):
        """Chrome ``trace_event`` JSON (load in chrome://tracing, Perfetto)."""
        spans = self.spans()
        origin = min((span.start for span in spans), default=0.0)
        threads = {}
        events = []
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 1, "tid": tid,
                "ts": round((span.start - origin) * 1e6, 1),
                "dur": round(span.duration * 1e6, 1),
                "args": {"op": span.op_id, "phase": span.phase},
            })
        for name, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": name}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
        return len(spans)
