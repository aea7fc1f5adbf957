"""Query-lifecycle tracing: timed spans from submit to fetch.

Every :class:`~repro.runtime.job.QueryJob` carries a :class:`Trace`; the
scheduler and the engine append :class:`Span` records as the query moves
through submit → admit → parse → analyze → plan → execute → fetch (plus
cache probe spans).  Span timestamps are offsets from the trace's origin,
measured with ``time.monotonic()`` so durations survive wall-clock
adjustment; the origin also remembers an epoch timestamp — display for a
single process, and the *alignment point* when fragments recorded by
different processes are stitched into one cluster-wide trace.

Distributed traces: a :class:`TraceContext` (trace id, parent span id,
sampling flag) rides inside cluster protocol frames and submit bodies.
The receiving process records its spans into its own local trace and
ships them back as a *fragment* (``Trace.to_dict``); the coordinator
folds fragments in with :meth:`Trace.add_remote`, which aligns the remote
offsets via the epoch origins, tags every span with the source process
lane, and namespaces the remote span ids so they stay unique after the
merge.

Two export formats:

- :meth:`Trace.to_dict` — structured JSON for ``GET /api/v1/query/<id>/trace``
  (also the wire format for fragments);
- :meth:`Trace.to_chrome` — Chrome ``trace_event`` "X" (complete) events,
  loadable in ``chrome://tracing`` / Perfetto.  Lanes are deterministic:
  ``pid 0`` is the coordinator (or the only process of a single-node
  trace), shard ``k`` is ``pid k+1``, and tids are assigned by sorted
  thread name — repeated exports of the same workload diff cleanly.
"""

import re
import threading
import time
import uuid
from contextlib import contextmanager

_SHARD_LABEL = re.compile(r"^shard[-_]?(\d+)$")


def new_trace_id():
    """A fresh cluster-unique trace id (coordinator-minted per submit)."""
    return uuid.uuid4().hex[:16]


class TraceContext(object):
    """The propagated part of a trace: what crosses process boundaries."""

    __slots__ = ("trace_id", "parent", "sampled")

    def __init__(self, trace_id, parent=None, sampled=True):
        self.trace_id = trace_id
        #: Span id (in the originating process's trace) this hop is a
        #: child of; None for a root context.
        self.parent = parent
        self.sampled = bool(sampled)

    def to_wire(self):
        payload = {"id": self.trace_id, "sampled": self.sampled}
        if self.parent is not None:
            payload["parent"] = self.parent
        return payload

    @classmethod
    def from_wire(cls, payload):
        """Parse a wire dict; returns None for absent/malformed context
        (an untraced frame must never fail on account of tracing)."""
        if not isinstance(payload, dict) or not payload.get("id"):
            return None
        return cls(str(payload["id"]), parent=payload.get("parent"),
                   sampled=payload.get("sampled", True))

    def __repr__(self):
        return "TraceContext(%s, parent=%r, sampled=%r)" % (
            self.trace_id, self.parent, self.sampled)


class Span(object):
    """One timed phase of a query's life.

    ``start``/``end`` are seconds since the owning trace's origin.
    ``attrs`` carries small structured annotations (cache hit flags, row
    counts, outcome states).  ``process`` is None for spans recorded in
    this process and a lane label (``"shard1"``) for stitched remote
    spans; ``span_id``/``parent_id`` give exported traces a tree shape.
    """

    __slots__ = ("name", "start", "end", "thread_id", "thread_name",
                 "attrs", "process", "span_id", "parent_id")

    def __init__(self, name, start, end, thread_id=0, thread_name=None,
                 attrs=None, process=None, span_id=None, parent_id=None):
        self.name = name
        self.start = start
        self.end = end
        self.thread_id = thread_id
        #: The recording thread's name ("query-runtime-0", "MainThread"),
        #: carried so the Chrome export can label lanes.
        self.thread_name = thread_name
        self.attrs = attrs or {}
        self.process = process
        self.span_id = span_id
        self.parent_id = parent_id

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        payload = {
            "name": self.name,
            "start_ms": round(self.start * 1000.0, 3),
            "duration_ms": round(self.duration * 1000.0, 3),
        }
        if self.span_id is not None:
            payload["id"] = self.span_id
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.process is not None:
            payload["process"] = self.process
        if self.thread_name is not None:
            payload["thread"] = self.thread_name
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload

    def __repr__(self):
        return "Span(%s, %.3fms)" % (self.name, self.duration * 1000.0)


class Trace(object):
    """An append-only list of spans for one query (thread-safe).

    Spans may be recorded from the submitting thread, the worker thread and
    the fetching thread; the lock only guards the append, so tracing costs
    one monotonic read per edge plus one small object per span.
    """

    __slots__ = ("trace_id", "parent", "origin", "origin_epoch", "_spans",
                 "_seq", "_lock")

    def __init__(self, trace_id, parent=None):
        self.trace_id = trace_id
        #: Remote parent span id when this trace is one process's fragment
        #: of a distributed trace (set from the propagated TraceContext).
        self.parent = parent
        #: Monotonic zero point every span offset is relative to.
        self.origin = time.monotonic()
        #: Epoch timestamp of the origin: display for one process, the
        #: alignment point when stitching fragments across processes.
        self.origin_epoch = time.time()
        self._spans = []
        self._seq = 0
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def new_span_id(self):
        """Reserve a span id before the span closes — the propagation case:
        the id must ride in the frame while the call span is still open."""
        with self._lock:
            span_id = "sp%d" % self._seq
            self._seq += 1
        return span_id

    def add_span(self, name, start, end, span_id=None, parent=None, **attrs):
        """Record a finished span from absolute monotonic timestamps."""
        span = Span(
            name,
            start - self.origin,
            end - self.origin,
            thread_id=threading.get_ident(),
            thread_name=threading.current_thread().name,
            attrs=attrs or None,
            span_id=span_id,
            parent_id=parent,
        )
        with self._lock:
            if span.span_id is None:
                span.span_id = "sp%d" % self._seq
                self._seq += 1
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name, span_id=None, parent=None, **attrs):
        """Context manager timing one phase; attrs may be added via the
        yielded dict (e.g. ``payload["hit"] = True``)."""
        start = time.monotonic()
        payload = dict(attrs)
        try:
            yield payload
        finally:
            span = Span(
                name,
                start - self.origin,
                time.monotonic() - self.origin,
                thread_id=threading.get_ident(),
                thread_name=threading.current_thread().name,
                attrs=payload or None,
                span_id=span_id,
                parent_id=parent,
            )
            with self._lock:
                if span.span_id is None:
                    span.span_id = "sp%d" % self._seq
                    self._seq += 1
                self._spans.append(span)

    def add_remote(self, fragment, process, parent=None, truncated=False,
                   prefix=None):
        """Stitch one remote fragment (a ``Trace.to_dict`` payload) in.

        Remote offsets are re-based through the two epoch origins, every
        span is tagged with the ``process`` lane label, and remote span
        ids (and intra-fragment parent references) are namespaced as
        ``<prefix>:<id>`` (default prefix: the process label) so they
        cannot collide with local ids or with another shard's.  Fragment
        spans without an explicit parent become children of ``parent``
        (or of the fragment's propagated parent), which stays
        *un*-namespaced — it names a span of *this* trace.  Returns the
        number of spans added.
        """
        if not isinstance(fragment, dict):
            return 0
        if prefix is None:
            prefix = process
        try:
            offset = float(fragment.get("origin_epoch",
                                        self.origin_epoch)) - self.origin_epoch
        except (TypeError, ValueError):
            offset = 0.0
        default_parent = parent or fragment.get("parent")
        added = []
        for payload in fragment.get("spans", []):
            try:
                start = offset + float(payload.get("start_ms", 0.0)) / 1000.0
                duration = float(payload.get("duration_ms", 0.0)) / 1000.0
            except (TypeError, ValueError):
                continue
            attrs = dict(payload.get("attrs") or {})
            if truncated:
                attrs["truncated"] = True
            span_id = payload.get("id")
            parent_id = payload.get("parent")
            added.append(Span(
                payload.get("name", "?"),
                start,
                start + duration,
                thread_id=0,
                thread_name=payload.get("thread") or process,
                attrs=attrs or None,
                process=payload.get("process") or process,
                span_id=("%s:%s" % (prefix, span_id)
                         if span_id is not None and prefix else span_id),
                parent_id=("%s:%s" % (prefix, parent_id)
                           if parent_id is not None and prefix
                           else (parent_id or default_parent)),
            ))
        with self._lock:
            self._spans.extend(added)
        return len(added)

    def snapshot(self):
        """A point-in-time copy sharing this trace's origin and span
        objects — the stitching endpoint folds remote fragments into the
        copy, so repeated stitches never duplicate spans in the stored
        trace."""
        clone = Trace(self.trace_id, parent=self.parent)
        clone.origin = self.origin
        clone.origin_epoch = self.origin_epoch
        with self._lock:
            clone._spans = list(self._spans)
            clone._seq = self._seq
        return clone

    def mark_process_truncated(self, process):
        """Flag every stitched span from ``process`` as truncated (the
        shard died before the full trace could be collected); the spans
        stay in the trace.  Returns the number flagged."""
        count = 0
        for span in self.spans():
            if span.process == process:
                span.attrs["truncated"] = True
                count += 1
        return count

    # -- reading ---------------------------------------------------------------

    def spans(self):
        with self._lock:
            return list(self._spans)

    def find(self, name):
        """All spans with the given name, in recording order."""
        return [span for span in self.spans() if span.name == name]

    def processes(self):
        """Sorted remote lane labels stitched into this trace."""
        return sorted({span.process for span in self.spans()
                       if span.process is not None})

    @property
    def duration(self):
        spans = self.spans()
        if not spans:
            return 0.0
        return max(span.end for span in spans) - min(span.start for span in spans)

    # -- export ----------------------------------------------------------------

    def to_dict(self):
        spans = sorted(self.spans(), key=lambda span: (span.start, span.end))
        payload = {
            "trace_id": self.trace_id,
            "origin_epoch": round(self.origin_epoch, 6),
            "duration_ms": round(self.duration * 1000.0, 3),
            "spans": [span.to_dict() for span in spans],
        }
        if self.parent is not None:
            payload["parent"] = self.parent
        return payload

    def _lanes(self, spans):
        """Deterministic process-lane assignment: local spans (coordinator
        or the single node) are pid 0, ``shard<k>`` is pid ``k+1``, and
        any other label gets the next free pid in sorted-label order."""
        lanes = {None: 0}
        others = []
        for label in sorted({span.process for span in spans
                             if span.process is not None}):
            match = _SHARD_LABEL.match(label)
            if match is not None:
                lanes[label] = int(match.group(1)) + 1
            else:
                others.append(label)
        next_pid = max(lanes.values()) + 1
        for label in others:
            lanes[label] = next_pid
            next_pid += 1
        return lanes

    def to_chrome(self):
        """Chrome ``trace_event`` complete events (microsecond units).

        One process lane per shard: pid 0 is the coordinator (or the only
        process of a single-node trace) and shard ``k`` renders as pid
        ``k+1``.  Raw ``threading.get_ident()`` values are huge and vary
        run to run; within each lane threads are remapped to small tids
        in sorted thread-name order, and ``process_name``/``thread_name``
        metadata events label every lane — two exports of the same
        workload produce identical lane numbering and diff cleanly.
        """
        spans = sorted(self.spans(), key=lambda span: (span.start, span.end))
        lanes = self._lanes(spans)
        distributed = len(lanes) > 1
        # tids: per lane, sorted by thread name (deterministic run to run).
        threads = {}
        for span in spans:
            pid = lanes[span.process]
            name = span.thread_name or "thread"
            threads.setdefault(pid, set()).add(name)
        tids = {
            pid: {name: index for index, name in enumerate(sorted(names))}
            for pid, names in threads.items()
        }
        events = []
        for label, pid in sorted(lanes.items(), key=lambda item: item[1]):
            if pid not in threads:
                continue  # a lane with no spans (local-only trace labels)
            if label is None:
                process_name = ("coordinator" if distributed
                                else "repro query %s" % self.trace_id)
            else:
                process_name = label
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            })
            for name, tid in sorted(tids[pid].items(), key=lambda item: item[1]):
                events.append({
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                })
        for span in spans:
            pid = lanes[span.process]
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 1),
                "dur": round(span.duration * 1e6, 1),
                "pid": pid,
                "tid": tids[pid][span.thread_name or "thread"],
                "cat": "query",
                "args": dict(span.attrs),
            })
        return events

    def __repr__(self):
        return "Trace(%s, %d spans)" % (self.trace_id, len(self.spans()))


def maybe_span(trace, name, **attrs):
    """``trace.span(...)`` when tracing is on, else a no-op context.

    Lets hot paths write ``with maybe_span(trace, "parse"):`` without
    branching on whether the caller attached a trace.
    """
    if trace is not None:
        return trace.span(name, **attrs)
    return _NULL_CONTEXT


class _NullContext(object):
    _payload = {}

    def __enter__(self):
        # A fresh dict per entry is avoided on purpose: callers only write
        # keys when a trace is attached (the yielded dict is discarded).
        return {}

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CONTEXT = _NullContext()
