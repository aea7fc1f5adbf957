"""The query-job state machine.

Every query submitted to the runtime becomes a :class:`QueryJob` moving
through::

    QUEUED --> RUNNING --> SUCCEEDED | FAILED | CANCELLED | TIMED_OUT
       \\---------------------------------> CANCELLED   (cancelled in queue)

Transitions are validated and terminal states are final; waiters blocked in
:meth:`QueryJob.wait` are released on any terminal transition.  The job also
carries the structured timing/outcome record the scheduler appends to the
platform's query log.
"""

import threading
import time

from repro.errors import ReproError
from repro.obs.tracing import Trace
from repro.runtime.cancellation import CancellationToken

QUEUED = "QUEUED"
RUNNING = "RUNNING"
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
TIMED_OUT = "TIMED_OUT"

TERMINAL_STATES = frozenset((SUCCEEDED, FAILED, CANCELLED, TIMED_OUT))

_ALLOWED = {
    QUEUED: frozenset((RUNNING, CANCELLED)),
    RUNNING: frozenset((SUCCEEDED, FAILED, CANCELLED, TIMED_OUT)),
    SUCCEEDED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
    TIMED_OUT: frozenset(),
}

#: Job state -> REST protocol status string (§3.3 polling vocabulary).
PROTOCOL_STATUS = {
    QUEUED: "pending",
    RUNNING: "running",
    SUCCEEDED: "complete",
    FAILED: "error",
    CANCELLED: "cancelled",
    TIMED_OUT: "timeout",
}


class InvalidTransition(ReproError):
    """A job was asked to make a state transition the machine forbids."""


class QueryJob(object):
    """One query's lifecycle through the scheduler."""

    def __init__(self, job_id, user, sql, source="rest", timeout=None,
                 profile=False, tracing=True, cross_shard=False,
                 trace_context=None, prepared=None):
        self.job_id = job_id
        self.user = user
        self.sql = sql
        #: The statement's :class:`repro.engine.prepared.PreparedStatement`
        #: — parsed once at submission and read by every later stage.  The
        #: AST is released on the terminal transition: a job retained for
        #: polling keeps the facts (fingerprint, key), never the tree.
        self.prepared = prepared
        self.source = source
        #: Statement timeout in seconds (None = scheduler default).
        self.timeout = timeout
        self.token = CancellationToken()
        self.state = QUEUED
        #: Static-analysis findings attached at submission (list of dicts).
        self.diagnostics = []
        #: QueryResult on success; error string otherwise.
        self.result = None
        self.error = None
        #: Taxonomy class of the failure (repro.errors.ERROR_CLASSES).
        self.error_class = None
        self.cache_hit = False
        #: When True, execution wraps every operator for per-operator
        #: actuals; the ExecutionProfile lands in :attr:`profile_data`.
        self.profile = profile
        self.profile_data = None
        #: True when the cluster routed this query through the
        #: fetch-and-local-join fallback (it touched remote-shard data).
        self.cross_shard = cross_shard
        #: Lifecycle trace (None when the runtime disables tracing or a
        #: propagated context asked not to sample this request).  With a
        #: remote context the trace takes the *cluster-wide* trace id and
        #: remembers the parent span, so this job's spans stitch into the
        #: coordinator's trace as children of the submitting hop.
        if tracing and (trace_context is None or trace_context.sampled):
            self.trace = Trace(
                trace_context.trace_id if trace_context is not None
                else job_id,
                parent=(trace_context.parent
                        if trace_context is not None else None))
        else:
            self.trace = None
        #: Durations (queue/exec) are monotonic-clock deltas, immune to
        #: wall-clock adjustment; only log records carry epoch timestamps.
        self.submitted_at = time.monotonic()
        self.started_at = None
        self.finished_at = None
        self._cond = threading.Condition()

    # -- state machine --------------------------------------------------------

    def transition(self, new_state, error=None, before_notify=None):
        """Move to ``new_state`` (validated); wakes any waiters on terminal.

        ``before_notify`` (called with the job, inside the state lock, after
        the terminal fields are set but before waiters wake) lets the
        scheduler publish side effects — the query-log outcome record —
        that must be visible to anyone returning from :meth:`wait`.

        Returns the job for chaining.  Raises :class:`InvalidTransition` on
        a forbidden move (e.g. resurrecting a terminal job).
        """
        with self._cond:
            if new_state not in _ALLOWED[self.state]:
                raise InvalidTransition(
                    "job %s: cannot move %s -> %s"
                    % (self.job_id, self.state, new_state)
                )
            self.state = new_state
            now = time.monotonic()
            if new_state == RUNNING:
                self.started_at = now
                if self.trace is not None:
                    self.trace.add_span("queued", self.submitted_at, now)
            elif new_state in TERMINAL_STATES:
                self.finished_at = now
                if self.started_at is None:
                    # Cancelled straight out of the queue.
                    self.started_at = now
                    if self.trace is not None:
                        self.trace.add_span("queued", self.submitted_at, now,
                                            state=new_state)
                elif self.trace is not None:
                    self.trace.add_span("run", self.started_at, now,
                                        state=new_state)
            if error is not None:
                self.error = error
            if new_state in TERMINAL_STATES:
                if self.prepared is not None:
                    self.prepared.release_ast()
                if before_notify is not None:
                    before_notify(self)
                self._cond.notify_all()
        return self

    @property
    def done(self):
        return self.state in TERMINAL_STATES

    def wait(self, timeout=None):
        """Block until the job reaches a terminal state; returns it."""
        with self._cond:
            if self.state not in TERMINAL_STATES:
                self._cond.wait(timeout)
            return self.state

    # -- timing ---------------------------------------------------------------

    @property
    def queue_seconds(self):
        if self.started_at is None:
            return time.monotonic() - self.submitted_at
        return self.started_at - self.submitted_at

    @property
    def exec_seconds(self):
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return end - self.started_at

    # -- presentation ---------------------------------------------------------

    @property
    def protocol_status(self):
        return PROTOCOL_STATUS[self.state]

    def timing_record(self):
        """The structured outcome/timing fields logged with this job."""
        record = {
            "outcome": self.state,
            "queue_seconds": round(self.queue_seconds, 6),
            "exec_seconds": round(self.exec_seconds, 6),
            "cache_hit": self.cache_hit,
        }
        if self.cross_shard:
            record["cross_shard"] = True
        if self.error_class is not None:
            record["error_class"] = self.error_class
        return record

    def to_dict(self):
        payload = {
            "id": self.job_id,
            "status": self.protocol_status,
            "state": self.state,
            "queue_seconds": round(self.queue_seconds, 6),
            "exec_seconds": round(self.exec_seconds, 6),
            "cache_hit": self.cache_hit,
            "diagnostics": self.diagnostics,
            "profiled": self.profile,
        }
        if self.cross_shard:
            payload["cross_shard"] = True
        if self.trace is not None:
            payload["trace_id"] = self.trace.trace_id
        if self.result is not None:
            payload["row_count"] = len(self.result.rows)
        if self.error is not None:
            payload["error"] = self.error
        if self.error_class is not None:
            payload["error_class"] = self.error_class
        return payload

    def __repr__(self):
        return "QueryJob(%s, %r, %s)" % (self.job_id, self.user, self.state)
