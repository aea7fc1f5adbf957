"""The CasJobs-style batch lane: a second, slower queue beside the
interactive scheduler.

CasJobs' core observation ("Batch is back") is that a multi-tenant SQL
service needs **two lanes**: a fast interactive lane with tight timeouts,
and a batch lane where long-running queries queue FIFO, execute one at a
time, and land their results in the submitting user's personal scratch
space ("MyDB") instead of streaming them back.  This module is that second
lane for one platform/shard:

- :meth:`BatchLane.submit` admits a query, journals it durably
  (``batch_submit`` in the WAL via :class:`repro.core.batchlog.BatchJournal`)
  and returns a batch id immediately;
- clients poll :meth:`BatchLane.status` for queue **position** and an
  **ETA** extrapolated from recent batch runtimes;
- execution runs the query *without* the interactive statement timeout,
  then persists the rows as a ``mydb_<user>_<label>`` scratch dataset
  (``platform.save_result_table`` — itself WAL-logged, so the result
  survives a crash after completion);
- on construction the lane re-enqueues every journal entry that never
  reached a terminal state, which is how a worker restarted from
  snapshot+WAL picks up batches the crash interrupted.
"""

import threading
import time
from collections import deque

from repro.core import batchlog
from repro.core.sqlshare import _safe
from repro.errors import DatasetError
from repro.obs import events


def mydb_dataset_name(user, label):
    """The scratch-dataset name one batch lands in: stable per
    (user, label), so re-running a labelled batch overwrites it."""
    return "mydb_%s_%s" % (_safe(user).lower(), _safe(label).lower())


class BatchLane(object):
    """FIFO batch queue for one platform (one per shard)."""

    def __init__(self, platform, runtime=None, workers=1):
        self.platform = platform
        self.runtime = runtime
        #: 1 = one daemon batch worker (the CasJobs shape: batches are
        #: serialized per shard so they cannot starve the interactive
        #: pool).  0 = never spawn a thread; submissions either run inline
        #: (the synchronous test/server mode) or wait for :meth:`step`.
        self.workers = workers
        self._cond = threading.Condition()
        self._queue = deque()  # batch ids, FIFO
        self._running = None  # batch id currently executing, if any
        self._thread = None
        self._shutdown = False
        #: Recent batch execution times (seconds) feeding the ETA estimate.
        self._exec_times = deque(maxlen=32)
        metrics = platform.metrics
        self._submitted_total = metrics.counter(
            "repro_batch_submitted_total",
            "Batches admitted to the batch lane.")
        self._finished_total = metrics.counter(
            "repro_batch_finished_total",
            "Batches reaching a terminal state, labelled by outcome.")
        metrics.gauge_callback(
            "repro_batch_queue_depth",
            "Batches waiting in the batch lane (excluding the running one).",
            lambda: len(self._queue))
        # Resume: anything the journal admitted but never finished is work
        # a previous incarnation of this worker lost to a crash.
        resumed = [record["batch_id"]
                   for record in platform.batch_journal.pending()]
        self._queue.extend(resumed)
        if resumed:
            self._ensure_worker()

    # -- submission -----------------------------------------------------------

    def submit(self, user, sql, label=None, inline=None, timestamp=None):
        """Admit one batch; returns its status dict immediately.

        ``label`` names the scratch dataset (default: the batch id, so
        every unlabelled batch gets its own table).  ``inline=True`` runs
        the batch to completion in the calling thread — the default when
        the lane has no worker thread (``workers=0``), which is what the
        synchronous REST mode uses.
        """
        if inline is None:
            inline = self.workers <= 0
        if label is not None and not label.strip():
            raise DatasetError("batch label must be non-empty when given")
        with self.platform._state_lock:
            if self._shutdown:
                raise DatasetError("batch lane is shut down")
            moment = self.platform._now(timestamp)
            record = self.platform.batch_journal.submit(
                user, sql, None, timestamp=moment)
            # The id-derived default name needs the minted id; the record
            # is not yet published anywhere, so this fix-up cannot race.
            record["name"] = mydb_dataset_name(user, label or record["batch_id"])
            self.platform._durable(
                "batch_submit", user=user, sql=sql, name=record["name"],
                batch_id=record["batch_id"], timestamp=moment)
        self._submitted_total.inc()
        batch_id = record["batch_id"]
        events.emit("batch", user=user,
                    fingerprint=self.platform.db.prepare(sql).fingerprint,
                    batch_id=batch_id, state=batchlog.QUEUED,
                    result_dataset=record["name"])
        if inline:
            self._execute(batch_id)
        else:
            with self._cond:
                self._queue.append(batch_id)
                self._cond.notify()
            self._ensure_worker()
        return self.status(batch_id)

    # -- polling --------------------------------------------------------------

    def status(self, batch_id):
        """One batch's poll payload: state, queue position, ETA, result.

        Position counts batches ahead of this one (1 = next to run, the
        running batch included); ETA multiplies it by the rolling mean of
        recent batch runtimes.  Returns None for unknown ids.
        """
        record = self.platform.batch_journal.get(batch_id)
        if record is None:
            return None
        payload = {
            "batch_id": batch_id,
            "user": record["user"],
            "sql": record["sql"],
            "state": record["state"],
            "result_dataset": record["result_dataset"],
            "error": record["error"],
            "position": None,
            "eta_seconds": None,
        }
        if record["state"] not in batchlog.TERMINAL:
            with self._cond:
                running = self._running == batch_id
                try:
                    ahead = self._queue.index(batch_id)
                except ValueError:
                    ahead = None
                mean = (sum(self._exec_times) / len(self._exec_times)
                        if self._exec_times else None)
            if running:
                payload["state"] = "RUNNING"
                payload["position"] = 0
            elif ahead is not None:
                payload["position"] = ahead + 1
                if mean is not None:
                    payload["eta_seconds"] = round(mean * (ahead + 1), 6)
        return payload

    def stats(self):
        with self._cond:
            queued = len(self._queue)
            running = self._running
            mean = (sum(self._exec_times) / len(self._exec_times)
                    if self._exec_times else None)
        counts = {"SUCCEEDED": 0, "FAILED": 0, "QUEUED": 0}
        journal_state = self.platform.batch_journal.dump_state()
        for record in journal_state["entries"]:
            counts[record["state"]] = counts.get(record["state"], 0) + 1
        return {
            "queued": queued,
            "running": running,
            "finished": {state: count for state, count in counts.items()
                         if state in batchlog.TERMINAL},
            "total": len(self.platform.batch_journal),
            "mean_exec_seconds": None if mean is None else round(mean, 6),
            "workers": self.workers,
        }

    # -- execution ------------------------------------------------------------

    def step(self):
        """Run the next queued batch in the calling thread (the manual
        crank tests and the workerless mode use); returns its id or None."""
        with self._cond:
            if not self._queue or self._running is not None:
                return None
            batch_id = self._queue.popleft()
            self._running = batch_id
        try:
            self._execute(batch_id, claimed=True)
        finally:
            with self._cond:
                self._running = None
        return batch_id

    def _ensure_worker(self):
        if self.workers <= 0:
            return
        with self._cond:
            if self._shutdown or self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._worker_loop, name="batch-lane", daemon=True)
            self._thread.start()

    def _worker_loop(self):
        while True:
            with self._cond:
                while not self._queue:
                    if self._shutdown:
                        return
                    self._cond.wait(0.1)
                batch_id = self._queue.popleft()
                self._running = batch_id
            try:
                self._execute(batch_id, claimed=True)
            finally:
                with self._cond:
                    self._running = None

    def _execute(self, batch_id, claimed=False):
        """Run one batch to a terminal state (never raises).

        Deliberately bypasses the interactive statement timeout — the
        batch lane exists precisely for queries too slow for it.  The
        query-log record still flows through ``run_query`` with
        ``source="batch"`` so the workload analyses can separate lanes.
        """
        record = self.platform.batch_journal.get(batch_id)
        if record is None or record["state"] in batchlog.TERMINAL:
            return
        if not claimed:
            with self._cond:
                self._running = batch_id
        prepared = self.platform.db.prepare(record["sql"])
        fingerprint = prepared.fingerprint
        events.emit("batch", user=record["user"], fingerprint=fingerprint,
                    batch_id=batch_id, state="RUNNING")
        started = time.monotonic()
        try:
            result = self.platform.run_query(
                record["user"], record["sql"], source="batch",
                log_extra={"outcome": "SUCCEEDED"}, prepared=prepared)
            schema = self.platform.db.query_schema(record["sql"],
                                                   prepared=prepared)
            self.platform.save_result_table(
                record["user"], record["name"], schema, result.rows)
        except Exception as exc:
            with self.platform._state_lock:
                self.platform.batch_journal.finish(
                    batch_id, batchlog.FAILED, error=str(exc))
                self.platform._durable(
                    "batch_done", batch_id=batch_id, state=batchlog.FAILED,
                    error=str(exc), result_dataset=None)
            self._finished_total.labels(outcome=batchlog.FAILED).inc()
            events.emit("batch", user=record["user"], fingerprint=fingerprint,
                        batch_id=batch_id, state=batchlog.FAILED,
                        error=str(exc))
        else:
            with self.platform._state_lock:
                self.platform.batch_journal.finish(
                    batch_id, batchlog.SUCCEEDED,
                    result_dataset=record["name"])
                self.platform._durable(
                    "batch_done", batch_id=batch_id,
                    state=batchlog.SUCCEEDED, error=None,
                    result_dataset=record["name"])
            self._finished_total.labels(outcome=batchlog.SUCCEEDED).inc()
            events.emit("batch", user=record["user"], fingerprint=fingerprint,
                        batch_id=batch_id, state=batchlog.SUCCEEDED,
                        result_dataset=record["name"])
        finally:
            self._exec_times.append(time.monotonic() - started)
            if not claimed:
                with self._cond:
                    if self._running == batch_id:
                        self._running = None

    # -- shutdown -------------------------------------------------------------

    def shutdown(self):
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=1.0)
