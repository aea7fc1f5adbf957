"""The query runtime service: worker pool, admission control, fairness.

This is the layer the paper's deployed system delegated to its job queue
(§3.3: submit returns an identifier immediately; clients poll) and that
CasJobs/workload-management systems show a multi-tenant SQL service needs:

- a **bounded worker pool** (no more thread-per-query);
- **per-user admission control**: at most ``per_user_queue_depth`` queued
  jobs per user, at most ``per_user_max_concurrent`` running;
- **fair round-robin dispatch** across users, so one user's burst cannot
  starve everyone else's interactive queries;
- a configurable **statement timeout** enforced through the cooperative
  :class:`~repro.runtime.cancellation.CancellationToken` the engine polls
  mid-scan, so TIMED_OUT/CANCELLED jobs actually release their worker;
- the **versioned result cache** shared with the platform, so repeated
  queries are served without execution (and never stale — see cache.py).
"""

import itertools
import threading
import time
from collections import OrderedDict, deque

from repro.errors import AdmissionError, QueryCancelled, QueryTimeout, classify_error
from repro.obs import events
from repro.obs.metrics import buckets_up_to
from repro.obs.monitor import ContinuousMonitor
from repro.obs.querystore import QueryStore
from repro.runtime import job as jobmod
from repro.runtime.cache import ResultCache
from repro.runtime.job import QueryJob


#: Terminal jobs kept for status polling before being forgotten.
COMPLETED_JOBS_RETAINED = 10000


class RuntimeConfig(object):
    """Tunables for one :class:`QueryRuntime` instance."""

    def __init__(self, max_workers=4, per_user_max_concurrent=2,
                 per_user_queue_depth=16, statement_timeout=30.0,
                 cache_enabled=True, tracing_enabled=True,
                 monitor_enabled=False, monitor_interval=5.0,
                 adaptive_enabled=True):
        #: Worker threads.  0 means no threads are ever spawned: submissions
        #: run inline in the caller (the tests' synchronous mode) or wait in
        #: the queue for explicit :meth:`QueryRuntime.step` calls.
        self.max_workers = max_workers
        self.per_user_max_concurrent = per_user_max_concurrent
        self.per_user_queue_depth = per_user_queue_depth
        #: Seconds before a running statement times out (0/None disables).
        #: The latency histograms' buckets reach up to it, so a query cut
        #: off by the timeout lands in a real bucket rather than +Inf.
        self.statement_timeout = statement_timeout
        self.cache_enabled = cache_enabled
        #: Record per-job lifecycle spans (queued / run / engine phases).
        self.tracing_enabled = tracing_enabled
        #: Run the continuous monitor (metrics sampler + alert rules).
        #: Off by default for library use; ``repro serve`` turns it on.
        self.monitor_enabled = monitor_enabled
        self.monitor_interval = monitor_interval
        #: Close the observation -> planning loop (repro.adaptive): harvest
        #: observed cardinalities from profiled runs, schedule probes when
        #: the root q-error exceeds the bound or the Query Store issues a
        #: regression verdict, and re-plan with feedback.  Off for replay
        #: experiments that must show the *uncorrected* behavior (e.g.
        #: analysis/regressions.py plants a regression on purpose).
        self.adaptive_enabled = adaptive_enabled

    def to_dict(self):
        return dict(self.__dict__)


class QueryRuntime(object):
    """Owns the lifecycle of every query executed against a platform."""

    def __init__(self, platform, config=None):
        self.platform = platform
        self.config = config or RuntimeConfig()
        if self.config.cache_enabled:
            # Share one cache with the platform so the web-UI path
            # (platform.run_query) and the scheduler path hit the same
            # entries and the platform's mutators can invalidate eagerly.
            if getattr(platform, "result_cache", None) is None:
                platform.result_cache = ResultCache()
            self.cache = platform.result_cache
        else:
            self.cache = None
        self._jobs = OrderedDict()  # job_id -> QueryJob (bounded retention)
        self._ids = itertools.count(1)
        self._queues = {}  # user -> deque of QUEUED jobs
        self._rr = deque()  # round-robin rotation of users with queued jobs
        self._queued = {}  # user -> queued count
        self._running = {}  # user -> running count
        self._finished = {}  # terminal state -> count
        self._cond = threading.Condition()
        self._workers = []
        self._shutdown = False
        # -- observability wiring.  The registry lives on the platform so
        # the engine's phase histograms and run_query's failure taxonomy
        # share it.  Histograms registered from here on get buckets up to
        # the statement timeout (DEFAULT_BUCKETS when there is none).
        self.metrics = platform.metrics
        self.metrics.default_buckets = buckets_up_to(
            self.config.statement_timeout or 0.0)
        self._install_instruments()
        # -- continuous monitoring.  The Query Store lives on the platform
        # (like the result cache) so checkpoints can persist it and a
        # successor runtime inherits the accumulated baselines; the monitor
        # (sampler + alerts) belongs to this runtime and follows its
        # lifecycle.
        self.query_store = getattr(platform, "query_store", None)
        if self.query_store is None:
            self.query_store = platform.query_store = QueryStore()
        # -- adaptive optimization (repro.adaptive).  The feedback store
        # lives on the platform (like the Query Store) so checkpoints can
        # persist it and a successor runtime inherits what was learned; it
        # is also attached to the engine as the duck-typed ``db.feedback``
        # hook the planner consults.  The controller belongs to this
        # runtime — it needs this runtime's cache and counters.
        if self.config.adaptive_enabled:
            from repro.adaptive import AdaptiveController, CardinalityFeedbackStore

            feedback = getattr(platform, "feedback_store", None)
            if feedback is None:
                feedback = CardinalityFeedbackStore()
                platform.feedback_store = feedback
            platform.db.feedback = feedback
            self.feedback_store = feedback
            self.adaptive = AdaptiveController(
                feedback, cache=self.cache, query_store=self.query_store,
                metrics=self.metrics)
        else:
            self.feedback_store = None
            self.adaptive = None
            platform.db.feedback = None
        if self.config.monitor_enabled:
            self.monitor = ContinuousMonitor(
                self.metrics, interval=self.config.monitor_interval)
            if self.config.max_workers > 0:
                self.monitor.start()
        else:
            self.monitor = None
        # -- the batch lane (CasJobs-style second queue).  Constructed last
        # so it can resume journalled-but-unfinished batches from a
        # recovered platform through the fully wired runtime.
        from repro.runtime.batch import BatchLane

        self.batch = BatchLane(
            platform, runtime=self,
            workers=1 if self.config.max_workers > 0 else 0)

    def _install_instruments(self):
        """Register the scheduler's named instruments.

        Counters/histograms are get-or-create (shared with a previous
        runtime on the same platform); callback-backed instruments read
        live state at scrape time and are re-pointed at this runtime.
        """
        metrics = self.metrics
        self._jobs_submitted = metrics.counter(
            "repro_scheduler_jobs_submitted_total",
            "Queries admitted to the runtime (queued or inline).")
        self._admission_rejections = metrics.counter(
            "repro_scheduler_admission_rejections_total",
            "Submissions refused by per-user admission control.")
        self._jobs_finished = metrics.counter(
            "repro_scheduler_jobs_finished_total",
            "Jobs reaching a terminal state, labelled by outcome.")
        self._worker_busy = metrics.counter(
            "repro_scheduler_worker_busy_seconds_total",
            "Total seconds workers spent executing jobs.")
        self._queue_hist = metrics.histogram(
            "repro_scheduler_queue_seconds",
            "Time from submission to dispatch.")
        self._exec_hist = metrics.histogram(
            "repro_scheduler_exec_seconds",
            "Time from dispatch to terminal state.")
        # Registering the plan verifier's counter up front (get-or-create
        # shares it with the engine's increments) puts it in every registry
        # snapshot at 0, so the monitor's sampler has the series from the
        # first tick instead of from the first violation.
        metrics.counter(
            "check_plan_violations_total",
            "Plans rejected or flagged by the static plan verifier.")
        metrics.gauge_callback(
            "repro_scheduler_queue_depth",
            "Jobs currently waiting in per-user queues.",
            lambda: sum(self._queued.values()))
        metrics.gauge_callback(
            "repro_scheduler_running",
            "Jobs currently executing on workers.",
            lambda: sum(self._running.values()))
        metrics.gauge_callback(
            "repro_scheduler_workers",
            "Worker threads started.",
            lambda: len(self._workers))
        metrics.gauge_callback(
            "repro_scheduler_worker_utilization",
            "Fraction of the worker pool currently busy.",
            lambda: (sum(self._running.values())
                     / float(max(len(self._workers), 1))))
        if self.cache is not None:
            stats = self.cache.stats
            metrics.counter_callback(
                "repro_cache_hits_total",
                "Result-cache probes served without execution.",
                lambda: stats.hits)
            metrics.counter_callback(
                "repro_cache_misses_total",
                "Result-cache probes that fell through to execution.",
                lambda: stats.misses)
            # hits + misses as one series, so the hit-rate alert rule can be
            # a single division over family sums.
            metrics.counter_callback(
                "repro_cache_probes_total",
                "Result-cache probes (hits + misses).",
                lambda: stats.hits + stats.misses)
            metrics.counter_callback(
                "repro_cache_stale_evictions_total",
                "Entries evicted at probe time on version-vector mismatch.",
                lambda: stats.stale_evictions)
            metrics.counter_callback(
                "repro_cache_invalidations_total",
                "Entries dropped eagerly by catalog mutations.",
                lambda: stats.invalidations)
            metrics.counter_callback(
                "repro_cache_stores_total",
                "Results admitted into the cache after execution.",
                lambda: stats.stores)
            metrics.gauge_callback(
                "repro_cache_entries",
                "Live entries in the result cache.",
                lambda: len(self.cache))

    # -- submission -----------------------------------------------------------

    def submit(self, user, sql, source="rest", timeout=None, inline=None,
               profile=False, cross_shard=False, trace_context=None):
        """Admit a query; returns its :class:`QueryJob` immediately.

        ``inline=True`` executes synchronously in the caller's thread
        (bypassing the queue but not the timeout/cache machinery); the
        default is inline when the pool has no workers.  ``profile=True``
        records per-operator actuals into ``job.profile_data`` (the
        execution bypasses the result cache so actuals are real).
        ``cross_shard=True`` marks the job as having been routed through
        the cluster's fetch-and-local-join fallback; the marker lands in
        the job payload and its query-log outcome record.
        ``trace_context`` is a propagated
        :class:`~repro.obs.tracing.TraceContext`: the job's trace adopts
        the cluster-wide trace id (and remote parent span), so its spans
        stitch into the coordinator's distributed trace.  Raises
        :class:`AdmissionError` when the user's queue is full.
        """
        if inline is None:
            inline = self.config.max_workers <= 0
        # Prepare and lint BEFORE taking the scheduler lock: first sight of
        # a text runs a full parse + semantic pass, and holding _cond
        # across it would stall every worker wake-up and dispatch for the
        # duration (selfcheck SELFCHECK003 found exactly that).
        # Diagnostics are advisory, so computing them pre-admission is
        # harmless even if the submission is then refused.  This is the
        # statement's only parse: the job carries ``prepared`` to the
        # permission check, the engine, the Query Store, the adaptive
        # controller and the event log.
        db = self.platform.db
        prepare_started = time.monotonic()
        prepared = db.prepare(sql)
        lint_started = time.monotonic()
        diagnostics = db.diagnostics(prepared)
        lint_ended = time.monotonic()
        # Adaptive probe upgrade: when the controller wants fresh actuals
        # for this fingerprint, run this submission profiled (profiled runs
        # bypass the result cache, so harvested cardinalities are real).
        if (not profile and self.adaptive is not None
                and self.adaptive.wants_probe(prepared.fingerprint)):
            profile = True
        with self._cond:
            if self._shutdown:
                raise AdmissionError("runtime is shut down")
            if not inline and self._queued.get(user, 0) >= self.config.per_user_queue_depth:
                self._admission_rejections.inc()
                raise AdmissionError(
                    "user %r already has %d queries queued (limit %d)"
                    % (user, self._queued[user], self.config.per_user_queue_depth)
                )
            job = QueryJob("q%06d" % next(self._ids), user, sql,
                           source=source, timeout=timeout, profile=profile,
                           tracing=self.config.tracing_enabled,
                           cross_shard=cross_shard,
                           trace_context=trace_context, prepared=prepared)
            self._jobs_submitted.inc()
            job.diagnostics = diagnostics
            if job.trace is not None:
                if prepared.parsed_now:
                    job.trace.add_span("parse", prepare_started, lint_started)
                job.trace.add_span("lint", lint_started, lint_ended,
                                   findings=len(diagnostics))
            self._jobs[job.job_id] = job
            self._prune_terminal_locked()
            if inline:
                self._start_locked(job)
            else:
                queue = self._queues.get(user)
                if queue is None:
                    queue = self._queues[user] = deque()
                    self._rr.append(user)
                queue.append(job)
                self._queued[user] = self._queued.get(user, 0) + 1
                self._cond.notify()
        # Outside the scheduler lock: the event write may touch a file.
        events.emit(
            "submit",
            trace_id=job.trace.trace_id if job.trace is not None else None,
            user=user, fingerprint=prepared.fingerprint,
            job_id=job.job_id, source=source,
            cross_shard=cross_shard or None)
        if inline:
            self._run_job(job)
        else:
            self._ensure_workers()
        return job

    # -- lookup / cancellation ------------------------------------------------

    def get(self, job_id):
        with self._cond:
            return self._jobs.get(job_id)

    def cancel(self, job_id, reason="cancelled by client"):
        """Cancel a job: dequeue it if still QUEUED, or flag its token so
        the executing worker stops at the next cooperative check.  Returns
        the job (None if unknown); terminal jobs are left untouched.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.done:
                return job
            job.token.cancel(reason)
            queue = self._queues.get(job.user)
            dequeued = queue is not None and job in queue
            if dequeued:
                queue.remove(job)
                self._queued[job.user] -= 1
                if not queue:
                    del self._queues[job.user]
                    self._rr.remove(job.user)
        # Out of its queue the job is unreachable by any worker, so this
        # thread alone ends it.
        if dequeued:
            self._finish(job, jobmod.CANCELLED, QueryCancelled(reason))
        return job

    # -- execution ------------------------------------------------------------

    def _ensure_workers(self):
        with self._cond:
            if self._shutdown:
                return
            while len(self._workers) < self.config.max_workers:
                worker = threading.Thread(
                    target=self._worker_loop,
                    name="query-runtime-%d" % len(self._workers),
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()

    def _worker_loop(self):
        while True:
            with self._cond:
                job = self._next_job_locked()
                while job is None:
                    if self._shutdown:
                        return
                    self._cond.wait(0.1)
                    job = self._next_job_locked()
                self._start_locked(job)
            self._run_job(job)

    def step(self):
        """Dispatch and run one queued job in the calling thread.

        Returns the job, or None when nothing is dispatchable.  This is the
        scheduler's manual crank: tests use it to observe dispatch order
        deterministically and the serial replay mode drains through it.
        """
        with self._cond:
            job = self._next_job_locked()
            if job is None:
                return None
            self._start_locked(job)
        self._run_job(job)
        return job

    def _start_locked(self, job):
        """QUEUED -> RUNNING, counted against the user's concurrency limit
        in the same critical section that chose the job."""
        job.transition(jobmod.RUNNING)
        self._running[job.user] = self._running.get(job.user, 0) + 1

    def _next_job_locked(self):
        """Fair dispatch: rotate through users, skipping any at their
        concurrency limit; within a user, FIFO."""
        for _ in range(len(self._rr)):
            user = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(user)
            if not queue:
                self._rr.remove(user)
                self._queues.pop(user, None)
                continue
            if self._running.get(user, 0) >= self.config.per_user_max_concurrent:
                continue
            job = queue.popleft()
            self._queued[user] -= 1
            if not queue:
                del self._queues[user]
                self._rr.remove(user)
            return job
        return None

    def _run_job(self, job):
        timeout = job.timeout if job.timeout is not None else self.config.statement_timeout
        if timeout:
            job.token.set_deadline(timeout)
        log_extra = {
            "outcome": jobmod.SUCCEEDED,
            "queue_seconds": round(job.queue_seconds, 6),
        }
        if job.cross_shard:
            log_extra["cross_shard"] = True
        try:
            result = self.platform.run_query(
                job.user, job.sql, source=job.source,
                cancellation=job.token,
                log_extra=log_extra,
                trace=job.trace, profile=job.profile,
                prepared=job.prepared,
            )
        except QueryTimeout as exc:
            self._finish(job, jobmod.TIMED_OUT, exc)
        except QueryCancelled as exc:
            self._finish(job, jobmod.CANCELLED, exc)
        except Exception as exc:
            self._finish(job, jobmod.FAILED, exc)
        else:
            self._finish(job, jobmod.SUCCEEDED, result=result)

    def _finish(self, job, state, exc=None, result=None):
        """The one place a job ends: move it to the terminal ``state``
        (``exc`` on failure, ``result`` on success) and write each
        per-query record exactly once.

        A non-success is appended to the query log inside the transition,
        so waiters released by ``job.wait()`` always see it (``run_query``
        logs successes itself).  Queue wait is observed for every job;
        execution time and worker busy time only for a job that was
        dispatched.  A job that never reached ``run_query`` (cancelled in
        the queue) has its failure class counted here, because
        ``run_query`` counts every failure it sees.
        """
        dispatched = job.state == jobmod.RUNNING
        if result is None:
            job.error_class = classify_error(exc)
            job.transition(state, error=str(exc),
                           before_notify=self._log_outcome)
        else:
            job.result = result
            job.cache_hit = result.cache_hit
            job.profile_data = result.profile
            job.transition(state)
        self._queue_hist.observe(job.queue_seconds)
        if dispatched:
            self._exec_hist.observe(job.exec_seconds)
            self._worker_busy.inc(job.exec_seconds)
        else:
            self.metrics.counter(
                "repro_queries_failed_total",
                "Failed queries by error taxonomy class.",
            ).labels(error_class=job.error_class).inc()
        self._jobs_finished.labels(outcome=state).inc()
        self._record_querystore(job)
        if self.adaptive is not None:
            self.adaptive.after_job(job)
        trace_id = job.trace.trace_id if job.trace is not None else None
        if result is not None:
            # The completion path above was the plan's last reader; a job
            # retained for polling serves rows, not operator trees.
            result.plan = result.info = None
            if self.cache is not None:
                events.emit(
                    "cache_hit" if job.cache_hit else "cache_miss",
                    trace_id=trace_id, user=job.user,
                    fingerprint=job.prepared.fingerprint,
                    job_id=job.job_id)
        events.emit(
            "finish", trace_id=trace_id, user=job.user,
            fingerprint=job.prepared.fingerprint,
            job_id=job.job_id, outcome=state,
            exec_ms=round(job.exec_seconds * 1000.0, 3),
            cross_shard=job.cross_shard or None)
        with self._cond:
            if dispatched:
                self._running[job.user] -= 1
            self._finished[state] = self._finished.get(state, 0) + 1
            self._cond.notify_all()

    def _record_querystore(self, job):
        """Fold one terminal job into the per-fingerprint Query Store."""
        try:
            result = job.result
            self.query_store.record(
                job.sql,
                plan=result.plan if result is not None else None,
                seconds=job.exec_seconds,
                rows=len(result.rows) if result is not None else 0,
                error=job.state != jobmod.SUCCEEDED,
                cache_hit=bool(job.cache_hit),
                prepared=job.prepared,
            )
        except Exception:
            pass  # history is advisory; never take the scheduler down

    def _log_outcome(self, job):
        """Append the structured failure/cancel record to the query log
        (successes are recorded by ``run_query`` itself)."""
        try:
            self.platform.log.record(
                job.user, job.sql, error=job.error or job.state,
                source=job.source, **job.timing_record()
            )
        except Exception:
            pass  # the log must never take the scheduler down

    # -- waiting / shutdown ---------------------------------------------------

    def shutdown(self):
        if self.monitor is not None:
            self.monitor.stop()
        self.batch.shutdown()
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=1.0)

    def _prune_terminal_locked(self):
        excess = len(self._jobs) - COMPLETED_JOBS_RETAINED
        if excess <= 0:
            return
        # Drop the oldest terminal jobs.  Only the front of the (insertion-
        # ordered) dict is examined — a bounded window, so each submission
        # pays O(1) amortized rather than rescanning all retained jobs.
        for job_id in list(itertools.islice(self._jobs, 2 * excess)):
            if excess <= 0:
                break
            if self._jobs[job_id].done:
                del self._jobs[job_id]
                excess -= 1

    # -- introspection --------------------------------------------------------

    def stats(self):
        # One consistent snapshot: queue/running/finished counts and the
        # cache's counters are all read under the scheduler lock, so a
        # concurrent job finishing cannot skew e.g. "running" against
        # "finished" within a single payload.
        with self._cond:
            per_user = {}
            for user, count in self._queued.items():
                if count:
                    per_user.setdefault(user, {})["queued"] = count
            for user, count in self._running.items():
                if count:
                    per_user.setdefault(user, {})["running"] = count
            payload = {
                "workers": len(self._workers),
                "queued": sum(self._queued.values()),
                "running": sum(self._running.values()),
                "finished": dict(self._finished),
                "per_user": per_user,
                "config": self.config.to_dict(),
            }
            if self.cache is not None:
                cache_stats = self.cache.stats.to_dict()
                cache_stats["entries"] = len(self.cache)
                payload["cache"] = cache_stats
            else:
                payload["cache"] = None
        latency = {}
        for key, hist in (("queue_seconds", self._queue_hist),
                          ("exec_seconds", self._exec_hist)):
            summary = hist.to_dict()
            latency[key] = {
                "count": summary["count"],
                "p50": summary["p50"],
                "p90": summary["p90"],
                "p99": summary["p99"],
            }
        payload["latency"] = latency
        storage = getattr(self.platform, "storage", None)
        payload["storage"] = storage.stats() if storage is not None else None
        payload["querystore"] = self.query_store.summary()
        if self.adaptive is not None:
            adaptive = self.adaptive.summary()
            adaptive["feedback"] = self.feedback_store.summary()
            payload["adaptive"] = adaptive
        else:
            payload["adaptive"] = None
        payload["monitor"] = (self.monitor.stats()
                              if self.monitor is not None else None)
        payload["batch"] = self.batch.stats()
        return payload
