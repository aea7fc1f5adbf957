"""Adaptive re-planning: notice bad plans, probe, and re-plan.

The control loop closes in three bounded steps, all riding the scheduler's
job-completion path (:meth:`AdaptiveController.after_job`):

1. **Detect.**  Every successful uncached completion gets a free root
   q-error check: the plan's estimated output rows against the rows the
   query actually returned.  When the error exceeds
   ``DEFAULT_Q_ERROR_BOUND`` (or the Query Store issues a regression
   verdict for the fingerprint), the controller requests a *probe* and
   drops the fingerprint's cached result+plan entry so nothing stale can
   be served meanwhile.
2. **Probe.**  The next submission of the same fingerprint is upgraded to
   ``profile=True`` by the scheduler (profiled runs bypass the result
   cache, so actuals are real).  Its per-operator actual cardinalities are
   harvested into the :class:`~repro.adaptive.feedback.CardinalityFeedbackStore`.
3. **Re-plan.**  The cache entry is forgotten again, so the execution
   after the probe plans from scratch — now with observed cardinalities
   overriding the synthetic selectivity guesses — and the corrected plan
   is what gets cached and recorded going forward.

Each fingerprint is limited to ``MAX_REPLANS`` probe cycles, so an
inherently volatile query cannot ping-pong forever: the loop converges in
at most ``2 * MAX_REPLANS + 1`` executions, well under the experiment's
bound (see ``repro.analysis.adaptive_flip``).

The controller also owns the **regression first-fire** signal: the first
time the Query Store's verdict appears for a (fingerprint, regressed
plan) pair it increments ``repro_plan_regressions_total`` and emits a
structured ``regression`` event, which the default alert rule set and
``repro logs --event regression`` pick up.
"""

import threading

from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import q_error

#: Root q-error above which a fingerprint is scheduled for a probe.
DEFAULT_Q_ERROR_BOUND = 4.0
#: Probe/re-plan cycles allowed per fingerprint.
MAX_REPLANS = 3
#: Size past which a per-fingerprint set is cleared: one-off traffic must
#: not grow the controller's state without limit.
TRACKED_LIMIT = 4096


class AdaptiveController(object):
    """Watches job completions; schedules probes and plan invalidations.

    Duck-typed against the runtime: ``cache`` needs ``forget(key)``,
    ``query_store`` needs ``get``/``min_executions``/``regression_factor``,
    ``job`` needs ``prepared`` (``fingerprint`` + ``key``)/``result``/
    ``cache_hit``/``profile``/``profile_data``.  One fingerprint — the
    prepared statement's — keys the feedback store, the Query Store and
    every event.  Everything here is advisory — any internal error is
    swallowed rather than surfaced on the scheduler's completion path.
    """

    def __init__(self, feedback, cache=None, query_store=None, metrics=None):
        self.feedback = feedback
        self.cache = cache
        self.query_store = query_store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._pending = set()  # fingerprints awaiting a probe
        self._replans = {}  # fingerprint -> completed probe cycles
        self._regression_seen = set()  # (fingerprint, regressed plan)
        # Registered up front (get-or-create) so the series exist at 0 in
        # every snapshot — the PlanRegression alert rule needs data from
        # the first sampler tick, not from the first verdict.
        self._probes_total = self.metrics.counter(
            "repro_adaptive_probes_total",
            "Profiled probe executions requested by the adaptive controller.")
        self._replans_total = self.metrics.counter(
            "repro_adaptive_replans_total",
            "Harvests that invalidated a plan to force re-planning with feedback.")
        self._regressions_total = self.metrics.counter(
            "repro_plan_regressions_total",
            "Query Store regression verdicts (first fire per regressed plan).")

    # -- the scheduler-facing surface -----------------------------------------

    def wants_probe(self, fingerprint):
        """True when this fingerprint's next run should be profiled."""
        if not self._pending:
            return False
        with self._lock:
            return fingerprint in self._pending

    def after_job(self, job):
        """Fold one terminal job into the control loop."""
        try:
            self._after_job(job)
        except Exception:
            pass  # advisory; never take the scheduler down

    # -- internals -------------------------------------------------------------

    def _after_job(self, job):
        result = getattr(job, "result", None)
        if result is None or getattr(job, "cache_hit", False):
            return
        prepared = job.prepared
        fingerprint = prepared.fingerprint
        profile = getattr(job, "profile_data", None)
        if getattr(job, "profile", False) and profile is not None:
            self._absorb_probe(prepared, result, profile)
            return
        plan = getattr(result, "plan", None)
        if plan is not None and self._may_replan(fingerprint):
            error = q_error(plan.est_rows, float(len(result.rows)))
            if error > DEFAULT_Q_ERROR_BOUND:
                if self.request_probe(fingerprint, prepared.key):
                    events.emit("probe", fingerprint=fingerprint,
                                trigger="q_error", q_error=round(error, 2))
        self._check_regression(prepared)

    def _absorb_probe(self, prepared, result, profile):
        """Harvest a profiled run, then invalidate so the next run re-plans."""
        fingerprint = prepared.fingerprint
        sites = self.feedback.harvest(fingerprint, result.plan, profile)
        with self._lock:
            self._pending.discard(fingerprint)
            if sites:
                self._replans[fingerprint] = (
                    self._replans.get(fingerprint, 0) + 1)
                if len(self._replans) > TRACKED_LIMIT:
                    self._replans.clear()
        if not sites:
            return
        self._replans_total.inc()
        if self.cache is not None:
            self.cache.forget(prepared.key)
        events.emit("replan", fingerprint=fingerprint, sites=sites)

    def request_probe(self, fingerprint, key):
        """Schedule a profiled probe for a fingerprint.

        Also forgets the cached result+plan entry under ``key`` (the
        statement's normalized text), so a cache hit cannot outlive the
        evidence that its plan is bad.  Returns False when a probe is
        already pending.
        """
        with self._lock:
            if fingerprint in self._pending:
                return False
            if len(self._pending) >= TRACKED_LIMIT:
                self._pending.clear()
            self._pending.add(fingerprint)
        self._probes_total.inc()
        if self.cache is not None:
            self.cache.forget(key)
        return True

    def _may_replan(self, fingerprint):
        with self._lock:
            return self._replans.get(fingerprint, 0) < MAX_REPLANS

    def _check_regression(self, prepared):
        """First-fire detection for Query Store regression verdicts."""
        store = self.query_store
        if store is None:
            return
        fingerprint = prepared.fingerprint
        entry = store.get(fingerprint)
        # A verdict needs an established plan change, so the (cheap)
        # plan_changes gate keeps never-changed fingerprints off the
        # verdict computation entirely.
        if entry is None or not entry.plan_changes:
            return
        verdict = entry.regression(store.min_executions,
                                   store.regression_factor)
        if verdict is None:
            return
        key = (fingerprint, verdict["regressed_plan"])
        with self._lock:
            if key in self._regression_seen:
                return
            self._regression_seen.add(key)
            if len(self._regression_seen) > TRACKED_LIMIT:
                self._regression_seen.clear()
        self._regressions_total.inc()
        events.emit("regression", fingerprint=fingerprint,
                    slowdown=verdict["slowdown"],
                    regressed_plan=verdict["regressed_plan"],
                    baseline_plan=verdict["baseline_plan"],
                    regressed_mean_seconds=verdict["regressed_mean_seconds"],
                    baseline_mean_seconds=verdict["baseline_mean_seconds"])
        if self._may_replan(fingerprint):
            self.request_probe(fingerprint, prepared.key)

    # -- introspection ---------------------------------------------------------

    def summary(self):
        with self._lock:
            return {
                "pending_probes": len(self._pending),
                "fingerprints_replanned": len(self._replans),
                "replans": sum(self._replans.values()),
                "regressions_seen": len(self._regression_seen),
                "q_error_bound": DEFAULT_Q_ERROR_BOUND,
                "max_replans": MAX_REPLANS,
            }
