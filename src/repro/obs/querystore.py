"""A SQL-Server-Query-Store-style per-fingerprint runtime history.

Jain et al. ("Database-Agnostic Workload Management") argue that the
normalized-SQL *fingerprint* is the right unit for tracking a workload
over time; SQL Server's Query Store is the production embodiment: for
every query fingerprint, keep runtime statistics *per plan*, so that when
the optimizer switches plans the old plan's baseline is still there to
compare against.  This module is that layer for the repro runtime:

- a **query fingerprint** is the statement's one identity,
  ``PreparedStatement.fingerprint`` (:mod:`repro.engine.prepared`): a short
  hash of the parser-rendered text the result cache keys on, so
  whitespace/case variants unify;
- a **plan fingerprint** is a short hash of the physical plan's *shape* —
  operator names, table bindings and tree structure, deliberately
  excluding cardinality estimates so that stats drift alone does not read
  as a plan change;
- per (query, plan): executions, errors, cache hits, rows, total/mean
  latency and a streaming p95 (the P² estimator — O(1) state, so the
  store can sit on the job-completion path);
- **plan-change events** whenever a query starts executing under a new
  plan after an established baseline, and a **regression verdict** when
  the new plan is measurably slower than that baseline.

The store is bounded (LRU over query fingerprints) and serializable:
:meth:`QueryStore.dump_state` / :meth:`QueryStore.restore_state` ride in
``repro.storage`` snapshot checkpoints, so runtime baselines survive a
restart — exactly what makes regression detection useful across deploys.
"""

import hashlib
import threading
import time
from collections import OrderedDict, deque

from repro.engine.prepared import prepare_statement
from repro.obs.metrics import P2Quantile


#: Executions a plan needs before it counts as an established baseline
#: (or before a newer plan can be judged against one).
DEFAULT_MIN_EXECUTIONS = 5

#: A newer plan is a regression when its mean latency exceeds the
#: baseline plan's mean by this factor (and both are established).
DEFAULT_REGRESSION_FACTOR = 1.5


def plan_fingerprint(root):
    """Short stable hash of a physical plan's shape.

    Pre-order walk over children *and* subplans, folding in the operator's
    physical/logical names and its table binding.  Estimates and costs are
    excluded on purpose: the fingerprint should change when the *plan*
    changes (scan -> seek, nested loops -> hash join, join order), not
    when statistics drift under the same shape.
    """
    if root is None:
        return None
    tokens = []

    def visit(operator, depth):
        tokens.append("%d:%s:%s:%s" % (
            depth, operator.physical_name, operator.logical,
            operator.properties.get("Table", ""),
        ))
        for subplan in operator.subplans:
            tokens.append("%d:(" % depth)
            visit(subplan, depth + 1)
            tokens.append("%d:)" % depth)
        for child in operator.children:
            visit(child, depth + 1)

    visit(root, 0)
    return hashlib.sha256("|".join(tokens).encode("utf-8")).hexdigest()[:12]


class PlanStats(object):
    """Interval runtime statistics for one (query, plan) pair.

    Cache hits are counted but their (near-zero) latency never enters the
    latency aggregates — a warm cache would otherwise make every plan look
    instant and mask real regressions.
    """

    __slots__ = ("plan", "executions", "errors", "cache_hits", "rows_total",
                 "total_seconds", "min_seconds", "max_seconds", "_p95",
                 "first_seen", "last_seen")

    def __init__(self, plan):
        self.plan = plan
        self.executions = 0
        self.errors = 0
        self.cache_hits = 0
        self.rows_total = 0
        self.total_seconds = 0.0
        self.min_seconds = None
        self.max_seconds = 0.0
        self._p95 = P2Quantile(0.95)
        self.first_seen = None
        self.last_seen = None

    def observe(self, seconds, rows, error, cache_hit, epoch):
        if self.first_seen is None:
            self.first_seen = epoch
        self.last_seen = epoch
        if error:
            self.errors += 1
            return
        if cache_hit:
            self.cache_hits += 1
            return
        self.executions += 1
        self.rows_total += rows
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        self.min_seconds = (seconds if self.min_seconds is None
                            else min(self.min_seconds, seconds))
        self._p95.observe(seconds)

    @property
    def mean_seconds(self):
        return self.total_seconds / self.executions if self.executions else 0.0

    @property
    def p95_seconds(self):
        return self._p95.value()

    def to_dict(self):
        return {
            "plan": self.plan,
            "executions": self.executions,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "rows_total": self.rows_total,
            "total_seconds": round(self.total_seconds, 6),
            "mean_seconds": round(self.mean_seconds, 6),
            "p95_seconds": round(self.p95_seconds, 6),
            "min_seconds": (round(self.min_seconds, 6)
                            if self.min_seconds is not None else None),
            "max_seconds": round(self.max_seconds, 6),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }

    def dump_state(self):
        state = self.to_dict()
        # The rounded presentation fields above are fine to persist, but
        # the estimator needs its exact marker state to keep converging.
        state["p95_state"] = self._p95.to_state()
        return state

    @classmethod
    def restore_state(cls, state):
        stats = cls(state["plan"])
        stats.executions = state["executions"]
        stats.errors = state["errors"]
        stats.cache_hits = state["cache_hits"]
        stats.rows_total = state["rows_total"]
        stats.total_seconds = state["total_seconds"]
        stats.min_seconds = state["min_seconds"]
        stats.max_seconds = state["max_seconds"]
        stats.first_seen = state["first_seen"]
        stats.last_seen = state["last_seen"]
        stats._p95 = P2Quantile.from_state(state["p95_state"])
        return stats


class QueryStoreEntry(object):
    """Everything the store knows about one query fingerprint."""

    __slots__ = ("fingerprint", "sql", "plans", "plan_changes",
                 "current_plan", "first_seen", "last_seen")

    #: Plan-change events retained per entry.
    MAX_CHANGES = 16

    def __init__(self, fingerprint, sql):
        self.fingerprint = fingerprint
        #: Normalized SQL (truncated for memory; the fingerprint is the key).
        self.sql = sql[:500]
        self.plans = OrderedDict()  # plan fingerprint -> PlanStats
        self.plan_changes = deque(maxlen=self.MAX_CHANGES)
        self.current_plan = None
        self.first_seen = None
        self.last_seen = None

    @property
    def executions(self):
        return sum(stats.executions for stats in self.plans.values())

    @property
    def errors(self):
        return sum(stats.errors for stats in self.plans.values())

    @property
    def cache_hits(self):
        return sum(stats.cache_hits for stats in self.plans.values())

    @property
    def total_seconds(self):
        return sum(stats.total_seconds for stats in self.plans.values())

    def regression(self, min_executions=DEFAULT_MIN_EXECUTIONS,
                   factor=DEFAULT_REGRESSION_FACTOR):
        """The regression verdict for this entry's *current* plan.

        A regression requires: the query changed plans at least once, both
        the current plan and the best established earlier plan have
        ``min_executions`` real executions, and the current plan's mean
        latency exceeds the earlier baseline's mean by ``factor``.
        Returns a verdict dict or None.
        """
        current = self.plans.get(self.current_plan)
        if current is None or current.executions < min_executions:
            return None
        baseline = None
        for plan_fp, stats in self.plans.items():
            if plan_fp == self.current_plan:
                continue
            if stats.executions < min_executions:
                continue
            if baseline is None or stats.mean_seconds < baseline.mean_seconds:
                baseline = stats
        if baseline is None:
            return None
        if current.mean_seconds <= factor * baseline.mean_seconds:
            return None
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "regressed_plan": current.plan,
            "baseline_plan": baseline.plan,
            "baseline_mean_seconds": round(baseline.mean_seconds, 6),
            "regressed_mean_seconds": round(current.mean_seconds, 6),
            "baseline_p95_seconds": round(baseline.p95_seconds, 6),
            "regressed_p95_seconds": round(current.p95_seconds, 6),
            "slowdown": round(
                current.mean_seconds / baseline.mean_seconds, 3)
            if baseline.mean_seconds else float("inf"),
            "baseline_executions": baseline.executions,
            "regressed_executions": current.executions,
        }

    def to_dict(self, min_executions=DEFAULT_MIN_EXECUTIONS,
                factor=DEFAULT_REGRESSION_FACTOR):
        verdict = self.regression(min_executions, factor)
        return {
            "fingerprint": self.fingerprint,
            "sql": self.sql,
            "executions": self.executions,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "total_seconds": round(self.total_seconds, 6),
            "current_plan": self.current_plan,
            "plans": [stats.to_dict() for stats in self.plans.values()],
            "plan_changes": list(self.plan_changes),
            "regression": verdict,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }


class QueryStore(object):
    """Bounded, thread-safe store of per-fingerprint runtime history."""

    #: Plans retained per entry (oldest-seen dropped beyond this).
    MAX_PLANS_PER_ENTRY = 8

    def __init__(self, capacity=512, min_executions=DEFAULT_MIN_EXECUTIONS,
                 regression_factor=DEFAULT_REGRESSION_FACTOR):
        self.capacity = capacity
        self.min_executions = min_executions
        self.regression_factor = regression_factor
        self._entries = OrderedDict()  # query fingerprint -> entry (LRU)
        self._lock = threading.Lock()
        self.recorded = 0
        self.evictions = 0
        self.plan_changes = 0

    # -- recording ------------------------------------------------------------

    def record(self, sql, plan=None, plan_fp=None, seconds=0.0, rows=0,
               error=False, cache_hit=False, prepared=None, epoch=None):
        """Fold one completion in; returns the entry's fingerprint.

        ``prepared`` is the statement's :class:`PreparedStatement` when the
        caller already holds one (the scheduler's job does); otherwise the
        text is prepared here.  ``plan`` is the physical plan root
        (fingerprinted here) or pass a precomputed ``plan_fp``.  Failed
        completions carry no plan and are accumulated under the entry's
        current plan (or a ``"-"`` bucket before any plan is known).
        """
        if epoch is None:
            epoch = time.time()
        if prepared is None:
            prepared = prepare_statement(sql)
        fingerprint = prepared.fingerprint
        if plan_fp is None:
            plan_fp = plan_fingerprint(plan)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = QueryStoreEntry(fingerprint, prepared.key)
                entry.first_seen = epoch
                self._entries[fingerprint] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            else:
                self._entries.move_to_end(fingerprint)
            entry.last_seen = epoch
            if plan_fp is None:
                plan_fp = entry.current_plan or "-"
            stats = entry.plans.get(plan_fp)
            if stats is None:
                stats = entry.plans[plan_fp] = PlanStats(plan_fp)
                while len(entry.plans) > self.MAX_PLANS_PER_ENTRY:
                    entry.plans.popitem(last=False)
            if (plan_fp != "-" and entry.current_plan is not None
                    and plan_fp != entry.current_plan):
                previous = entry.plans.get(entry.current_plan)
                if previous is not None and previous.executions >= self.min_executions:
                    entry.plan_changes.append({
                        "epoch": epoch,
                        "from_plan": entry.current_plan,
                        "to_plan": plan_fp,
                        "from_executions": previous.executions,
                        "from_mean_seconds": round(previous.mean_seconds, 6),
                    })
                    self.plan_changes += 1
            if plan_fp != "-":
                entry.current_plan = plan_fp
            stats.observe(seconds, rows, error, cache_hit, epoch)
            self.recorded += 1
        return fingerprint

    # -- lookup ---------------------------------------------------------------

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint):
        with self._lock:
            return self._entries.get(fingerprint)

    def entries(self):
        with self._lock:
            return list(self._entries.values())

    def regressions(self):
        """Every entry whose current plan regressed, worst slowdown first."""
        verdicts = []
        for entry in self.entries():
            with self._lock:
                verdict = entry.regression(self.min_executions,
                                           self.regression_factor)
            if verdict is not None:
                verdicts.append(verdict)
        verdicts.sort(key=lambda v: -v["slowdown"])
        return verdicts

    def summary(self):
        with self._lock:
            entries = list(self._entries.values())
            payload = {
                "entries": len(entries),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "evictions": self.evictions,
                "plan_changes": self.plan_changes,
            }
        payload["regressions"] = sum(
            1 for entry in entries
            if entry.regression(self.min_executions, self.regression_factor)
        )
        return payload

    def to_dict(self, limit=50, regressions_only=False, order_by="total_seconds"):
        entries = self.entries()
        entries.sort(key=lambda e: -getattr(e, order_by, 0.0))
        rows = []
        for entry in entries:
            if limit is not None and len(rows) >= limit:
                break
            with self._lock:
                payload = entry.to_dict(self.min_executions,
                                        self.regression_factor)
            if regressions_only and payload["regression"] is None:
                continue
            rows.append(payload)
        result = self.summary()
        result["queries"] = rows
        return result

    # -- persistence (rides in repro.storage snapshots) -------------------------

    def dump_state(self):
        with self._lock:
            return {
                "capacity": self.capacity,
                "min_executions": self.min_executions,
                "regression_factor": self.regression_factor,
                "recorded": self.recorded,
                "evictions": self.evictions,
                "plan_changes": self.plan_changes,
                "entries": [
                    {
                        "fingerprint": entry.fingerprint,
                        "sql": entry.sql,
                        "current_plan": entry.current_plan,
                        "first_seen": entry.first_seen,
                        "last_seen": entry.last_seen,
                        "plan_changes": list(entry.plan_changes),
                        "plans": [stats.dump_state()
                                  for stats in entry.plans.values()],
                    }
                    for entry in self._entries.values()
                ],
            }

    def restore_state(self, state):
        with self._lock:
            self.capacity = state["capacity"]
            self.min_executions = state["min_executions"]
            self.regression_factor = state["regression_factor"]
            self.recorded = state["recorded"]
            self.evictions = state["evictions"]
            self.plan_changes = state["plan_changes"]
            self._entries.clear()
            for spec in state["entries"]:
                entry = QueryStoreEntry(spec["fingerprint"], spec["sql"])
                entry.current_plan = spec["current_plan"]
                entry.first_seen = spec["first_seen"]
                entry.last_seen = spec["last_seen"]
                entry.plan_changes.extend(spec["plan_changes"])
                for plan_state in spec["plans"]:
                    entry.plans[plan_state["plan"]] = (
                        PlanStats.restore_state(plan_state))
                self._entries[entry.fingerprint] = entry
        return self
