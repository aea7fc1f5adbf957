"""Cardinality feedback store: observed per-operator row counts.

Profiled executions already measure what every operator actually produced
(:mod:`repro.obs.profiler`); this module keeps those observations keyed by
``(query fingerprint, plan site)`` so the planner can replace a synthetic
selectivity guess with the measured cardinality the next time the same
query is planned.

A *plan site* is a structural digest of an operator: its logical role (so
Nested Loops / Hash Match / Merge Join alternatives of the same logical
join share one site), the relation it reads (for scans and seeks), its
predicate descriptions, and the sites of its children.  Estimated rows and
costs are deliberately excluded — the whole point is that the same site
must match across plan alternatives whose estimates differ.

The store is engine-agnostic on purpose: ``repro.engine`` never imports
this package.  The planner receives a duck-typed :class:`FeedbackView`
(``Planner.plan(query, feedback=...)``) and calls ``estimate_for(op)``;
all site-key computation lives here, on both the harvest and lookup side.
The *query fingerprint* is the statement's one identity
(``PreparedStatement.fingerprint``), handed in by the caller.
"""

import hashlib
import threading
from collections import OrderedDict

#: Bound on remembered fingerprints (LRU beyond this).
DEFAULT_CAPACITY = 512


def operator_site_key(operator):
    """Structural digest identifying one plan site across re-plannings.

    Stable across physical join alternatives (all three join operators
    report the same *logical* name for a given join kind) and across
    estimate changes; sensitive to the relation scanned, the predicate
    set, and the shape of the subtree below.
    """
    parts = [_site_label(operator)]
    filters = getattr(operator, "filters", None)
    if filters:
        parts.extend(sorted(filters))
    for child in operator.children:
        parts.append(operator_site_key(child))
    blob = "\x1f".join(parts)
    return hashlib.sha256(blob.encode("utf-8", "replace")).hexdigest()[:16]


def _site_label(operator):
    table = getattr(operator, "table", None)
    if table is not None:
        return "%s:%s" % (operator.logical, table.name.lower())
    return operator.logical


def _plan_walk(operator, out):
    """Pre-order walk matching ``QueryProfiler._collect`` (node, then
    subplans, then children) so harvested stats zip positionally."""
    out.append(operator)
    for subplan in operator.subplans:
        _plan_walk(subplan, out)
    for child in operator.children:
        _plan_walk(child, out)


class FeedbackView(object):
    """Read-only per-fingerprint view handed to the planner.

    Duck-typed contract with ``Planner._apply_feedback``: one method,
    ``estimate_for(operator) -> observed rows or None``.
    """

    __slots__ = ("fingerprint", "_sites")

    def __init__(self, fingerprint, sites):
        self.fingerprint = fingerprint
        self._sites = sites

    def estimate_for(self, operator):
        return self._sites.get(operator_site_key(operator))

    def __len__(self):
        return len(self._sites)


class CardinalityFeedbackStore(object):
    """Thread-safe, LRU-bounded map of fingerprint -> observed plan sites."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # fingerprint -> {site key: rows}
        self.harvests = 0

    # -- harvesting ------------------------------------------------------------

    def harvest(self, fingerprint, plan_root, profile):
        """Record the observed cardinalities of one profiled execution.

        Walks the executed plan in profiler order, zips it with the
        profile's per-operator stats, and stores ``actual_rows_per_loop``
        for every operator that actually ran.  Returns the number of plan
        sites recorded (0 when the inputs don't line up — learning nothing
        beats learning garbage).
        """
        if fingerprint is None or plan_root is None or profile is None:
            return 0
        operators = []
        _plan_walk(plan_root, operators)
        stats = getattr(profile, "operators", None) or []
        if len(operators) != len(stats):
            return 0
        sites = {}
        for operator, stat in zip(operators, stats):
            if stat.physical_name != operator.physical_name:
                return 0
            if not stat.loops:
                continue
            sites[operator_site_key(operator)] = float(stat.actual_rows_per_loop)
        if not sites:
            return 0
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = self._entries[fingerprint] = {}
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            entry.update(sites)
            self._entries.move_to_end(fingerprint)
            self.harvests += 1
        return len(sites)

    # -- lookup ----------------------------------------------------------------

    def view(self, fingerprint):
        """Per-fingerprint :class:`FeedbackView`, or None when nothing was
        learned.  This is the per-execution probe on the query hot path:
        one lock acquisition plus one dict get."""
        with self._lock:
            sites = self._entries.get(fingerprint)
        if not sites:
            return None
        return FeedbackView(fingerprint, sites)

    def invalidate(self, fingerprint):
        """Forget everything learned about one fingerprint."""
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    # -- introspection / persistence -------------------------------------------

    def summary(self):
        with self._lock:
            return {
                "fingerprints": len(self._entries),
                "sites": sum(len(sites) for sites in self._entries.values()),
                "harvests": self.harvests,
                "capacity": self.capacity,
            }

    def dump_state(self):
        """JSON-serializable snapshot (persisted beside the Query Store)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": [
                    {"fingerprint": fingerprint, "sites": dict(sites)}
                    for fingerprint, sites in self._entries.items()
                ],
            }

    def restore_state(self, state):
        entries = OrderedDict()
        for item in state.get("entries", []):
            fingerprint = item.get("fingerprint")
            sites = item.get("sites")
            if not fingerprint or not isinstance(sites, dict):
                continue
            entries[fingerprint] = {
                str(key): float(rows) for key, rows in sites.items()
            }
        with self._lock:
            self.capacity = int(state.get("capacity", self.capacity))
            self._entries = entries
