"""The versioned result cache (§6.3 made real).

The paper's reuse analysis estimates that most workload cost is recoverable
by caching derived results; this module realizes that in the runtime.  An
entry is keyed by the *normalized* SQL text (``PreparedStatement.key``, the
canonical rendering of the parsed statement, so whitespace/keyword-case
variants unify) and stamped
with the **version vector** of every table and view the plan reaches —
``((name, version), ...)`` sorted, with versions maintained by the catalog.

Correctness does not depend on eager invalidation: a lookup only hits when
the stored vector exactly equals the *current* vector, so any upload,
append, INSERT, ALTER, view redefinition or drop that bumped a referenced
object's version makes the entry unservable (it is evicted as *stale* on
the next probe).  Eager invalidation through the view DAG
(:meth:`ResultCache.invalidate`) exists on top of that to release memory
promptly when a dataset and its dependents change.
"""

import threading
from collections import OrderedDict


class CacheStats(object):
    """Counters exposed through ``/api/v1/runtime/stats`` and the bench."""

    __slots__ = ("hits", "misses", "stale_evictions", "capacity_evictions",
                 "invalidations", "stores", "oversize_skips")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        #: Entries evicted because their version vector no longer matched
        #: the catalog at probe time (never served — zero stale results).
        self.stale_evictions = 0
        self.capacity_evictions = 0
        self.invalidations = 0
        self.stores = 0
        self.oversize_skips = 0

    @property
    def hit_rate(self):
        probes = self.hits + self.misses
        return self.hits / float(probes) if probes else 0.0

    def to_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stale_evictions": self.stale_evictions,
            "capacity_evictions": self.capacity_evictions,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "oversize_skips": self.oversize_skips,
        }


class _Entry(object):
    __slots__ = ("vector", "columns", "rows", "plan", "info")

    def __init__(self, vector, columns, rows, plan=None, info=None):
        self.vector = vector
        self.columns = columns
        self.rows = rows
        #: The planned root + PlanInfo from the original execution, so a
        #: hit skips analysis and planning entirely while still returning
        #: a QueryResult with full plan metadata.  Safe to reuse while the
        #: vector validates: a version match means no referenced object
        #: was dropped, recreated, altered or written since.
        self.plan = plan
        self.info = info


class ResultCache(object):
    """Bounded LRU result cache keyed by normalized SQL + version vector."""

    def __init__(self, capacity=256, max_rows_per_entry=50000):
        self.capacity = capacity
        self.max_rows_per_entry = max_rows_per_entry
        self._entries = OrderedDict()  # normalized sql -> _Entry
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def lookup(self, key, version_of):
        """Return the entry on a valid hit, else None.

        ``version_of(name)`` maps a referenced object to its *current*
        catalog version; the entry is valid only when every ``(name,
        version)`` pair stamped at store time still matches.  A stored
        entry that no longer validates is *stale*: it is evicted, counted,
        and never served.  Validating against the live catalog (rather
        than a caller-computed vector) is what lets hits skip planning —
        the entry itself remembers which objects its plan reached.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if any(version_of(name) != version
                   for name, version in entry.vector):
                del self._entries[key]
                self.stats.stale_evictions += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def store(self, key, vector, columns, rows, plan=None, info=None):
        """Admit a result (LRU-evicting over capacity; oversize skipped)."""
        if len(rows) > self.max_rows_per_entry:
            with self._lock:
                self.stats.oversize_skips += 1
            return
        with self._lock:
            self._entries[key] = _Entry(vector, list(columns), rows,
                                        plan=plan, info=info)
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.capacity_evictions += 1

    def invalidate(self, names):
        """Eagerly drop every entry whose vector mentions any of ``names``.

        Callers pass the changed dataset *plus its transitive dependents*
        (the view DAG walk lives in the platform, which knows the graph);
        because vectors also contain every base table and intermediate view
        the plan reached, a bare name is usually enough — the DAG walk is
        belt-and-braces for entries whose plan predated a redefinition.
        """
        lowered = {name.lower() for name in names}
        dropped = 0
        with self._lock:
            for key in [
                key for key, entry in self._entries.items()
                if any(name in lowered for name, _version in entry.vector)
            ]:
                del self._entries[key]
                dropped += 1
            self.stats.invalidations += dropped
        return dropped

    def forget(self, key):
        """Drop one normalized key's entry (counted as an invalidation).

        The adaptive controller uses this to force a fingerprint's next
        identical submission to re-plan instead of hitting the cache."""
        with self._lock:
            dropped = self._entries.pop(key, None) is not None
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def audit(self, version_of):
        """Count cached entries whose vector is out of date.

        ``version_of(name)`` returns the current catalog version.  Used by
        the throughput bench to prove the zero-stale-results property: stale
        entries may *sit* in the cache (they are lazily evicted) but a probe
        never serves one.
        """
        with self._lock:
            return sum(
                1
                for entry in self._entries.values()
                if any(version_of(name) != version
                       for name, version in entry.vector)
            )

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)
