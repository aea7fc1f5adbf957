"""The query log: the research corpus this whole experiment exists to collect.

"SQLShare logs all executed queries; this log was collected to inform
research on new database systems supporting ad hoc analytics over weakly
structured data." (§4)  Each entry records who ran what and when, which
datasets the query touched, and the optimizer's cost estimate; Phase 1 of
the analysis later attaches a JSON plan to each entry.
"""

import datetime as _dt
import threading


class QueryLogEntry(object):
    """One executed (or explained) query."""

    __slots__ = (
        "query_id",
        "owner",
        "sql",
        "timestamp",
        "datasets",
        "tables",
        "columns",
        "views",
        "runtime",
        "row_count",
        "error",
        "plan_json",
        "source",
        "outcome",
        "queue_seconds",
        "exec_seconds",
        "cache_hit",
        "error_class",
        "cross_shard",
    )

    def __init__(self, query_id, owner, sql, timestamp, datasets=(), tables=(),
                 columns=(), views=(), runtime=0.0, row_count=0, error=None,
                 source="webui", outcome=None, queue_seconds=None,
                 exec_seconds=None, cache_hit=False, error_class=None,
                 cross_shard=False):
        self.query_id = query_id
        self.owner = owner
        self.sql = sql
        self.timestamp = timestamp
        #: Dataset names referenced directly by the query text.
        self.datasets = tuple(datasets)
        #: Base tables reached through any chain of views.
        self.tables = tuple(tables)
        #: (table, column) pairs reached.
        self.columns = tuple(columns)
        #: Views (wrapper or derived) expanded while planning.
        self.views = tuple(views)
        #: Estimated runtime (optimizer cost units), as the paper uses.
        self.runtime = runtime
        self.row_count = row_count
        self.error = error
        #: Phase-1 JSON plan, attached by the workload framework.
        self.plan_json = None
        #: Where the query came from ("webui", "rest" or "replay").
        self.source = source
        #: Scheduler outcome (job state name) when run through the runtime.
        self.outcome = outcome
        #: Seconds spent queued / executing (None outside the runtime).
        self.queue_seconds = queue_seconds
        self.exec_seconds = exec_seconds
        #: True when the rows were served from the result cache.
        self.cache_hit = cache_hit
        #: Taxonomy class of the failure (:data:`repro.errors.ERROR_CLASSES`);
        #: None for successful queries.
        self.error_class = error_class
        #: True when the cluster served this query through the
        #: fetch-and-local-join fallback (it touched remote-shard data).
        self.cross_shard = cross_shard

    @property
    def succeeded(self):
        return self.error is None

    def to_record(self):
        """JSON-safe dict capturing the entry verbatim (durability format).

        Timestamps become ISO strings; the tuple-of-pairs ``columns`` field
        becomes a list of 2-lists.  ``plan_json`` rides along when the
        workload framework has attached one.
        """
        return {
            "query_id": self.query_id,
            "owner": self.owner,
            "sql": self.sql,
            "timestamp": (self.timestamp.isoformat()
                          if self.timestamp is not None else None),
            "datasets": list(self.datasets),
            "tables": list(self.tables),
            "columns": [list(pair) for pair in self.columns],
            "views": list(self.views),
            "runtime": self.runtime,
            "row_count": self.row_count,
            "error": self.error,
            "plan_json": self.plan_json,
            "source": self.source,
            "outcome": self.outcome,
            "queue_seconds": self.queue_seconds,
            "exec_seconds": self.exec_seconds,
            "cache_hit": self.cache_hit,
            "error_class": self.error_class,
            "cross_shard": self.cross_shard,
        }

    @classmethod
    def from_record(cls, record):
        """Rebuild an entry exactly as recorded — recovery never re-executes
        logged queries, so nondeterministic fields (``exec_seconds``,
        ``cache_hit``) survive byte-for-byte."""
        entry = cls(
            record["query_id"],
            record["owner"],
            record["sql"],
            (_dt.datetime.fromisoformat(record["timestamp"])
             if record["timestamp"] else None),
            datasets=record["datasets"],
            tables=record["tables"],
            columns=[tuple(pair) for pair in record["columns"]],
            views=record["views"],
            runtime=record["runtime"],
            row_count=record["row_count"],
            error=record["error"],
            source=record["source"],
            outcome=record["outcome"],
            queue_seconds=record["queue_seconds"],
            exec_seconds=record["exec_seconds"],
            cache_hit=record["cache_hit"],
            error_class=record["error_class"],
            cross_shard=record.get("cross_shard", False),
        )
        entry.plan_json = record.get("plan_json")
        return entry

    @property
    def length(self):
        """ASCII character length — the paper's simplest complexity proxy."""
        return len(self.sql)

    def __repr__(self):
        return "QueryLogEntry(%s, %r, %d chars)" % (self.query_id, self.owner, self.length)


class QueryLog(object):
    """Append-only log with simple per-user and per-dataset indexes."""

    def __init__(self):
        self.entries = []
        self._next_id = 1
        # Concurrent workers all append here; the lock keeps id assignment
        # and the entries list consistent.
        self._lock = threading.Lock()
        #: Durability hook: called with each newly recorded entry, *outside*
        #: the log lock (the storage manager may checkpoint from inside it).
        self.listener = None

    def record(self, owner, sql, timestamp=None, **kwargs):
        with self._lock:
            if timestamp is None:
                timestamp = _dt.datetime(2011, 1, 1) + _dt.timedelta(
                    seconds=len(self.entries)
                )
            entry = QueryLogEntry(self._next_id, owner, sql, timestamp, **kwargs)
            self._next_id += 1
            self.entries.append(entry)
        listener = self.listener
        if listener is not None:
            listener(entry)
        return entry

    # -- durability ------------------------------------------------------------

    def max_id(self):
        with self._lock:
            return self._next_id - 1

    def dump_state(self):
        """Serialize every entry (call under the platform's state lock)."""
        with self._lock:
            return {
                "next_id": self._next_id,
                "entries": [entry.to_record() for entry in self.entries],
            }

    def restore_state(self, state):
        with self._lock:
            self.entries = [
                QueryLogEntry.from_record(record) for record in state["entries"]
            ]
            self._next_id = state["next_id"]

    def restore_entry(self, record):
        """Re-admit one WAL-logged entry during recovery (no listener —
        the record is already durable).

        The entry is placed by ``query_id``, not appended: :meth:`record`
        calls its listener outside the log lock, so two concurrent queries
        can reach the WAL in the opposite order to their ids, while the
        live list is always in id order.  Placing by id makes the
        recovered order independent of WAL arrival order.
        """
        entry = QueryLogEntry.from_record(record)
        with self._lock:
            index = len(self.entries)
            while index and self.entries[index - 1].query_id > entry.query_id:
                index -= 1
            self.entries.insert(index, entry)
            self._next_id = max(self._next_id, entry.query_id + 1)
        return entry

    def finalize_restore(self):
        """Seal a restore: recompute ``_next_id`` past every admitted entry.

        Entry *order* is left exactly as restored — the snapshot preserves
        the live list order (which need not be id order: workload drivers
        re-sort by timestamp) and replayed WAL tail records, whose ids all
        follow the snapshot's, land in id order (see :meth:`restore_entry`),
        which is the order a live log would have given them.
        """
        with self._lock:
            if self.entries:
                self._next_id = max(
                    self._next_id,
                    max(entry.query_id for entry in self.entries) + 1,
                )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def successful(self):
        return [entry for entry in self.entries if entry.succeeded]

    def by_user(self, owner):
        return [entry for entry in self.entries if entry.owner == owner]

    def users(self):
        return sorted({entry.owner for entry in self.entries})

    def referencing(self, dataset_name):
        lowered = dataset_name.lower()
        return [
            entry
            for entry in self.entries
            if any(name.lower() == lowered for name in entry.datasets)
        ]
