"""The SQLShare platform facade.

The minimal workflow the paper set out to deliver: upload data, write
queries, share the results — with installation, deployment, schema design,
physical tuning and data dissemination automated away.  This object wires
together the engine, the ingest pipeline, the dataset model, permissions,
quotas and the query log.
"""

import datetime as _dt
import re
import threading
import time

from repro.core.dataset import Dataset, PREVIEW_ROWS
from repro.core.permissions import PermissionManager
from repro.core.querylog import QueryLog
from repro.core.quota import QuotaManager
from repro.core.views import ViewGraph
from repro.engine import parser as sql_parser
from repro.engine.catalog import Column
from repro.engine.database import Database
from repro.engine.types import unify_types
from repro.errors import DatasetError, PermissionError_, classify_error
from repro.ingest.ingestor import Ingestor
from repro.ingest.staging import StagingArea
from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_ ]*$")


def quote_ident(name):
    """Bracket-quote a dataset name for use in SQL."""
    return "[%s]" % name


class SQLShare(object):
    """A complete in-process SQLShare deployment."""

    def __init__(self, database=None, quota_manager=None, start_time=None):
        self.db = database or Database()
        self.staging = StagingArea()
        self.ingestor = Ingestor(self.db)
        self.log = QueryLog()
        self.quotas = quota_manager or QuotaManager()
        self.datasets = {}  # lower-case name -> Dataset
        self.permissions = PermissionManager(self.dataset)
        self.views = ViewGraph(self.dataset, lambda: list(self.datasets.values()))
        # Plain int (not itertools.count) so snapshots can serialize it and
        # recovery can resume base-table numbering deterministically.
        self._table_seq = 0
        self._clock = start_time or _dt.datetime(2011, 6, 1, 9, 0, 0)
        #: Durable StorageManager, attached by repro.storage (None = the
        #: platform is ephemeral; every mutator logs through ``_durable``).
        self.storage = None
        #: Versioned result cache, attached by a QueryRuntime (or directly).
        #: When present, ``run_query`` consults it and every mutating
        #: operation eagerly invalidates the changed dataset's dependents.
        self.result_cache = None
        #: Metrics registry shared by the platform, the engine and any
        #: attached QueryRuntime.
        self.metrics = MetricsRegistry()
        self.db.metrics = self.metrics
        #: Serializes dataset mutations (upload/append/delete/...) and the
        #: logical clock against the runtime's concurrent query workers.
        self._state_lock = threading.RLock()
        #: Ingest reports by dataset name (feeds the §5.1 analysis).
        self.ingest_reports = {}
        #: Parameterized query macros (§5.2 footnote 4).
        from repro.core.macros import MacroManager

        self.macros = MacroManager(self)
        #: Durable bookkeeping for the CasJobs-style batch lane; lives on
        #: the platform (not the runtime) so snapshots carry it and a
        #: restarted worker can re-enqueue unfinished batches.
        from repro.core.batchlog import BatchJournal

        self.batch_journal = BatchJournal()

    # -- durability ------------------------------------------------------------

    def _durable(self, op, **data):
        """Log one committed mutation to the attached WAL (no-op when the
        platform is ephemeral or the record is itself being replayed).
        Called with the mutation's state lock still held, so WAL order
        matches commit order."""
        storage = self.storage
        if storage is not None:
            storage.log_operation(op, data)

    # -- time -----------------------------------------------------------------

    def _now(self, timestamp):
        with self._state_lock:
            if timestamp is not None:
                self._clock = max(self._clock, timestamp)
                return timestamp
            self._clock += _dt.timedelta(seconds=60)
            return self._clock

    # -- dataset lookup ----------------------------------------------------------

    def dataset(self, name):
        try:
            return self.datasets[name.lower()]
        except KeyError:
            raise DatasetError("no dataset named %r" % name)

    def has_dataset(self, name):
        return name.lower() in self.datasets

    def all_datasets(self):
        """Snapshot of every Dataset (safe to iterate under concurrency)."""
        with self._state_lock:
            return list(self.datasets.values())

    def dataset_names(self):
        return sorted(dataset.name for dataset in self.all_datasets())

    def datasets_by_user(self, owner):
        return [d for d in self.all_datasets() if d.owner == owner]

    def public_datasets(self):
        return [d for d in self.all_datasets() if self.permissions.is_public(d.name)]

    def users(self):
        return sorted({d.owner for d in self.all_datasets()} | set(self.log.users()))

    # -- result-cache invalidation ----------------------------------------------

    def _invalidate_cache(self, name, dataset=None, demote=True):
        """Eagerly drop cached results for ``name``, its base table, and
        every transitive dependent through the view DAG.  (The cache's
        version-vector check already guarantees stale entries are never
        *served*; this releases their memory promptly.)

        With ``demote=True`` (every content mutation) any advisor-
        materialized view in the affected set is demoted back to its
        logical definition first — a materialization is a snapshot of its
        defining query, so an upstream change makes it stale and it must
        never serve stale rows.  Physical-only changes (recluster, the
        materialization step itself) pass ``demote=False``."""
        names = self._dependent_names(name, dataset)
        if demote:
            self._demote_stale_materializations(names)
        cache = self.result_cache
        if cache is None:
            return
        cache.invalidate(names)

    def _dependent_names(self, name, dataset=None):
        """``name``, its base table, and every transitive view dependent."""
        seen = {name.lower()}
        names = [name]
        if dataset is not None and dataset.base_table:
            names.append(dataset.base_table)
        frontier = [name]
        while frontier:
            for dependent in self.views.dependents(frontier.pop()):
                if dependent.lower() not in seen:
                    seen.add(dependent.lower())
                    names.append(dependent)
                    frontier.append(dependent)
        return names

    def _demote_stale_materializations(self, names):
        """Turn stale advisor materializations back into logical views.

        Called with ``_state_lock`` held, on the affected-name set of a
        content mutation.  Deterministic given platform state, so WAL
        replay of the triggering mutation reproduces the demotion without
        its own log record.  Appends each dropped snapshot table to
        ``names`` so its cache entries are released too."""
        for dep_name in list(names):
            dep = self.datasets.get(dep_name.lower())
            if dep is None or dep.kind != "derived" or not dep.base_table:
                continue
            base_table = dep.base_table
            try:
                self.db.create_view(dep.name, sql_parser.parse(dep.sql),
                                    sql=dep.sql, replace=True)
            except Exception:
                continue  # leave the snapshot rather than break the mutation
            dep.base_table = None
            self.db.catalog.drop_table(base_table, if_exists=True)
            names.append(base_table)

    # -- upload (Figure 2 b/c/d) ---------------------------------------------------

    def upload(self, owner, name, text, description="", tags=None, timestamp=None):
        """Stage and ingest a delimited file; returns the wrapper Dataset.

        Creates a physical base table plus the trivial wrapper view
        ``SELECT * FROM <base>`` so that "everything is a dataset" and
        novice users always have an example query to edit (§3.2).
        """
        with self._state_lock:
            self._validate_name(name)
            moment = self._now(timestamp)
            staging_id = self.staging.stage(name, text, owner)
            self.staging.record_attempt(staging_id)
            self.quotas.charge(owner, len(text))
            base_table = self._mint_base_table(name)
            try:
                report = self.ingestor.ingest_text(base_table, text)
            except Exception:
                self.quotas.refund(owner, len(text))
                raise  # file remains staged for retry
            self.staging.discard(staging_id)
            dataset = self._wrap_base_table(
                name, owner, "wrapper", base_table, created_at=moment,
                description=description, tags=tags)
            self.ingest_reports[name.lower()] = report
            self._invalidate_cache(name, dataset)
            self._durable("upload", owner=owner, name=name, text=text,
                          description=description,
                          tags=sorted(tags) if tags else [],
                          timestamp=moment)
        return dataset

    def _validate_name(self, name):
        if not _NAME_RE.match(name or ""):
            raise DatasetError("invalid dataset name %r" % name)
        if self.has_dataset(name):
            raise DatasetError("a dataset named %r already exists" % name)

    # -- derived datasets (Figure 2 e) ------------------------------------------------

    def create_dataset(self, owner, name, sql, description="", tags=None, timestamp=None):
        """Save a query as a named derived dataset (view).

        View creation is "a side effect of query authoring": no CREATE VIEW
        syntax, just a query and a name.  The owner must be able to access
        every dataset the query references.
        """
        with self._state_lock:
            self._validate_name(name)
            moment = self._now(timestamp)
            prepared = self._prepare_query(sql)
            referenced = self._check_names_access(owner, prepared.names)
            self.db.create_view(name, prepared.ast(), sql=sql)
            dataset = Dataset(
                name, owner, sql, "derived",
                derived_from=referenced, created_at=moment,
                description=description, tags=tags,
            )
            self.datasets[name.lower()] = dataset
            self._invalidate_cache(name, dataset)
            self._durable("create_dataset", owner=owner, name=name, sql=sql,
                          description=description,
                          tags=sorted(tags) if tags else [],
                          timestamp=moment)
        return dataset

    def append(self, owner, name, text, timestamp=None):
        """Append a batch by rewriting the view as (E) UNION ALL (N) (§3.2).

        The new batch is uploaded as its own base table, so it can later be
        "uninserted" and the batch substructure inspected.
        """
        with self._state_lock:
            dataset = self.dataset(name)
            if dataset.owner != owner:
                raise PermissionError_("only the owner may append to %r" % name)
            moment = self._now(timestamp)
            base_table = self._mint_base_table(name + "_batch")
            self.quotas.charge(owner, len(text))
            try:
                self.ingestor.ingest_text(base_table, text)
            except Exception:
                self.quotas.refund(owner, len(text))
                raise
            try:
                self._check_append_compatible(dataset, base_table)
            except DatasetError:
                self.db.catalog.drop_table(base_table, if_exists=True)
                self.quotas.refund(owner, len(text))
                raise
            new_sql = "(%s) UNION ALL (SELECT * FROM %s)" % (dataset.sql, base_table)
            self.db.create_view(name, sql_parser.parse(new_sql), sql=new_sql, replace=True)
            dataset.sql = new_sql
            self._invalidate_cache(name, dataset)
            self._durable("append", owner=owner, name=name, text=text,
                          timestamp=moment)
        return dataset

    def _check_append_compatible(self, dataset, base_table):
        existing = self.db.query_schema("SELECT * FROM %s" % quote_ident(dataset.name))
        incoming = self.db.query_schema("SELECT * FROM %s" % base_table)
        if len(existing) != len(incoming):
            raise DatasetError(
                "append to %r: column count mismatch (%d vs %d)"
                % (dataset.name, len(existing), len(incoming))
            )
        for (old_name, old_type), (new_name, new_type) in zip(existing, incoming):
            if old_name.lower() != new_name.lower():
                raise DatasetError(
                    "append to %r: column %r does not match %r"
                    % (dataset.name, new_name, old_name)
                )
            unify_types(old_type, new_type)  # widening is always permitted

    def materialize(self, owner, name, source_name, timestamp=None):
        """Snapshot a dataset's current contents into a new physical dataset.

        "the user can materialize the dataset to create a snapshot that is
        distinct from the original view definition" (§3.2).
        """
        with self._state_lock:
            self._validate_name(name)
            self.permissions.check_access(owner, source_name)
            moment = self._now(timestamp)
            base_table = self._snapshot(source_name, name)  # selfcheck: ok[SELFCHECK003]
            dataset = self._wrap_base_table(
                name, owner, "snapshot", base_table, created_at=moment)
            self._invalidate_cache(name, dataset)
            self._durable("materialize", owner=owner, name=name,
                          source=source_name, timestamp=moment)
        return dataset

    def materialize_in_place(self, owner, name, timestamp=None):
        """Materialize a derived dataset under its own name (advisor apply).

        Unlike :meth:`materialize` — which mints a *new* snapshot dataset —
        this keeps the dataset's name, lineage (``derived_from``) and
        permissions, but repoints its view at a physical table holding its
        current contents, so repeat queries and dependents stop re-running
        the defining query.  The defining SQL stays on the dataset record:
        any content change to an upstream dataset automatically demotes the
        materialization back to that logical definition (see
        ``_demote_stale_materializations``), so stale rows are never served.
        """
        with self._state_lock:
            dataset = self.dataset(name)
            if dataset.owner != owner:
                raise PermissionError_(
                    "only the owner may materialize %r" % name)
            if dataset.kind != "derived":
                raise DatasetError(
                    "%r is not a derived dataset (kind %r)"
                    % (name, dataset.kind))
            if dataset.base_table:
                raise DatasetError("%r is already materialized" % name)
            moment = self._now(timestamp)
            base_table = self._snapshot(name, name)  # selfcheck: ok[SELFCHECK003]
            self._wrap_base_table(name, owner, "derived", base_table,
                                  existing=dataset)
            self._invalidate_cache(name, dataset, demote=False)
            self._durable("materialize_inplace", owner=owner, name=name,
                          timestamp=moment)
        return dataset

    def recluster_dataset(self, owner, name, column):
        """Physically order a dataset's base table on ``column`` (advisor
        index apply).

        The engine's only access paths are the clustered scan and seek;
        sorting the base table on a hot predicate column lets the seek
        bisect to the matching row range instead of scanning every row
        (:class:`~repro.engine.operators.ClusteredIndexSeek`).  Contents
        are unchanged, so no dependent view or materialization is
        affected; cached results for the dataset are dropped only because
        their row *order* may differ from fresh executions.
        """
        with self._state_lock:
            dataset = self.dataset(name)
            if dataset.owner != owner:
                raise PermissionError_("only the owner may recluster %r" % name)
            if not dataset.base_table:
                raise DatasetError(
                    "%r has no physical base table to recluster "
                    "(materialize it first)" % name)
            table = self.db.catalog.get_table(dataset.base_table)
            table.recluster(column)
            self.db.catalog.bump_version(dataset.base_table)
            self._invalidate_cache(name, dataset, demote=False)
            self._durable("recluster", owner=owner, name=name, column=column)
            return {
                "dataset": dataset.name,
                "base_table": dataset.base_table,
                "clustered_on": table.clustered_on,
                "rows": len(table.rows),
            }

    def save_result_table(self, owner, name, columns, rows, timestamp=None):
        """Persist a finished batch's result as a "MyDB" scratch dataset.

        CasJobs semantics: every batch lands its output in the submitting
        user's scratch space under a predictable name, and re-running a
        batch with the same name overwrites the previous incarnation.
        ``columns`` is the ``query_schema`` shape — (name, SQLType) pairs.
        The rows are logged inline in the WAL (``result_table``), so a
        worker restarted from snapshot+WAL still serves the result.
        """
        with self._state_lock:
            if not _NAME_RE.match(name or ""):
                raise DatasetError("invalid dataset name %r" % name)
            existing = self.datasets.get(name.lower())
            if existing is not None:
                if existing.owner != owner or existing.kind != "scratch":
                    raise DatasetError(
                        "a dataset named %r already exists" % name)
                self._drop_dataset(existing)
            moment = self._now(timestamp)
            base_table = self._mint_base_table(name)
            self.db.create_table_from_rows(
                base_table,
                [Column(col_name, col_type) for col_name, col_type in columns],
                rows)
            dataset = self._wrap_base_table(
                name, owner, "scratch", base_table, created_at=moment,
                description="batch result")
            self._invalidate_cache(name, dataset)
            self._durable(
                "result_table", owner=owner, name=name,
                columns=[[col_name, col_type.value]
                         for col_name, col_type in columns],
                rows=[list(row) for row in rows],
                timestamp=moment)
        return dataset

    def delete_dataset(self, owner, name):
        """Delete a dataset (the daily upload-process-download-delete loop).

        Dependent views are left in place — they fail at query time, exactly
        as in the deployed system.
        """
        with self._state_lock:
            dataset = self.dataset(name)
            if dataset.owner != owner:
                raise PermissionError_("only the owner may delete %r" % name)
            self._drop_dataset(dataset)
            self._durable("delete_dataset", owner=owner, name=name)

    def _drop_dataset(self, dataset):
        """Remove a dataset, its view, base table, grants and cached results
        (call with ``_state_lock`` held)."""
        name = dataset.name
        self._invalidate_cache(name, dataset)
        self.db.catalog.drop_view(name, if_exists=True)
        if dataset.base_table:
            self.db.catalog.drop_table(dataset.base_table, if_exists=True)
        self.permissions.forget(name)
        del self.datasets[name.lower()]

    def _mint_base_table(self, name):
        self._table_seq += 1
        return "t_%05d_%s" % (self._table_seq, _safe(name))

    def _wrap_base_table(self, name, owner, kind, base_table, existing=None,
                         **fields):
        """Point the trivial wrapper view ``SELECT * FROM <base>`` at a
        filled base table, so that "everything is a dataset" and novice
        users always have an example query to edit (§3.2).  Registers and
        returns a new ``kind`` Dataset — or, with ``existing``
        (materialize-in-place), repoints that record's view and keeps its
        identity.  Call with ``_state_lock`` held."""
        wrapper_sql = "SELECT * FROM %s" % base_table
        self.db.create_view(name, sql_parser.parse(wrapper_sql),
                            sql=wrapper_sql, replace=existing is not None)
        if existing is not None:
            existing.base_table = base_table
            return existing
        dataset = Dataset(name, owner, wrapper_sql, kind,
                          base_table=base_table, **fields)
        self.datasets[name.lower()] = dataset
        return dataset

    def _snapshot(self, source_name, name):
        """Copy a dataset's current rows into a fresh base table minted for
        ``name``; returns the table's name.

        Runs under the caller's ``_state_lock`` on purpose: the snapshot
        read must be atomic with the source's current definition —
        dropping the lock between this SELECT and the caller's CREATE could
        snapshot one version of the view and record another.
        Materializing is rare and explicitly heavy."""
        source_sql = "SELECT * FROM %s" % quote_ident(source_name)
        result = self.db.execute(source_sql)
        columns = [Column(col_name, col_type)
                   for col_name, col_type in self.db.query_schema(source_sql)]
        base_table = self._mint_base_table(name)
        self.db.create_table_from_rows(base_table, columns, result.rows)
        return base_table

    # -- querying ------------------------------------------------------------------

    def run_query(self, user, sql, timestamp=None, source="webui", log_errors=False,
                  cancellation=None, log_extra=None, trace=None, profile=False,
                  prepared=None):
        """Execute a read-only query as ``user``, enforcing permissions.

        Every successful execution is appended to the query log with its
        referenced datasets and the optimizer's cost estimate.

        ``cancellation`` is an optional token the executor polls so the
        runtime can cancel/time out work mid-scan.  When a result cache is
        attached (``self.result_cache``) the query is served from it on a
        version-vector match; permission checks run either way.
        ``log_extra`` merges extra structured fields (scheduler outcome and
        queue time) into the query-log record.  ``trace`` threads a
        :class:`repro.obs.tracing.Trace` into the engine's phase spans;
        ``profile=True`` records per-operator actuals
        (``result.profile``), bypassing the cache.  ``prepared`` is the
        statement's :class:`~repro.engine.prepared.PreparedStatement` when
        the caller (the scheduler) already holds one; otherwise the text
        is prepared here — either way it is parsed at most once.

        Every failure — wherever it surfaces — is counted once in the
        ``repro_queries_failed_total`` metric under its taxonomy class.
        """
        moment = self._now(timestamp)
        started = time.perf_counter()
        try:
            prepared = self._prepare_query(sql, prepared, trace)
            referenced = self._check_names_access(user, prepared.names)
            result = self.db.execute(
                sql, cancellation=cancellation, cache=self.result_cache,
                trace=trace, profile=profile, prepared=prepared)
        except Exception as exc:
            error_class = classify_error(exc)
            self.metrics.counter(
                "repro_queries_failed_total",
                "Failed queries by error taxonomy class.",
            ).labels(error_class=error_class).inc()
            if log_errors:
                self.log.record(user, sql, timestamp=moment, error=str(exc),
                                error_class=error_class, source=source)
            raise
        info = result.info
        extra = dict(log_extra or {})
        extra.setdefault("exec_seconds", round(time.perf_counter() - started, 6))
        extra.setdefault("cache_hit", result.cache_hit)
        self.log.record(
            user, sql, timestamp=moment,
            datasets=referenced,
            tables=sorted(info.tables),
            columns=sorted(info.columns),
            views=sorted(info.views),
            runtime=result.plan.total_cost,
            row_count=len(result.rows),
            source=source,
            **extra
        )
        return result

    def explain_query(self, user, sql):
        """Plan a query (permission-checked) without executing it."""
        prepared = self._prepare_query(sql)
        self._check_names_access(user, prepared.names)
        return self.db.explain(sql, prepared=prepared)

    def preview(self, user, name):
        """The dataset's first ``PREVIEW_ROWS`` rows as ``(columns, rows)``.

        A preview is derived state (§3.3): ``SELECT TOP 100`` over the
        dataset, read through the result cache when one is attached.  Cache
        entries are keyed by the catalog versions they read, so a preview
        is never stale, and an unchanged dataset is not re-run.  Without a
        cache every call runs the query.  The read is permission-checked
        and is not written to the query log; a dataset whose query no
        longer runs (a dependent of a deleted dataset) raises the engine's
        error.
        """
        self.permissions.check_access(user, name)
        dataset = self.dataset(name)
        result = self.db.execute(
            "SELECT TOP %d * FROM %s" % (PREVIEW_ROWS, quote_ident(dataset.name)),
            cache=self.result_cache)
        return result.columns, result.rows

    def download(self, user, name, timestamp=None):
        """Full results — the one path that must actually run the query (§3.3)."""
        return self.run_query(
            user, "SELECT * FROM %s" % quote_ident(name), timestamp=timestamp,
            source="rest",
        )

    def _prepare_query(self, sql, prepared=None, trace=None):
        """The prepared statement for user-supplied SQL, which must parse
        and must be a query."""
        if prepared is None:
            prepared = self.db.prepare(sql, trace=trace)
        if prepared.error is not None:
            raise prepared.error
        if not prepared.is_query:
            raise PermissionError_(
                "users may not run DDL statements; save a query as a dataset instead"
            )
        return prepared

    def _check_names_access(self, user, names):
        referenced = []
        for name in names:
            if self.has_dataset(name):
                self.permissions.check_access(user, name)
                referenced.append(self.dataset(name).name)
            elif self.db.catalog.has_table(name):
                raise PermissionError_(
                    "%r is an internal table; query its dataset instead" % name
                )
            # Unknown names fall through to the engine's CatalogError.
        return referenced

    # -- sharing ----------------------------------------------------------------------

    def make_public(self, owner, name):
        with self._state_lock:
            self._require_owner(owner, name)
            self.permissions.make_public(name)
            self._durable("make_public", owner=owner, name=name)

    def make_private(self, owner, name):
        with self._state_lock:
            self._require_owner(owner, name)
            self.permissions.make_private(name)
            self._durable("make_private", owner=owner, name=name)

    def share(self, owner, name, user):
        with self._state_lock:
            self._require_owner(owner, name)
            self.permissions.share(name, user)
            self._durable("share", owner=owner, name=name, user=user)

    def unshare(self, owner, name, user):
        with self._state_lock:
            self._require_owner(owner, name)
            self.permissions.unshare(name, user)
            self._durable("unshare", owner=owner, name=name, user=user)

    def visibility(self, name):
        self.dataset(name)
        return self.permissions.visibility(name)

    def _require_owner(self, owner, name):
        dataset = self.dataset(name)
        if dataset.owner != owner:
            raise PermissionError_(
                "only the owner of %r may change its permissions" % name
            )

    # -- metadata ------------------------------------------------------------------------

    def set_description(self, owner, name, description):
        with self._state_lock:
            self._require_owner(owner, name)
            self.dataset(name).metadata.description = description
            self._durable("set_description", owner=owner, name=name,
                          description=description)

    def add_tags(self, owner, name, tags):
        with self._state_lock:
            self._require_owner(owner, name)
            self.dataset(name).metadata.tags.update(tags)
            self._durable("add_tags", owner=owner, name=name, tags=sorted(tags))

    def find_by_tag(self, tag):
        return [
            dataset for dataset in self.all_datasets()
            if tag in dataset.metadata.tags
        ]

    def mint_doi(self, owner, name):
        """Assign a DOI-like identifier (the data-publishing use case, §5.2)."""
        with self._state_lock:
            self._require_owner(owner, name)
            dataset = self.dataset(name)
            if dataset.doi is None:
                dataset.doi = "10.5072/sqlshare.%s" % _safe(name).lower()
                self._durable("mint_doi", owner=owner, name=name)
            return dataset.doi

    # -- statistics used throughout Sections 5/6 -----------------------------------------

    def total_bytes(self):
        return self.db.total_bytes()

    def summary(self):
        """Table 2a-style counts for this deployment."""
        derived = sum(1 for d in self.all_datasets() if d.is_derived)
        column_count = 0
        for table in self.db.catalog.tables():
            column_count += len(table.columns)
        return {
            "users": len(self.users()),
            "tables": len(self.db.catalog.tables()),
            "columns": column_count,
            "datasets": len(self.datasets),
            "derived_views": derived,
            "queries": len(self.log),
        }


def _safe(name):
    return re.sub(r"[^0-9a-zA-Z_]+", "_", name).strip("_") or "dataset"
