"""System catalog: table schemas, view definitions, statistics.

Mirrors the paper's backend constraints where they matter to the analysis:
every base table carries a clustered index over *all* columns in column
order (the SQL Azure requirement noted in Section 3.4), which is why scans
surface as ``Clustered Index Scan`` and leading-column predicates as
``Clustered Index Seek`` in plans.
"""

import random
import threading
from itertools import islice
from operator import itemgetter

from repro.engine.types import TYPE_WIDTH, column_width
from repro.errors import CatalogError


class Column(object):
    """A named, typed column of a table or view output."""

    __slots__ = ("name", "sql_type")

    def __init__(self, name, sql_type):
        self.name = name
        self.sql_type = sql_type

    def __repr__(self):
        return "Column(%r, %s)" % (self.name, self.sql_type.value)

    def __eq__(self, other):
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.sql_type == other.sql_type
        )

    def __hash__(self):
        return hash((self.name, self.sql_type))


class TableStatistics(object):
    """Cheap per-table statistics driving cardinality estimation.

    A pure function of a table's rows, derived on first use rather than
    maintained per insert.  It reads the first ``row_count`` rows of
    ``rows`` (a consistent prefix: a writer appending meanwhile cannot tear
    it) and computes each figure the first time the planner asks for it:
    the average row width, and per column the distinct count and a numeric
    value sample for range selectivity.  Only counts and samples are kept,
    never a copy of the rows.  :attr:`Table.stats` keeps one instance while
    the table's rows are unchanged.
    """

    DISTINCT_CAP = 10000
    SAMPLE_CAP = 400

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        self.rows = rows
        self.row_count = len(rows)
        self._total_width = None
        self._distinct = {}  # column name -> exact distinct count
        self._samples = {}  # column name -> list of floats

    def _values(self, column_name):
        """The column's values over the prefix (none for an unknown name)."""
        for index, column in enumerate(self.columns):
            if column.name == column_name:
                return map(itemgetter(index), islice(self.rows, self.row_count))
        return ()

    def sample(self, column_name):
        """The column's numeric values: all of them up to ``SAMPLE_CAP``, a
        seeded uniform sample of that size above it (so repeated builds
        over the same rows estimate identically)."""
        sample = self._samples.get(column_name)
        if sample is None:
            sample = [float(value) for value in self._values(column_name)
                      if isinstance(value, (int, float))
                      and not isinstance(value, bool)]
            if len(sample) > self.SAMPLE_CAP:
                sample = random.Random(0).sample(sample, self.SAMPLE_CAP)
            self._samples[column_name] = sample
        return sample

    def range_selectivity(self, column_name, op, literal):
        """Estimated selectivity of ``column <op> literal`` from the sample.

        Returns None when the column has no usable numeric sample (callers
        fall back to the optimizer's magic default).
        """
        sample = self.sample(column_name)
        if not sample:
            return None
        try:
            bound = float(literal)
        except (TypeError, ValueError):
            return None
        if op == "<":
            hits = sum(1 for v in sample if v < bound)
        elif op == "<=":
            hits = sum(1 for v in sample if v <= bound)
        elif op == ">":
            hits = sum(1 for v in sample if v > bound)
        elif op == ">=":
            hits = sum(1 for v in sample if v >= bound)
        elif op == "<>":
            hits = sum(1 for v in sample if v != bound)
        else:
            return None
        # Clamp away 0 and 1 so downstream cardinalities never collapse.
        return min(0.999, max(1.0 / (len(sample) * 2.0), hits / float(len(sample))))

    def distinct_count(self, column_name):
        """Estimated number of distinct values in a column (>= 1)."""
        count = self._distinct.get(column_name)
        if count is None:
            count = self._distinct[column_name] = len(set(self._values(column_name)))
        if count > self.DISTINCT_CAP:
            # Saturated: assume high cardinality proportional to rows.
            return max(self.DISTINCT_CAP, int(self.row_count * 0.9))
        return max(1, count)

    def avg_row_width(self, columns):
        if not self.row_count:
            return float(sum(TYPE_WIDTH[c.sql_type] for c in columns)) or 8.0
        if self._total_width is None:
            self._total_width = sum(
                column_width(self._values(column.name), column.sql_type)
                for column in self.columns
            )
        return max(1.0, self._total_width / float(self.row_count))


class Table(object):
    """A base table: schema, row storage and statistics.

    Rows are tuples aligned with ``columns``.  The clustered index is
    modelled as the sort order over all columns; we keep insertion order
    and expose ``clustered_prefix`` for the planner's seek detection.
    """

    def __init__(self, name, columns, rows=()):
        if not columns:
            raise CatalogError("table %r must have at least one column" % name)
        seen = set()
        for column in columns:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(
                    "duplicate column %r in table %r" % (column.name, name)
                )
            seen.add(key)
        self.name = name
        self.columns = list(columns)
        self.rows = [tuple(row) for row in rows]
        for row in self.rows:
            self._check_arity(row)
        self._stats = None
        #: Advisor-chosen clustered-index column (None = default first column).
        #: Soft state: not WAL-logged, so a recovered deployment reverts to
        #: the default ordering until the advisor re-applies it.
        self.clustered_on = None
        #: Sorted key column for the seek bisect fast path; only valid while
        #: ``_cluster_sorted`` holds (any insert invalidates it).
        self._cluster_keys = None
        self._cluster_lo = 0  # index of first non-NULL key
        self._cluster_sorted = False

    @property
    def stats(self):
        """Statistics over the current rows, derived when first asked.

        Valid while ``rows`` is the same list at the same length: an insert
        changes the length, and ALTER and :meth:`recluster` rebind ``rows``,
        so no write path needs to invalidate anything.
        """
        rows = self.rows
        memo = self._stats
        if memo is None or memo.rows is not rows or memo.row_count != len(rows):
            memo = self._stats = TableStatistics(self.columns, rows)
        return memo

    @property
    def clustered_prefix(self):
        """Leading column of the clustered index (first column by design,
        unless :meth:`recluster` moved it)."""
        return self.clustered_on or self.columns[0].name

    def recluster(self, column_name):
        """Re-sort row storage so ``column_name`` leads the clustered index.

        This is the engine half of the advisor's "create index" action: SQL
        Azure mandates exactly one clustered index per table (§3.4), so the
        only index the advisor can offer is a *different* clustered order.
        Rows are stably sorted NULLs-first by the column; afterwards sargable
        predicates on it plan as seeks and execute via a bisect fast path.
        """
        index = self.column_index(column_name)

        def sort_key(row):
            value = row[index]
            return (value is not None, value)

        try:
            self.rows = sorted(self.rows, key=sort_key)
        except TypeError:
            raise CatalogError(
                "cannot recluster %r on %r: mixed-type values do not sort"
                % (self.name, column_name)
            )
        self.clustered_on = self.columns[index].name
        keys = [row[index] for row in self.rows]
        lo = 0
        while lo < len(keys) and keys[lo] is None:
            lo += 1
        self._cluster_keys = keys
        self._cluster_lo = lo
        self._cluster_sorted = True

    def _invalidate_cluster_order(self):
        self._cluster_keys = None
        self._cluster_lo = 0
        self._cluster_sorted = False

    def column_index(self, name):
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError("no column %r in table %r" % (name, self.name))

    def _check_arity(self, row):
        if len(row) != len(self.columns):
            raise CatalogError(
                "row arity %d does not match table %r arity %d"
                % (len(row), self.name, len(self.columns))
            )

    def insert_row(self, row):
        self._check_arity(row)
        self.rows.append(tuple(row))
        if self._cluster_sorted:
            self._invalidate_cluster_order()

    def alter_column_type(self, column_name, new_type, convert):
        """Retype a column in place, converting stored values with ``convert``.

        Used by the ingest fallback: when the prefix-inferred type fails on a
        later row, the column reverts to VARCHAR via ALTER TABLE (§3.1).
        """
        index = self.column_index(column_name)
        old = self.columns[index]
        self.columns[index] = Column(old.name, new_type)
        self.rows = [
            row[:index] + (convert(row[index]),) + row[index + 1 :] for row in self.rows
        ]
        self._invalidate_cluster_order()


class View(object):
    """A named view: raw SQL text plus its parsed query and output schema."""

    def __init__(self, name, sql, query, columns):
        self.name = name
        self.sql = sql
        self.query = query
        self.columns = list(columns)


class Catalog(object):
    """Name-to-object map for tables and views (case-insensitive).

    Thread-safe for concurrent readers and DDL writers: all dictionary
    access goes through an RLock, and ``tables()``/``views()`` return
    snapshots so callers never iterate a dict being resized.  Row storage
    itself is copy-on-write-ish: readers that obtained a Table keep a
    consistent row list even while ALTER rebuilds it (the rebuild rebinds
    ``table.rows`` rather than mutating in place).

    Every object also carries a monotonically increasing *version*,
    bumped on any DDL or DML that can change its contents (CREATE, DROP,
    INSERT, ALTER, view redefinition).  Versions survive DROP so a
    re-created object never reuses an old version — the runtime's result
    cache keys on (name, version) vectors and relies on this.
    """

    def __init__(self):
        self._tables = {}
        self._views = {}
        self._versions = {}  # lower-cased name -> int (monotonic, survives drop)
        self._lock = threading.RLock()

    # -- versions -------------------------------------------------------------

    def bump_version(self, name):
        """Record that ``name``'s contents changed; returns the new version."""
        key = name.lower()
        with self._lock:
            version = self._versions.get(key, 0) + 1
            self._versions[key] = version
            return version

    def version_of(self, name):
        """Current version of an object (0 if it never existed)."""
        return self._versions.get(name.lower(), 0)

    def all_versions(self):
        """Snapshot of the whole version map (durability serialization)."""
        with self._lock:
            return dict(self._versions)

    def restore_versions(self, mapping):
        """Merge a persisted version map, keeping whichever is higher —
        adoption during restore already bumped once per object, and a
        version must never move backwards."""
        with self._lock:
            for key, version in mapping.items():
                if version > self._versions.get(key, 0):
                    self._versions[key] = version

    def bump_all_versions(self):
        """Advance *every* known version by one (the recovery epoch bump).

        Any version vector stamped before the bump — e.g. by a result
        cache that survived the crash in some form — can no longer match,
        so recovered deployments are structurally unable to serve
        pre-crash cached results.  Returns the number of versions bumped.
        """
        with self._lock:
            for key in self._versions:
                self._versions[key] += 1
            return len(self._versions)

    # -- tables ---------------------------------------------------------------

    def create_table(self, name, columns, rows=()):
        """Create and publish a table holding ``rows`` (built before it is
        visible, so readers never see it half loaded)."""
        key = name.lower()
        table = Table(name, columns, rows)
        with self._lock:
            if key in self._tables or key in self._views:
                raise CatalogError("object %r already exists" % name)
            self._tables[key] = table
            self.bump_version(name)
            return table

    def drop_table(self, name, if_exists=False):
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return
                raise CatalogError("no table named %r" % name)
            del self._tables[key]
            self.bump_version(name)

    def get_table(self, name):
        with self._lock:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError("no table named %r" % name)

    def has_table(self, name):
        with self._lock:
            return name.lower() in self._tables

    def tables(self):
        with self._lock:
            return list(self._tables.values())

    def adopt_table(self, table):
        """Install an already-built Table during state restore.

        Unlike :meth:`create_table` this neither re-checks existence (the
        restoring catalog is empty by construction) nor leaves the version
        at the insert default — the caller restores the persisted version
        map afterwards."""
        with self._lock:
            self._tables[table.name.lower()] = table
            self.bump_version(table.name)
            return table

    # -- views ----------------------------------------------------------------

    def create_view(self, name, sql, query, columns, replace=False):
        key = name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError("a table named %r already exists" % name)
            if key in self._views and not replace:
                raise CatalogError("a view named %r already exists" % name)
            view = View(name, sql, query, columns)
            self._views[key] = view
            self.bump_version(name)
            return view

    def drop_view(self, name, if_exists=False):
        key = name.lower()
        with self._lock:
            if key not in self._views:
                if if_exists:
                    return
                raise CatalogError("no view named %r" % name)
            del self._views[key]
            self.bump_version(name)

    def get_view(self, name):
        with self._lock:
            try:
                return self._views[name.lower()]
            except KeyError:
                raise CatalogError("no view named %r" % name)

    def has_view(self, name):
        with self._lock:
            return name.lower() in self._views

    def views(self):
        with self._lock:
            return list(self._views.values())

    def adopt_view(self, view):
        """Install an already-built View during state restore (see
        :meth:`adopt_table`)."""
        with self._lock:
            self._views[view.name.lower()] = view
            self.bump_version(view.name)
            return view

    # -- generic --------------------------------------------------------------

    def has_object(self, name):
        with self._lock:
            return self.has_table(name) or self.has_view(name)

    def resolve(self, name):
        """Return ``(kind, object, version)`` for a name — ``kind`` is
        'table' or 'view' — with the version read under the same lock as
        the object, so the pair is one consistent reading."""
        key = name.lower()
        with self._lock:
            version = self._versions.get(key, 0)
            if key in self._tables:
                return "table", self._tables[key], version
            if key in self._views:
                return "view", self._views[key], version
        raise CatalogError("no table or view named %r" % name)
