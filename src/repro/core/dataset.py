"""Datasets: the platform's single user-facing abstraction.

"Each dataset in SQLShare is a 3-tuple (sql, metadata, preview), where sql
is a SQL query, metadata consists of a short name, a long description, and
a set of tags, and preview is the first 100 rows of the dataset." (§3.2)

Only the first two are stored.  The preview is derived from the sql on
demand (:meth:`repro.core.sqlshare.SQLShare.preview`) through the
versioned result cache, so it follows every change to the dataset and to
the datasets its query reads.
"""

PREVIEW_ROWS = 100


class DatasetMetadata(object):
    """Short name, long description and keyword tags."""

    __slots__ = ("name", "description", "tags")

    def __init__(self, name, description="", tags=None):
        self.name = name
        self.description = description
        self.tags = set(tags or [])

    def __repr__(self):
        return "DatasetMetadata(%r, tags=%s)" % (self.name, sorted(self.tags))


class Dataset(object):
    """One dataset: a view plus metadata and provenance links.

    ``kind`` is ``"wrapper"`` for the trivial view created over an uploaded
    base table, ``"derived"`` for user-saved queries, and ``"snapshot"`` for
    materialized copies.  ``derived_from`` lists the dataset names the
    view's query references directly — the provenance edge set.
    """

    __slots__ = (
        "metadata",
        "owner",
        "sql",
        "kind",
        "base_table",
        "derived_from",
        "created_at",
        "doi",
    )

    def __init__(self, name, owner, sql, kind, base_table=None, derived_from=None,
                 created_at=None, description="", tags=None):
        self.metadata = DatasetMetadata(name, description, tags)
        self.owner = owner
        self.sql = sql
        self.kind = kind
        self.base_table = base_table
        self.derived_from = list(derived_from or [])
        self.created_at = created_at
        self.doi = None

    @property
    def name(self):
        return self.metadata.name

    @property
    def is_wrapper(self):
        return self.kind == "wrapper"

    @property
    def is_derived(self):
        """Non-trivial views, the ones §4 restricts the analysis to."""
        return self.kind == "derived"

    def set_preview(self, columns, rows):
        """Store nothing: previews are derived on read, not kept here.

        Kept because ``benchmarks/e2e/workloads.py`` blanks every preview
        this way before it compares state digests.
        """

    def __repr__(self):
        return "Dataset(%r, owner=%r, kind=%s)" % (self.name, self.owner, self.kind)
