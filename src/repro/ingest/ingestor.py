"""The ingest pipeline: staged text file -> base table in the engine.

Implements the full §3.1 behaviour:

- format inference (delimiters, header detection);
- default column names when the source supplies none (~50% of uploads in
  the paper had at least one default-named column);
- ragged rows padded with NULL, extra columns created for the longest row
  (9% of the paper's datasets used this);
- prefix type inference with the ALTER-to-string fallback when a later row
  breaks the inferred type.
"""

import re

from repro.engine.catalog import Column
from repro.engine.types import SQLType
from repro.errors import IngestError
from repro.ingest import delimiters, type_inference

#: Default name template for unnamed columns ("column1", "column2", ...).
DEFAULT_COLUMN_TEMPLATE = "column%d"

_IDENT_RE = re.compile(r"[^0-9a-zA-Z_]+")


class IngestReport(object):
    """What happened during one ingest — the raw material for §5.1 stats."""

    def __init__(self, table_name):
        self.table_name = table_name
        self.row_count = 0
        self.column_count = 0
        #: Columns that received a default ("columnN") name.
        self.defaulted_columns = []
        #: Columns reverted to VARCHAR after a late type mismatch.
        self.reverted_columns = []
        #: Inferred format.
        self.format = None
        #: Inferred (final) column types by name.
        self.column_types = {}
        #: True when at least one row needed NULL padding / new columns.
        self.ragged = False

    @property
    def used_default_names(self):
        return bool(self.defaulted_columns)

    @property
    def all_names_defaulted(self):
        return self.column_count > 0 and len(self.defaulted_columns) == self.column_count


class Ingestor(object):
    """Ingests staged files into a :class:`repro.engine.database.Database`."""

    def __init__(self, database, prefix_records=type_inference.DEFAULT_PREFIX_RECORDS,
                 format_prefix_rows=delimiters.DEFAULT_PREFIX_ROWS):
        self.database = database
        self.prefix_records = prefix_records
        self.format_prefix_rows = format_prefix_rows

    def ingest_text(self, table_name, text):
        """Parse delimited text and create base table ``table_name``.

        Returns an :class:`IngestReport`.  Raises :class:`IngestError` on
        unusable input; the caller (platform) retries from staging.
        """
        report = IngestReport(table_name)
        fmt = delimiters.infer_format(text, prefix_rows=self.format_prefix_rows)
        report.format = fmt
        records = delimiters.read_records(text, fmt.field_delimiter)
        if fmt.has_header:
            header, records = records[0], records[1:]
        else:
            header = []
        if not records:
            raise IngestError("file %r contains no data rows" % table_name)
        width = max(len(record) for record in records)
        width = max(width, len(header))
        if any(len(record) != width for record in records):
            report.ragged = True
        records = [self._pad(record, width) for record in records]
        names = self._column_names(header, width, report)
        types = type_inference.infer_column_types(
            records, width, prefix_records=self.prefix_records
        )
        rows, final_types = self._convert_rows(records, types, report, names)
        columns = [Column(name, sql_type) for name, sql_type in zip(names, final_types)]
        self.database.create_table_from_rows(table_name, columns, rows)
        report.row_count = len(rows)
        report.column_count = width
        report.column_types = dict(zip(names, final_types))
        return report

    @staticmethod
    def _pad(record, width):
        if len(record) < width:
            return record + [None] * (width - len(record))
        if len(record) > width:
            return record[:width]
        return record

    def _column_names(self, header, width, report):
        names = []
        seen = set()
        for index in range(width):
            raw = header[index].strip() if index < len(header) else ""
            name = _sanitize(raw)
            if not name:
                name = DEFAULT_COLUMN_TEMPLATE % (index + 1)
                report.defaulted_columns.append(name)
            base = name
            suffix = 2
            while name.lower() in seen:
                name = "%s_%d" % (base, suffix)
                suffix += 1
            seen.add(name.lower())
            names.append(name)
        return names

    def _convert_rows(self, records, types, report, names):
        """Convert raw strings to typed values, reverting columns on failure.

        Mirrors the paper's backend behaviour: a conversion failure past the
        inference prefix raises inside the database; the ingest layer
        responds with ALTER TABLE to VARCHAR and re-converts the column.
        Here the table is not yet created, so the revert rewrites the
        already-converted prefix in place — observable as the same outcome.
        """
        types = list(types)
        rows = []
        for record in records:
            row = []
            for index, raw in enumerate(record):
                try:
                    row.append(type_inference.convert_field(raw, types[index]))
                except ValueError:
                    # Late mismatch: revert this column to VARCHAR.
                    types[index] = SQLType.VARCHAR
                    report.reverted_columns.append(names[index])
                    _revert_column(rows, index)
                    row.append(type_inference.convert_field(raw, SQLType.VARCHAR))
            rows.append(tuple(row))
        return rows, types

    def reingest_with_alter(self, table_name, column_name):
        """Explicit ALTER-to-string path for an existing table (REST API)."""
        self.database.execute(
            "ALTER TABLE %s ALTER COLUMN %s varchar" % (table_name, column_name)
        )


def _revert_column(rows, index):
    from repro.engine.types import format_value

    for position, row in enumerate(rows):
        value = row[index]
        rows[position] = row[:index] + (format_value(value),) + row[index + 1 :]


def _sanitize(raw):
    """Make a header cell usable as a column name (empty when hopeless)."""
    cleaned = _IDENT_RE.sub("_", raw).strip("_")
    if not cleaned:
        return ""
    if cleaned[0].isdigit():
        cleaned = "c_" + cleaned
    return cleaned
