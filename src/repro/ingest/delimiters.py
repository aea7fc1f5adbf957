"""Format inference: find row/field delimiters that parse consistently.

Per the paper: "To infer the format, we consider various row and column
delimiter values until the first N rows can be parsed with identical column
counts."  Records are read by :mod:`csv`, so a quoted field (``"a,b"``)
may hold the field delimiter, doubled quotes and line breaks: science CSVs
routinely quote free-text note columns.
"""

import csv
import io
import itertools

from repro.errors import IngestError

#: Candidate field delimiters, most common first.
FIELD_DELIMITERS = (",", "\t", ";", "|", " ")
#: Candidate row delimiters.
ROW_DELIMITERS = ("\r\n", "\n", "\r")
#: Rows inspected when inferring the format.
DEFAULT_PREFIX_ROWS = 20

# csv refuses fields over 128 KiB by default; a field of an uploaded file
# (a free-text note, a sequence) may be as long as the file.
csv.field_size_limit(2 ** 31 - 1)


class FormatGuess(object):
    """An inferred file format."""

    __slots__ = ("field_delimiter", "row_delimiter", "column_count", "has_header")

    def __init__(self, field_delimiter, row_delimiter, column_count, has_header):
        self.field_delimiter = field_delimiter
        self.row_delimiter = row_delimiter
        self.column_count = column_count
        self.has_header = has_header

    def __repr__(self):
        return "FormatGuess(field=%r, row=%r, columns=%d, header=%s)" % (
            self.field_delimiter,
            self.row_delimiter,
            self.column_count,
            self.has_header,
        )


def read_records(text, field_delimiter, limit=None):
    """The records of ``text`` as lists of fields (the first ``limit``).

    ``csv.reader`` does the reading: a record ends at a CRLF, LF or CR
    outside quotes, and a leading byte-order mark is dropped.
    Trailing blank lines are dropped; any other blank line is one empty
    field.  With the space delimiter, runs of spaces separate fields and
    leading or trailing spaces make none.  Raises :class:`IngestError`
    when ``csv`` cannot read the text.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=field_delimiter)
    try:
        records = list(itertools.islice(reader, limit))
    except csv.Error as error:
        raise IngestError("line %d: %s" % (reader.line_num, error))
    while records and not records[-1]:
        records.pop()
    if field_delimiter == " ":
        records = [[field for field in record if field] for record in records]
    return [record or [""] for record in records]


def infer_format(text, prefix_rows=DEFAULT_PREFIX_ROWS):
    """Infer (row delimiter, field delimiter) for a delimited text file.

    Tries every candidate pair and keeps the first one whose first
    ``prefix_rows`` rows parse with identical column counts > 1; if no pair
    yields more than one column, the file is treated as single-column.
    Raises :class:`IngestError` on empty input.
    """
    if not text.lstrip("\ufeff").strip():
        raise IngestError("cannot infer format of an empty file")
    row_delimiter = _pick_row_delimiter(text)
    best = None
    for delimiter in FIELD_DELIMITERS:
        records = read_records(text, delimiter, prefix_rows)
        counts = [len(record) for record in records]
        widest = max(counts)
        if widest <= 1:
            continue
        if all(count == counts[0] for count in counts):
            # The paper's rule: identical column counts across the prefix.
            best = (delimiter, counts[0], 1.0, records)
            break
        # Ragged near-miss: prefer the delimiter that splits the largest
        # share of records (a share, since a delimiter that breaks quoted
        # line breaks reads more, shorter records); width accommodates the
        # longest row (§3.1's extra-column rule).
        consistency = sum(1 for count in counts if count > 1) / len(counts)
        candidate = (delimiter, widest, consistency, records)
        if best is None or consistency > best[2]:
            best = candidate
    if best is None:
        # Single-column file.
        return FormatGuess("\x1f", row_delimiter, 1,
                           _looks_like_header(read_records(text, "\x1f", 1)))
    delimiter, width, _consistency, records = best
    return FormatGuess(delimiter, row_delimiter, width, _looks_like_header(records))


def _pick_row_delimiter(text):
    for candidate in ROW_DELIMITERS:
        if candidate in text:
            return candidate
    return "\n"


def _looks_like_header(records):
    """Header heuristic: first row is all non-numeric, non-empty and some
    later row has at least one numeric field (so the file isn't all text,
    in which case we cannot tell and assume no header only if repeated)."""
    if not records:
        return False
    non_empty = [field for field in records[0] if field.strip()]
    # Partially-named headers are common in science uploads; an empty cell
    # does not disqualify the row, but an all-empty or numeric one does.
    if not non_empty:
        return False
    if any(_is_number(field) for field in non_empty):
        return False
    if len(records) == 1:
        return True
    for record in records[1:]:
        if any(_is_number(field) for field in record):
            return True
    # All-text file: a header is indistinguishable; assume the first row is
    # data unless it is unique-ish (appears once).
    return records.count(records[0]) == 1


def _is_number(text):
    try:
        float(text.strip())
        return True
    except ValueError:
        return False
