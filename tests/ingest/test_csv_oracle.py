"""Differential test of the uploader against the stdlib ``csv`` module.

Seeded dirty files (quoted delimiters and line breaks, doubled quotes,
CRLF, ragged rows, blank lines, late type breaks, a byte-order mark) are
uploaded through the ingestor and read by ``csv.reader`` in the same
dialect.  The table must hold exactly ``csv``'s records, field by field:
one row per record, short records padded with NULL, and each cell the
record's field as the ingestor types it (NULL tokens become NULL, other
fields are trimmed, typed values read back as the text they came from).
"""

import csv
import io
import random

import pytest

from repro.engine.database import Database
from repro.engine.types import format_value
from repro.ingest.ingestor import Ingestor
from repro.ingest.type_inference import DEFAULT_PREFIX_RECORDS, is_null_token

SEEDS = range(40)
WORDS = ("clear", "turbid", "low tide", "n/a", "", "ST-7")


def _cell(rng, kind, delimiter):
    if rng.random() < 0.05:
        return ""
    if kind == "int":
        return str(rng.randint(-50, 900))
    if kind == "float":
        return "%d.%d%d" % (rng.randint(0, 20), rng.randint(0, 9), rng.randint(1, 9))
    if kind == "date":
        return "2013-%02d-%02d" % (rng.randint(1, 12), rng.randint(1, 28))
    if rng.random() < 0.6:
        return rng.choice(WORDS)
    inner = rng.choice([
        "low, turbid".replace(",", delimiter),
        "line one\nline two",
        "line one\r\nline two",
        'say "hi"',
        delimiter,
        "\n",
        "ends with a break\n",
    ])
    return '"%s"' % inner.replace('"', '""')


def _dirty_file(seed):
    """(text, field delimiter) of one seeded upload."""
    rng = random.Random(seed)
    delimiter = rng.choice([",", "\t", ";", "|"])
    newline = rng.choice(["\n", "\r\n"])
    kinds = [rng.choice(["int", "float", "date", "text"])
             for _ in range(rng.randint(2, 6))]
    lines = [delimiter.join("col_%s_%d" % (kind, index)
                            for index, kind in enumerate(kinds))]
    count = rng.choice([12, 40, DEFAULT_PREFIX_RECORDS + 30])
    for _ in range(count):
        cells = [_cell(rng, kind, delimiter) for kind in kinds]
        roll = rng.random()
        if roll < 0.08:
            cells = cells[:rng.randint(1, len(cells) - 1)]   # ragged: short
        elif roll < 0.12:
            cells.append(_cell(rng, "text", delimiter))       # ragged: long
        elif roll < 0.14:
            cells = []                                        # blank line
        lines.append(delimiter.join(cells))
    if count > DEFAULT_PREFIX_RECORDS:
        # A late value that breaks the type the prefix inferred.
        lines[-1] = delimiter.join(["unknown"] * len(kinds))
    text = newline.join(lines) + rng.choice([newline, "", newline * 2])
    if rng.random() < 0.25:
        text = "\ufeff" + text
    return text, delimiter


def _oracle(text, delimiter):
    """``csv``'s records of the file, read as UTF-8 with signature."""
    decoded = text.encode("utf-8").decode("utf-8-sig")
    records = list(csv.reader(io.StringIO(decoded, newline=""),
                              delimiter=delimiter))
    while records and not records[-1]:
        records.pop()
    return records


def _expected_cell(field):
    return None if is_null_token(field) else field.strip()


@pytest.mark.parametrize("seed", SEEDS)
def test_uploader_reads_the_records_csv_reads(seed):
    text, delimiter = _dirty_file(seed)
    db = Database()
    report = Ingestor(db).ingest_text("t", text)
    assert report.format.field_delimiter == delimiter
    assert report.format.has_header
    header, *records = _oracle(text, delimiter)
    width = report.column_count
    assert width == max(len(header), *(len(record) for record in records))
    expected = [
        [_expected_cell(field) for field in record] + [None] * (width - len(record))
        for record in records
    ]
    rows = db.execute("SELECT * FROM t").rows
    assert [[format_value(value) for value in row] for row in rows] == expected


def test_quoted_newline_is_one_record():
    db = Database()
    report = Ingestor(db).ingest_text("t", 'id,note\n1,"a\nb"\n2,c\n')
    assert report.column_types["id"].value == "int"
    assert db.execute("SELECT * FROM t").rows == [(1, "a\nb"), (2, "c")]


def test_field_longer_than_csvs_default_limit():
    db = Database()
    Ingestor(db).ingest_text("t", 'id,seq\n1,"%s"\n2,AC\n' % ("ACGT" * 50000))
    assert [len(seq) for _id, seq in db.execute("SELECT * FROM t").rows] == [200000, 2]


def test_the_generator_makes_what_it_claims():
    """Across the seeds, every kind of dirt occurs somewhere."""
    texts = [_dirty_file(seed)[0] for seed in SEEDS]
    assert any(text.startswith("\ufeff") for text in texts)
    assert any("\r\n" in text for text in texts)
    assert any('""' in text for text in texts)
    assert any('"line one\nline two"' in text for text in texts)
    assert any("unknown" in text for text in texts)
