"""Format inference tests."""

import pytest

from repro.errors import IngestError
from repro.ingest.delimiters import infer_format, read_records


def split_fields(line, delimiter):
    """The fields of a one-record text."""
    (record,) = read_records(line, delimiter)
    return record


class TestFieldSplitting:
    def test_simple_csv(self):
        assert split_fields("a,b,c", ",") == ["a", "b", "c"]

    def test_quoted_field_with_delimiter(self):
        assert split_fields('a,"b,c",d', ",") == ["a", "b,c", "d"]

    def test_escaped_quote(self):
        assert split_fields('"say ""hi""",x', ",") == ['say "hi"', "x"]

    def test_tab_delimited(self):
        assert split_fields("a\tb", "\t") == ["a", "b"]

    def test_empty_fields(self):
        assert split_fields("a,,c", ",") == ["a", "", "c"]

    def test_runs_of_spaces_are_one_delimiter(self):
        assert split_fields("  a  b c ", " ") == ["a", "b", "c"]

    def test_quoted_newline_stays_in_its_field(self):
        assert read_records('id,note\n1,"a\nb"\n2,c\n', ",") == [
            ["id", "note"], ["1", "a\nb"], ["2", "c"]]


class TestRowSplitting:
    def test_trailing_newline_dropped(self):
        assert read_records("a\nb\n", ",") == [["a"], ["b"]]

    def test_crlf(self):
        assert read_records("a\r\nb\r\n", ",") == [["a"], ["b"]]

    def test_interior_blank_line_is_one_empty_field(self):
        assert read_records("a\n\nb\n\n\n", ",") == [["a"], [""], ["b"]]

    def test_byte_order_mark_dropped(self):
        assert read_records("\ufeff1,2\n", ",") == [["1", "2"]]


class TestInferFormat:
    def test_comma_csv(self):
        fmt = infer_format("a,b,c\n1,2,3\n4,5,6\n")
        assert fmt.field_delimiter == ","
        assert fmt.column_count == 3

    def test_tab_separated(self):
        fmt = infer_format("a\tb\n1\t2\n")
        assert fmt.field_delimiter == "\t"

    def test_semicolon(self):
        fmt = infer_format("a;b\n1;2\n")
        assert fmt.field_delimiter == ";"

    def test_pipe(self):
        fmt = infer_format("a|b\n1|2\n")
        assert fmt.field_delimiter == "|"

    def test_crlf_rows(self):
        fmt = infer_format("a,b\r\n1,2\r\n")
        assert fmt.row_delimiter == "\r\n"

    def test_header_detected(self):
        fmt = infer_format("name,value\nalice,1\nbob,2\n")
        assert fmt.has_header

    def test_no_header_when_first_row_numeric(self):
        fmt = infer_format("1,2\n3,4\n")
        assert not fmt.has_header

    def test_single_column_file(self):
        fmt = infer_format("alpha\nbeta\ngamma\n")
        assert fmt.column_count == 1

    def test_empty_file_raises(self):
        with pytest.raises(IngestError):
            infer_format("   \n  ")

    def test_ragged_rows_still_infer(self):
        fmt = infer_format("a,b,c\n1,2\n4,5,6\n")
        assert fmt.field_delimiter == ","

    def test_quoted_comma_does_not_confuse(self):
        fmt = infer_format('name,notes\nalice,"likes a, b"\n')
        assert fmt.column_count == 2
