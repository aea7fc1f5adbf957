"""The front door for SQL text: facts derived from one parse, the scope-aware
referenced-name walk, and the one bounded statement memo."""

import pytest

from repro.engine import parser, prepared
from repro.engine.prepared import (
    StatementMemo,
    prepare_statement,
    referenced_names,
)
from repro.errors import ParseError


class TestFacts:
    def test_whitespace_and_keyword_case_collapse(self):
        variants = [
            "SELECT site FROM obs",
            "select   site\nfrom obs",
            "select site\n\tFROM [obs]",
        ]
        facts = [prepare_statement(sql) for sql in variants]
        assert len({p.key for p in facts}) == 1
        assert len({p.fingerprint for p in facts}) == 1
        assert len(facts[0].fingerprint) == 12

    def test_different_statements_differ(self):
        one = prepare_statement("SELECT site FROM obs")
        two = prepare_statement("SELECT temp FROM obs")
        assert one.key != two.key
        assert one.fingerprint != two.fingerprint

    def test_query_versus_ddl(self):
        assert prepare_statement("SELECT 1").is_query
        ddl = prepare_statement("CREATE TABLE t (a INT)")
        assert not ddl.is_query
        assert ddl.names == ()

    def test_unparseable_text_carries_error_and_fallback_key(self):
        bad = prepare_statement("SELEC  site\nFROM obs")
        assert isinstance(bad.error, ParseError)
        assert bad.statement is None and not bad.is_query
        assert bad.key == "selec site from obs"
        assert bad.fingerprint == prepare_statement(
            "selec site from obs").fingerprint

    def test_facts_copy_drops_the_ast(self):
        fresh = prepare_statement("SELECT 1")
        assert fresh.statement is not None and fresh.parsed_now
        facts = fresh.facts()
        assert facts.statement is None and not facts.parsed_now
        assert (facts.key, facts.fingerprint) == (fresh.key, fresh.fingerprint)
        assert facts.ast() == fresh.statement  # re-parsed on demand


class TestReferencedNames:
    def names(self, sql):
        return referenced_names(parser.parse(sql))

    def test_first_seen_order_deduplicated(self):
        assert self.names(
            "SELECT * FROM b JOIN a ON a.x = b.x WHERE b.x IN "
            "(SELECT x FROM A)") == ("b", "a")

    def test_cte_names_are_not_references(self):
        assert self.names(
            "WITH secret AS (SELECT 1 AS x) SELECT x FROM secret") == ()

    def test_cte_shadowing_a_dataset_still_reads_it(self):
        # The body of a CTE does not see its own name (the planner's rule),
        # so this reads the real ``secret`` and must be permission-checked.
        assert self.names(
            "WITH secret AS (SELECT * FROM secret) "
            "SELECT * FROM secret") == ("secret",)

    def test_later_members_see_earlier_ones_only(self):
        assert self.names(
            "WITH a AS (SELECT * FROM b), b AS (SELECT * FROM a) "
            "SELECT * FROM b") == ("b",)


class TestStatementMemo:
    def test_repeat_serves_facts_without_parsing(self, monkeypatch):
        memo = StatementMemo()
        first = memo.prepare("SELECT 1")
        assert first.statement is not None
        monkeypatch.setattr(parser, "parse", lambda sql: pytest.fail("parsed"))
        again = memo.prepare("SELECT 1")
        assert again.statement is None
        assert again.fingerprint == first.fingerprint

    def test_unparseable_text_is_not_remembered(self):
        memo = StatementMemo()
        assert memo.prepare("SELEC 1").error is not None
        assert len(memo) == 0
        assert memo.prepare("SELEC 1").error is not None

    def test_annotated_diagnostics_reach_the_memo(self):
        memo = StatementMemo()
        first = memo.prepare("SELECT 1")
        memo.annotate(first, [{"code": "LINT000"}])
        assert memo.prepare("SELECT 1").diagnostics == [{"code": "LINT000"}]

    def test_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(prepared, "MEMO_CAPACITY", 3)
        memo = StatementMemo()
        for index in range(5):
            memo.prepare("SELECT %d" % index)
        assert len(memo) == 3
        memo.prepare("SELECT 2")  # touch: protected from the next eviction
        memo.prepare("SELECT 9")
        assert memo.prepare("SELECT 2").statement is None
        assert memo.prepare("SELECT 3").statement is not None  # was evicted
