"""Rule registry and drivers for the lint layer."""

from repro.engine import semantic
from repro.errors import Diagnostic, Span

#: code -> LintRule, in registration order (dicts preserve it).
RULES = {}


class LintRule(object):
    """One registered lint rule.

    ``check`` is a callable ``(result, catalog) -> iterable of (severity,
    message, span)`` — severity may be None to use the rule's default.
    """

    __slots__ = ("code", "name", "description", "severity", "check")

    def __init__(self, code, name, description, severity, check):
        self.code = code
        self.name = name
        self.description = description
        self.severity = severity
        self.check = check

    def run(self, result, catalog):
        for finding in self.check(result, catalog):
            severity, message, span = finding
            yield Diagnostic(self.code, severity or self.severity, message,
                             span, category="lint")


def rule(code, name, description, severity):
    """Decorator registering a lint rule under ``code``."""

    def register(func):
        if code in RULES:
            raise ValueError("duplicate lint rule %s" % code)
        RULES[code] = LintRule(code, name, description, severity, func)
        return func

    return register


def run_rules(result, catalog, codes=None):
    """Run every registered rule (or the given codes) over one analysis."""
    diagnostics = []
    for code, lint_rule in RULES.items():
        if codes is not None and code not in codes:
            continue
        diagnostics.extend(lint_rule.run(result, catalog))
    return diagnostics


def lint_statement(statement, catalog, source=None, codes=None):
    """Analyze + lint one parsed statement; returns (result, diagnostics).

    ``diagnostics`` contains the semantic findings followed by the lint
    findings, position-sorted within each group.
    """
    result = semantic.analyze(statement, catalog, source=source)
    diagnostics = result.sorted_diagnostics() + run_rules(result, catalog, codes)
    return result, diagnostics


def split_statements(text):
    """Split a script into top-level statements on ``;``.

    Respects single-quoted strings, quoted identifiers (double quotes and
    square brackets), line comments and block comments.  Returns a list of
    ``(offset, statement_text)`` pairs; empty statements are dropped.
    """
    parts = []
    start = 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            i += 1
            while i < n:
                if text[i] == "'":
                    if text[i + 1 : i + 2] == "'":
                        i += 2
                        continue
                    break
                i += 1
            i += 1
        elif ch == '"' or ch == "[":
            close = '"' if ch == '"' else "]"
            end = text.find(close, i + 1)
            i = n if end < 0 else end + 1
        elif text.startswith("--", i):
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
        elif ch == ";":
            parts.append((start, text[start:i]))
            i += 1
            start = i
        else:
            i += 1
    parts.append((start, text[start:]))
    return [(offset, stmt) for offset, stmt in parts if stmt.strip()]


def _shift_span(span, offset, full_text):
    """Rebase a statement-relative span onto the whole script."""
    if span is None:
        return None
    shifted = Span.from_offset(full_text, span.start + offset,
                               span.end + offset)
    return shifted


def lint_text(text, db, apply_statements=True, lint=True):
    """Lint a multi-statement script; returns a list of Diagnostics.

    Statements are checked in order against ``db``'s catalog.  When
    ``apply_statements`` is set, error-free non-query statements (DDL and
    INSERT) are executed so that later statements resolve against the
    objects they create — the natural mode for linting a schema + queries
    script.  Spans are rebased onto the full script text.
    """
    findings = []
    for offset, stmt_text in split_statements(text):
        pad = len(stmt_text) - len(stmt_text.lstrip())
        stmt_offset = offset + pad
        stmt_text = stmt_text.strip()
        prepared = db.prepare(stmt_text)
        had_error = False
        for diagnostic in db.check(stmt_text, lint=lint, prepared=prepared):
            had_error = had_error or diagnostic.severity == "error"
            diagnostic.span = _shift_span(diagnostic.span, stmt_offset, text)
            findings.append(diagnostic)
        if apply_statements and not had_error and not prepared.is_query:
            db.execute(stmt_text, prepared=prepared)
    return findings
