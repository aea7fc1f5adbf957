"""Exception hierarchy shared by the engine and the platform.

Every error raised on purpose by this package derives from :class:`ReproError`
so callers can catch the package's failures without catching programming
mistakes (``TypeError`` and friends propagate unchanged).

This module also hosts the two small value objects the static-analysis
layer is built on — :class:`Span` (a source location) and
:class:`Diagnostic` (one structured finding) — so the engine, the lint
rules and the CLI all agree on a single representation.
"""

#: Diagnostic severities, mildest last.
ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Ordering used when sorting / summarising mixed-severity reports.
SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


class Span(object):
    """A half-open ``[start, end)`` byte range with a 1-based line/column."""

    __slots__ = ("start", "end", "line", "col")

    def __init__(self, start, end=None, line=0, col=0):
        self.start = start
        self.end = start if end is None else end
        self.line = line
        self.col = col

    @classmethod
    def from_offset(cls, source, start, end=None):
        """Build a Span for ``start`` computing line/col from ``source``."""
        if start is None:
            return None
        start = min(start, len(source))
        line = source.count("\n", 0, start) + 1
        line_start = source.rfind("\n", 0, start) + 1
        return cls(start, end, line, start - line_start + 1)

    def to_dict(self):
        return {"start": self.start, "end": self.end,
                "line": self.line, "col": self.col}

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.start, self.end, self.line, self.col) == \
               (other.start, other.end, other.line, other.col)

    def __repr__(self):
        return "Span(%d:%d @%d,%d)" % (self.start, self.end, self.line, self.col)


class Diagnostic(object):
    """One structured analysis finding.

    ``category`` tells :func:`repro.engine.semantic.error_from_diagnostics`
    which exception class an error-severity finding maps to when surfaced
    through ``Database.execute`` ("catalog", "type", "bind", "syntax" or
    "lint").
    """

    __slots__ = ("code", "severity", "message", "span", "category")

    def __init__(self, code, severity, message, span=None, category="bind"):
        self.code = code
        self.severity = severity
        self.message = message
        self.span = span
        self.category = category

    @property
    def line(self):
        return self.span.line if self.span is not None else 0

    @property
    def col(self):
        return self.span.col if self.span is not None else 0

    def to_dict(self):
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "span": self.span.to_dict() if self.span is not None else None,
            "category": self.category,
        }

    @classmethod
    def from_error(cls, error, source=None):
        """Adapt any :class:`SQLError` into a Diagnostic.

        ``source`` (the statement text) lets offset-only errors recover a
        line/column.
        """
        span = getattr(error, "span", None)
        if span is None and source is not None:
            position = getattr(error, "position", None)
            token = getattr(error, "token", None)
            if token is not None and getattr(token, "line", 0):
                span = Span(token.pos, getattr(token, "end", token.pos),
                            token.line, token.col)
            elif token is not None:
                span = Span.from_offset(source, token.pos)
            elif position is not None:
                span = Span.from_offset(source, position)
        if isinstance(error, LexError):
            code, category = "SYN001", "syntax"
        elif isinstance(error, ParseError):
            code, category = "SYN002", "syntax"
        elif isinstance(error, TypeCheckError):
            code, category = "SEM005", "type"
        elif isinstance(error, CatalogError):
            code, category = "SEM003", "catalog"
        elif isinstance(error, BindError):
            code, category = "SEM001", "bind"
        else:
            code, category = "SQL000", "bind"
        return cls(code, ERROR, str(error), span, category)

    def __repr__(self):
        where = ""
        if self.span is not None and self.span.line:
            where = " @%d:%d" % (self.span.line, self.span.col)
        return "Diagnostic(%s, %s%s: %s)" % (
            self.code, self.severity, where, self.message)


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SQLError(ReproError):
    """Base class for errors raised while processing a SQL statement.

    Instances may carry a :class:`Span` (``.span``) locating the offending
    token and, when raised from the semantic analyzer, the full list of
    findings for the statement (``.diagnostics``).
    """

    span = None
    diagnostics = None


class LexError(SQLError):
    """The statement could not be tokenized."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The statement could not be parsed."""

    def __init__(self, message, token=None):
        super().__init__(message)
        self.token = token
        if token is not None and getattr(token, "line", 0):
            self.span = Span(token.pos, getattr(token, "end", token.pos),
                             token.line, token.col)


class BindError(SQLError):
    """A name (table, column, function) could not be resolved."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class TypeCheckError(SQLError):
    """An expression is not well typed (e.g. ``'a' + DATE``)."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class ExecutionError(SQLError):
    """A runtime failure while evaluating a query (cast failure, div by zero)."""


class PlanCheckError(SQLError):
    """The plan verifier rejected a physical plan before execution.

    Raised only in strict mode (``Database.plan_check_mode = "strict"``,
    the default under tests/CI); serve mode downgrades to a warning plus
    the ``check_plan_violations_total`` metric.  Carries the structured
    findings (``.violations`` — :class:`repro.check.plancheck.PlanViolation`)
    so callers can render codes rather than parse the message.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class QueryCancelled(ExecutionError):
    """The query was cancelled while executing (cooperative cancellation)."""


class QueryTimeout(QueryCancelled):
    """The query exceeded its statement timeout."""


class AdmissionError(ReproError):
    """The scheduler refused a submission (per-user queue depth exceeded)."""


class CatalogError(SQLError):
    """Catalog violation: duplicate table, unknown view, invalid DDL."""


class IngestError(ReproError):
    """A file could not be staged or ingested."""


class PermissionError_(ReproError):
    """A dataset access was denied (broken ownership chain, private data)."""


class QuotaError(ReproError):
    """A user exceeded their storage quota."""


class DatasetError(ReproError):
    """Invalid dataset operation (unknown dataset, bad append, name clash)."""


class ClusterError(ReproError):
    """A shard is down or a cluster operation failed."""


#: Error taxonomy used by the metrics registry and the query log: every
#: failure is counted under exactly one of these classes, so error rates
#: can be reported per class (and per user archetype) from runtime data.
ERROR_CLASSES = (
    "parse", "semantic", "runtime", "timeout", "cancelled",
    "permission", "admission", "other",
)


def classify_error(error):
    """Map an exception to its taxonomy class (one of ERROR_CLASSES).

    Order matters: ``QueryTimeout`` subclasses ``QueryCancelled`` which
    subclasses ``ExecutionError``, so the most specific class wins.
    """
    if isinstance(error, QueryTimeout):
        return "timeout"
    if isinstance(error, QueryCancelled):
        return "cancelled"
    if isinstance(error, (LexError, ParseError)):
        return "parse"
    if isinstance(error, (BindError, TypeCheckError, CatalogError)):
        return "semantic"
    if isinstance(error, ExecutionError):
        return "runtime"
    if isinstance(error, (PermissionError_, QuotaError)):
        return "permission"
    if isinstance(error, AdmissionError):
        return "admission"
    return "other"
