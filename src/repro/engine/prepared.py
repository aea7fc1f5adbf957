"""The one front door for SQL text: parse once, derive every text-level fact.

SQLShare's workload is hand-written, one-off SQL, so whatever the system
does per *statement text* is paid on nearly every query.  This module owns
the decision of how text becomes

- the **AST** (one :func:`repro.engine.parser.parse` call),
- **is-query** (SELECT / set operation / WITH — the only thing users may run),
- the **referenced names** (FROM-clause names minus CTE names in scope —
  what permission checks and cluster routing look at),
- the **normalized key** (the parser round-trip rendering, so whitespace,
  keyword-case and quoting variants unify — the result-cache key),
- the **fingerprint** (sha256 of that key — the one statement identity the
  Query Store, the cardinality-feedback store, the adaptive controller and
  the event log all share), and
- the advisory **lint diagnostics** (filled in by
  :meth:`repro.engine.database.Database.diagnostics`, which owns the catalog).

Everything but the AST is a pure function of the text, so
:class:`StatementMemo` remembers those facts for repeat submissions (the
SkyServer-style traffic) in one bounded LRU.  The memo never holds an AST:
a repeat that needs one (result-cache miss) re-parses on demand.
"""

import hashlib
import threading
from collections import OrderedDict

from repro.engine import ast_nodes as ast
from repro.engine import parser
from repro.engine.semantic import QUERY_NODES, cte_scopes
from repro.engine.sql_format import render_statement
from repro.errors import LexError, ParseError

#: Bound on remembered statement texts (LRU beyond this).
MEMO_CAPACITY = 4096


def referenced_names(statement):
    """Names a statement's FROM clauses reference, minus CTE references.

    Direct references only (subqueries included, names inside referenced
    views not), first-seen order, case-insensitively deduplicated.  A name
    is a CTE reference only where that CTE is *in scope* — the binder's
    rule, :func:`repro.engine.semantic.cte_scopes` — so
    ``WITH t AS (SELECT * FROM t) SELECT * FROM t`` still reports the real
    ``t`` its body reads.
    """
    names = []
    seen = set()
    stack = [(statement, frozenset())]
    while stack:
        node, ctes = stack.pop()
        if isinstance(node, ast.TableRef):
            lowered = node.name.lower()
            if lowered not in ctes and lowered not in seen:
                seen.add(lowered)
                names.append(node.name)
        elif isinstance(node, ast.WithQuery):
            scoped = [
                (node.body if cte is None else cte.query,
                 ctes | {member.name.lower() for member in visible})
                for cte, visible in cte_scopes(node)]
            stack.extend(reversed(scoped))
        else:
            stack.extend((child, ctes) for child in reversed(node.children()))
    return tuple(names)


def _fingerprint(key):
    return hashlib.sha256(key.encode("utf-8", "replace")).hexdigest()[:12]


class PreparedStatement(object):
    """What the system knows about one statement text before any catalog."""

    __slots__ = ("sql", "statement", "error", "is_query", "names", "key",
                 "fingerprint", "diagnostics")

    def __init__(self, sql, statement=None, error=None, is_query=False,
                 names=(), key=None, fingerprint=None, diagnostics=None):
        self.sql = sql
        #: The AST — None once released, or when the memo supplied the facts.
        self.statement = statement
        #: The LexError/ParseError for text that does not parse.
        self.error = error
        self.is_query = is_query
        self.names = names
        self.key = key
        self.fingerprint = fingerprint
        #: Advisory lint findings (list of dicts); None = not linted yet.
        self.diagnostics = diagnostics

    @property
    def parsed_now(self):
        """True when this object came from a parse, not from the memo."""
        return self.statement is not None or self.error is not None

    def ast(self):
        """The parsed statement, re-parsed when this object does not hold
        one.  Never stored back: memoized objects are shared."""
        if self.statement is not None:
            return self.statement
        return parser.parse(self.sql)

    def facts(self):
        """A copy without the AST or error — what the memo keeps."""
        return PreparedStatement(
            self.sql, is_query=self.is_query, names=self.names, key=self.key,
            fingerprint=self.fingerprint, diagnostics=self.diagnostics)

    def release_ast(self):
        self.statement = None
        self.error = None


def prepare_statement(sql):
    """Parse ``sql`` once and derive its text-level facts (no memo).

    Never raises on bad SQL: the parse error rides on ``.error`` for the
    caller to raise where the old code would have parsed, and the key falls
    back to whitespace-collapsed lower-casing so even unparseable text has
    a stable fingerprint to log under.
    """
    try:
        statement = parser.parse(sql)
    except (LexError, ParseError) as error:
        key = " ".join(sql.split()).lower()
        return PreparedStatement(sql, error=error, key=key,
                                 fingerprint=_fingerprint(key))
    key = render_statement(statement)
    is_query = isinstance(statement, QUERY_NODES)
    return PreparedStatement(
        sql, statement=statement, is_query=is_query,
        names=referenced_names(statement) if is_query else (),
        key=key, fingerprint=_fingerprint(key))


class StatementMemo(object):
    """Bounded LRU of statement text -> facts (never ASTs).

    Only text that parsed is remembered; a parse error is cheap to
    reproduce and its exception must not be shared between threads.
    """

    def __init__(self):
        self._memo = OrderedDict()
        self._lock = threading.Lock()

    def prepare(self, sql):
        """The :class:`PreparedStatement` for ``sql``: the shared memoized
        facts on a repeat, a fresh parse (AST included) otherwise."""
        with self._lock:
            prepared = self._memo.get(sql)
            if prepared is not None:
                self._memo.move_to_end(sql)
                return prepared
        # Parsing runs unlocked; concurrent misses on one text duplicate
        # work at worst.
        prepared = prepare_statement(sql)
        if prepared.error is None:
            with self._lock:
                self._memo[sql] = prepared.facts()
                while len(self._memo) > MEMO_CAPACITY:
                    self._memo.popitem(last=False)
        return prepared

    def annotate(self, prepared, diagnostics):
        """Attach lint diagnostics to ``prepared`` and to its memo entry."""
        prepared.diagnostics = diagnostics
        with self._lock:
            entry = self._memo.get(prepared.sql)
            if entry is not None:
                entry.diagnostics = diagnostics

    def __len__(self):
        with self._lock:
            return len(self._memo)
