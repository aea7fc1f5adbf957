"""Semantic analysis: the engine's one binder.

The analyzer walks a parsed statement once and does everything that needs
names: scope construction, table/column/function resolution (CTEs, derived
tables and view chains through the catalog), star expansion, aggregate and
window collection, output naming and expression typing.  Its output is
twofold:

* **diagnostics** — every finding as a structured :class:`Diagnostic`
  (code, severity, source span); unlike a binder that raises on the first
  problem, the analyzer keeps going and reports them all;
* **the bound query** — for a clean statement, :attr:`AnalysisResult.query`
  is a tree of :class:`BoundSelect` / :class:`BoundSetOperation` blocks
  whose FROM layouts, expressions (:mod:`repro.engine.expressions` bound
  trees with row slots), aggregate and window specs, output schemas and
  ORDER BY keys are final.  The planner turns that tree into operators and
  resolves no names of its own.

Alongside, the analyzer records the Phase-2 facts of the statement
(:class:`PlanInfo`: tables, views, base-table columns and expression
operators, counted once per planned occurrence, as the plan sees them)
and the catalog version of every table and view at the moment it was
resolved — the result cache's validity stamp.

Design rule — *one verdict*: ``Database.check``, ``POST /api/v1/check`` and
execution run this same pass, so a statement is rejected by all of them or
by none.  Errors inside a CTE that is never referenced are the one
exception: they are downgraded to warnings, because an unreferenced CTE is
never planned.  A view body is bound where it is referenced; its own
problems surface as one error at the reference.

Diagnostic codes
----------------

====== ==========================================================
SEM001 unknown column
SEM002 ambiguous column reference
SEM003 unknown table/view, or another catalog violation
SEM004 unknown function or wrong argument count
SEM005 unknown type name in CAST/DDL
SEM006 aggregate misuse (nested, or outside items/HAVING/ORDER BY)
SEM007 window-function misuse (bad args, missing OVER ORDER BY)
SEM008 subquery column-count violation
SEM009 set-operation arity mismatch
SEM010 CTE violation (duplicate name, declared-column arity)
SEM011 ORDER BY violation (position out of range, or an item outside
       the select list of a SELECT DISTINCT)
SEM012 star ('*') misuse or empty expansion
SEM013 column neither grouped nor aggregated
SEM014 DML violation (INSERT shape, non-literal VALUES)
====== ==========================================================
"""

from repro.engine import aggregates
from repro.engine import ast_nodes as ast
from repro.engine import functions
from repro.engine.ast_nodes import span_of
from repro.engine.expressions import (
    BoundBetween,
    BoundBinary,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundExists,
    BoundExpr,
    BoundFunc,
    BoundInList,
    BoundInSubquery,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundOuterColumn,
    BoundScalarSubquery,
    BoundUnary,
    OutputColumn,
    binary_result_type,
)
from repro.engine.types import SQLType, resolve_type_name, unify_types
from repro.engine.window import NAVIGATION_FUNCTIONS, RANKING_FUNCTIONS, WindowSpec
from repro.errors import (
    ERROR,
    WARNING,
    BindError,
    CatalogError,
    Diagnostic,
    SEVERITY_ORDER,
    TypeCheckError,
)

#: Queries (as opposed to DDL/DML) — same set Database.execute plans.
QUERY_NODES = (ast.Select, ast.SetOperation, ast.WithQuery)

#: Expressions that cannot contain an aggregate or window call.
_LEAVES = (ast.ColumnRef, ast.Literal, ast.Star)

#: Phase-2 names of the arithmetic operators (Table 4 of the paper).
_ARITHMETIC_OPS = {"+": "ADD", "-": "SUB", "*": "MULT", "/": "DIV", "%": "MOD",
                   "||": "CONCAT", "&": "BIT_AND", "|": "BIT_OR", "^": "BIT_XOR"}


class PlanInfo(object):
    """Phase-2 facts of one statement, used by the workload analysis."""

    def __init__(self):
        self.tables = set()
        self.columns = set()  # (table, column)
        self.views = set()
        self.expression_ops = []

    def merge(self, other):
        self.tables |= other.tables
        self.columns |= other.columns
        self.views |= other.views
        self.expression_ops.extend(other.expression_ops)


class SourceInfo(object):
    """One FROM-clause range variable, resolved.

    ``query`` is the bound body the planner expands for view, CTE and
    derived sources; ``table`` the catalog Table of a base-table source.
    """

    __slots__ = ("kind", "name", "alias", "qualifier", "schema", "node",
                 "table", "query", "unknown")

    def __init__(self, kind, name, alias, qualifier, schema, node,
                 table=None, query=None, unknown=False):
        #: "table", "view", "cte", "derived" or "unknown".
        self.kind = kind
        self.name = name
        self.alias = alias
        self.qualifier = qualifier
        self.schema = schema
        self.node = node
        self.table = table
        self.query = query
        self.unknown = unknown

    @property
    def reliable(self):
        return not self.unknown

    def __repr__(self):
        return "SourceInfo(%s %r as %r)" % (self.kind, self.name, self.qualifier)


class BoundJoin(object):
    """A join of two FROM subtrees; ``condition`` is bound over ``schema``."""

    __slots__ = ("kind", "left", "right", "condition", "schema")

    def __init__(self, kind, left, right, condition, schema):
        self.kind = kind
        self.left = left
        self.right = right
        self.condition = condition
        self.schema = schema

    @property
    def reliable(self):
        return self.left.reliable and self.right.reliable


class BoundSelect(object):
    """One SELECT block, bound — the planner's input and the lint layer's.

    Expression sites are bound against the row they are evaluated on:
    ``where`` over the FROM layout, ``group_keys``/``aggregates`` likewise,
    ``having`` over ``aggregate_schema``, ``windows`` over the aggregate
    (or FROM) row, ``items`` over the last of those.  ``order`` holds
    ``(key, descending, hidden)``: ``hidden`` is None for a key bound over
    the output columns, or the :class:`OutputColumn` naming a key bound
    over the projection's input (an ORDER BY item not in the select list).
    """

    def __init__(self, select, sources, depth, statement):
        self.select = select
        #: Range variables in slot order (the lint layer reads this).
        self.sources = sources
        #: 0 for the statement's outermost SELECT, >0 inside subqueries/CTEs.
        self.depth = depth
        self.statement = statement
        #: FROM tree: a SourceInfo, a BoundJoin, or None (FROM-less SELECT).
        self.source = None
        self.where = None
        self.group_keys = []
        #: Per group key: (Table, column name) for a distinct-count
        #: estimate, or None.
        self.key_stats = []
        #: (function name, bound argument or None, distinct) per aggregate.
        self.aggregates = []
        #: Output of the aggregation step, or None when nothing aggregates.
        self.aggregate_schema = None
        self.having = None
        self.windows = []
        self.window_schema = None
        self.items = []
        self.schema = []
        self.order = []
        #: False when the column list could not be fully determined.
        self.reliable = True
        #: Aggregates or windows rewrote the select list.
        self.aggregated = False


class BoundSetOperation(object):
    """UNION / INTERSECT / EXCEPT of two bound queries."""

    def __init__(self, op, all_rows, left, right, schema, reliable):
        self.op = op
        self.all = all_rows
        self.left = left
        self.right = right
        self.schema = schema
        self.reliable = reliable
        #: (key, descending, None) per ORDER BY item, keys over ``schema``.
        self.order = []


class AnalysisResult(object):
    """Everything the analyzer learned about one statement."""

    def __init__(self, statement, source=None):
        self.statement = statement
        self.source = source
        self.diagnostics = []
        #: The bound query (BoundSelect / BoundSetOperation) of a query
        #: statement, or of the query inside CREATE VIEW / INSERT ... SELECT.
        self.query = None
        #: Output schema (list of OutputColumn) when the statement is a query.
        self.schema = None
        #: id(ast node) -> inferred SQLType for every analyzed expression.
        self.types = {}
        #: One BoundSelect per SELECT block, in completion order.
        self.selects = []
        #: id(OutputColumn) for every column actually referenced somewhere.
        self.used_columns = set()
        #: (ColumnRef node, OutputColumn) for every successful resolution.
        self.resolutions = []
        #: CommonTableExpression nodes never referenced by the body.
        self.unused_ctes = []
        #: Phase-2 facts of the planned statement.
        self.info = PlanInfo()
        #: lower-cased name -> catalog version read when it was resolved.
        self.versions = {}

    def add(self, code, severity, message, span=None, category="bind"):
        diagnostic = Diagnostic(code, severity, message, span, category)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def absorb(self, other):
        """Take over the findings of a scratch result (see ``_attempt``)."""
        self.diagnostics.extend(other.diagnostics)
        self.types.update(other.types)
        self.selects.extend(other.selects)
        self.used_columns |= other.used_columns
        self.resolutions.extend(other.resolutions)
        self.unused_ctes.extend(other.unused_ctes)

    def errors(self):
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self):
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self):
        return not self.errors()

    def version_vector(self):
        """Sorted ``((name, version), ...)`` — the result cache's stamp."""
        return tuple(sorted(self.versions.items()))

    def type_of(self, node):
        return self.types.get(id(node), SQLType.UNKNOWN)

    def sorted_diagnostics(self):
        """Diagnostics ordered by source position, then severity."""
        def key(d):
            start = d.span.start if d.span is not None else 1 << 30
            return (start, SEVERITY_ORDER.get(d.severity, 3))
        return sorted(self.diagnostics, key=key)


class Scope(object):
    """Resolution scope: columns (one per row slot), an outer chain and an
    'unknown' taint.

    ``unknown`` marks scopes built over an unresolvable source (a missing
    table, a star over one): resolution failures under such a scope are
    suppressed rather than reported, so one missing table does not cascade
    into a column error per reference.
    """

    def __init__(self, columns, parent=None, unknown=False):
        self.columns = list(columns)
        self.parent = parent
        self.unknown = unknown

    def resolve(self, name, table=None):
        """Return ``(status, levels, slot, column)``.

        ``status`` is "ok", "ambiguous", "unknown" or "suppressed";
        ``levels`` counts the outer scopes crossed (0 = this one).
        """
        lowered = name.lower()
        qualifier = table.lower() if table else None
        scope, levels, tainted = self, 0, False
        while scope is not None:
            tainted = tainted or scope.unknown
            found = None
            for slot, column in enumerate(scope.columns):
                if column.name.lower() == lowered and (
                        qualifier is None
                        or (column.qualifier or "").lower() == qualifier):
                    if found is not None:
                        return "ambiguous", levels, None, None
                    found = (slot, column)
            if found is not None:
                return "ok", levels, found[0], found[1]
            scope, levels = scope.parent, levels + 1
        return ("suppressed" if tainted else "unknown"), 0, None, None

    def tainted(self):
        scope = self
        while scope is not None:
            if scope.unknown:
                return True
            scope = scope.parent
        return False


class _Context(object):
    """Expression-analysis context flags."""

    __slots__ = ("in_aggregate", "group_fallback")

    def __init__(self, in_aggregate=False, group_fallback=None):
        #: Currently inside an aggregate's argument (nested-aggregate check).
        self.in_aggregate = in_aggregate
        #: Pre-aggregation scope, for "must appear in GROUP BY" messages.
        self.group_fallback = group_fallback


class _CTE(object):
    __slots__ = ("name", "node", "query", "schema", "diagnostics", "info",
                 "used", "refs")

    def __init__(self, name, node, query, schema, diagnostics, info):
        self.name = name
        self.node = node
        self.query = query
        self.schema = schema
        self.diagnostics = diagnostics
        #: Phase-2 facts of the body, counted at every reference.
        self.info = info
        self.used = False
        #: CTEs this CTE's body references (for transitive usedness).
        self.refs = set()


def analyze(statement, catalog, source=None):
    """Analyze one parsed statement; returns an :class:`AnalysisResult`."""
    return SemanticAnalyzer(catalog).analyze(statement, source=source)


def cte_scopes(query):
    """T-SQL's CTE visibility rule, the one copy of it.

    Yields ``(cte, visible)`` for each member of ``query``'s WITH clause:
    beyond the enclosing WITH layers, a member's body sees only the members
    before it, so a CTE shadowing a table name still reads the table in its
    own body.  Last comes the main body (``cte`` None), which sees them all.
    """
    for index, cte in enumerate(query.ctes):
        yield cte, query.ctes[:index]
    yield None, query.ctes


def error_from_diagnostics(diagnostics, sql=None):
    """Build the exception ``Database.execute`` raises for analyzer errors.

    The exception class follows the first error's category so callers that
    catch :class:`BindError`/:class:`CatalogError`/:class:`TypeCheckError`
    keep working; every diagnostic rides along as ``.diagnostics``.
    """
    errors = [d for d in diagnostics if d.severity == ERROR]
    first = errors[0]
    message = first.message
    if first.span is not None and first.span.line:
        message += " (line %d, col %d)" % (first.span.line, first.span.col)
    if len(errors) > 1:
        message += "; plus %d more error%s" % (
            len(errors) - 1, "" if len(errors) == 2 else "s")
    cls = {"catalog": CatalogError, "type": TypeCheckError}.get(
        first.category, BindError)
    exc = cls(message)
    exc.span = first.span
    exc.diagnostics = list(diagnostics)
    return exc


class SemanticAnalyzer(object):
    """AST-walking binder over a catalog.  One instance per statement."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._cte_stack = []
        self._ref_stack = []
        self._depth = 0
        #: Generated-name counter: names depend on the statement alone.
        self._names = 0
        #: One correlation flag per enclosing subquery, innermost last.
        self._frames = []
        #: Where Phase-2 facts go (swapped for CTE and view bodies).
        self._info = None
        self._versions = None
        #: lower-cased name -> Table, for group-key distinct counts.
        self._tables = {}

    # -- entry points -------------------------------------------------------

    def analyze(self, statement, source=None):
        result = AnalysisResult(statement, source)
        self._info = result.info
        self._versions = result.versions
        if isinstance(statement, QUERY_NODES):
            result.query = self._query(statement, None, result)
            result.schema = result.query.schema
        elif isinstance(statement, ast.CreateView):
            self._create_view(statement, result)
        elif isinstance(statement, ast.CreateTable):
            self._create_table(statement, result)
        elif isinstance(statement, ast.DropTable):
            if not statement.if_exists and not self.catalog.has_table(statement.name):
                result.add("SEM003", ERROR, "no table named %r" % statement.name,
                           span_of(statement), "catalog")
        elif isinstance(statement, ast.DropView):
            if not statement.if_exists and not self.catalog.has_view(statement.name):
                result.add("SEM003", ERROR, "no view named %r" % statement.name,
                           span_of(statement), "catalog")
        elif isinstance(statement, ast.Insert):
            self._insert(statement, result)
        elif isinstance(statement, ast.AlterColumn):
            self._alter_column(statement, result)
        return result

    # -- statements ---------------------------------------------------------

    def _create_view(self, statement, result):
        span = span_of(statement)
        if self.catalog.has_table(statement.name):
            result.add("SEM003", ERROR,
                       "a table named %r already exists" % statement.name,
                       span, "catalog")
        elif self.catalog.has_view(statement.name):
            result.add("SEM003", ERROR,
                       "a view named %r already exists" % statement.name,
                       span, "catalog")
        result.query = self._query(statement.query, None, result)
        result.schema = result.query.schema
        if result.query.reliable:
            seen = set()
            for column in result.schema:
                key = column.name.lower()
                if key in seen:
                    result.add(
                        "SEM003", ERROR,
                        "view %r would have duplicate column %r"
                        % (statement.name, column.name),
                        span, "catalog")
                seen.add(key)

    def _create_table(self, statement, result):
        span = span_of(statement)
        if self.catalog.has_object(statement.name):
            result.add("SEM003", ERROR,
                       "object %r already exists" % statement.name,
                       span, "catalog")
        seen = set()
        for definition in statement.columns:
            key = definition.name.lower()
            if key in seen:
                result.add("SEM003", ERROR,
                           "duplicate column %r in table %r"
                           % (definition.name, statement.name),
                           span_of(definition) or span, "catalog")
            seen.add(key)
            self._check_type_name(definition.type_name,
                                  span_of(definition) or span, result)

    def _insert(self, statement, result):
        span = span_of(statement)
        if not self.catalog.has_table(statement.table):
            result.add("SEM003", ERROR,
                       "no table named %r" % statement.table, span, "catalog")
            if statement.query is not None:
                self._query(statement.query, None, result)
            return
        table = self.catalog.get_table(statement.table)
        width = len(table.columns)
        if statement.columns is not None:
            width = len(statement.columns)
            for name in statement.columns:
                try:
                    table.column_index(name)
                except CatalogError as error:
                    result.add("SEM003", ERROR, str(error), span, "catalog")
        if statement.query is not None:
            result.query = self._query(statement.query, None, result)
            # Arity problems in INSERT ... SELECT only surface at runtime when
            # the query yields rows, so they can never be definite errors.
            schema = result.query.schema
            if result.query.reliable and len(schema) != width:
                result.add(
                    "SEM014", WARNING,
                    "INSERT query produces %d columns for %d target columns"
                    % (len(schema), width), span)
            return
        for row in statement.rows:
            for expr in row:
                if not isinstance(expr, ast.Literal):
                    result.add("SEM014", ERROR, "INSERT VALUES must be literals",
                               span_of(expr) or span)
            if statement.columns is not None:
                if len(row) != width:
                    result.add("SEM014", ERROR, "INSERT arity mismatch", span)
            elif len(row) < len(table.columns):
                result.add(
                    "SEM014", ERROR,
                    "row arity %d does not match table %r arity %d"
                    % (len(row), table.name, len(table.columns)),
                    span, "catalog")
            elif len(row) > len(table.columns):
                result.add(
                    "SEM014", WARNING,
                    "INSERT provides %d values for %d columns; extras are ignored"
                    % (len(row), len(table.columns)), span)

    def _alter_column(self, statement, result):
        span = span_of(statement)
        if not self.catalog.has_table(statement.table):
            result.add("SEM003", ERROR,
                       "no table named %r" % statement.table, span, "catalog")
            return
        table = self.catalog.get_table(statement.table)
        try:
            table.column_index(statement.column)
        except CatalogError as error:
            result.add("SEM003", ERROR, str(error), span, "catalog")
        self._check_type_name(statement.type_name, span, result)

    def _check_type_name(self, type_name, span, result):
        try:
            return resolve_type_name(type_name)
        except TypeCheckError as error:
            result.add("SEM005", ERROR, str(error), span, "type")
            return SQLType.UNKNOWN

    # -- queries ------------------------------------------------------------

    def _query(self, query, outer_scope, result):
        """Bind a query expression; returns its BoundSelect/BoundSetOperation.

        The bound query's ``reliable`` is False when the column list could
        not be fully determined (a star over an unresolvable source), in
        which case arity-sensitive checks downstream are skipped.
        """
        if isinstance(query, ast.WithQuery):
            return self._with_query(query, outer_scope, result)
        if isinstance(query, ast.SetOperation):
            return self._set_operation(query, outer_scope, result)
        return self._select(query, outer_scope, result)

    def _with_query(self, query, outer_scope, result):
        """Non-recursive CTEs, bound once at their definition.

        Each CTE sees the name scope at its definition point
        (:func:`cte_scopes`).  The planner inlines the bound body at every
        reference (SQL Server expands non-materialized CTEs too), so the
        body's Phase-2 facts are counted once per reference.
        """
        base_layers = list(self._cte_stack)
        members = {}
        for cte, visible in cte_scopes(query):
            layer = {member.name.lower(): members[id(member)]
                     for member in visible}
            if cte is None:
                break
            if cte.name.lower() in layer:
                result.add("SEM010", ERROR,
                           "duplicate CTE name %r" % cte.name, span_of(cte))
            buffered = []
            refs = set()
            saved = (self._cte_stack, result.diagnostics, self._info)
            self._cte_stack = base_layers + [layer]
            self._ref_stack.append((refs, len(self._cte_stack)))
            result.diagnostics = buffered
            self._info = PlanInfo()
            self._depth += 1
            try:
                bound = self._query(cte.query, None, result)
            finally:
                self._depth -= 1
                info = self._info
                self._cte_stack, result.diagnostics, self._info = saved
                self._ref_stack.pop()
            schema = bound.schema
            if cte.columns is not None:
                if bound.reliable and len(cte.columns) != len(schema):
                    buffered.append(Diagnostic(
                        "SEM010", ERROR,
                        "CTE %r declares %d columns but produces %d"
                        % (cte.name, len(cte.columns), len(schema)),
                        span_of(cte)))
                schema = [
                    column.renamed(name=name)
                    for column, name in zip(schema, cte.columns)
                ]
            member = _CTE(cte.name, cte, bound, schema, buffered, info)
            member.refs = refs
            members[id(cte)] = member
        self._cte_stack.append(layer)
        try:
            body = self._query(query.body, outer_scope, result)
        finally:
            self._cte_stack.pop()
        # Usedness is transitive: a CTE referenced only from another *used*
        # CTE is expanded by the planner too.
        worklist = [member for member in members.values() if member.used]
        while worklist:
            for dep in worklist.pop().refs:
                if not dep.used:
                    dep.used = True
                    worklist.append(dep)
        for member in members.values():
            if member.used:
                result.diagnostics.extend(member.diagnostics)
            else:
                result.unused_ctes.append(member.node)
                # An unreferenced CTE is never planned, so its problems
                # cannot fail the statement: report them, but only as
                # warnings.
                for diagnostic in member.diagnostics:
                    if diagnostic.severity == ERROR:
                        diagnostic.severity = WARNING
                        diagnostic.message += " (in unused CTE %r)" % member.name
                    result.diagnostics.append(diagnostic)
        return body

    def _resolve_cte(self, name):
        """Return ``(member, layer_index)`` for a visible CTE, or None."""
        lowered = name.lower()
        for index in range(len(self._cte_stack) - 1, -1, -1):
            layer = self._cte_stack[index]
            if lowered in layer:
                return layer[lowered], index
        return None

    def _set_operation(self, query, outer_scope, result):
        left = self._query(query.left, outer_scope, result)
        right = self._query(query.right, outer_scope, result)
        reliable = left.reliable and right.reliable
        if reliable and len(left.schema) != len(right.schema):
            result.add("SEM009", ERROR,
                       "set operation arity mismatch: %d vs %d"
                       % (len(left.schema), len(right.schema)),
                       span_of(query))
        schema = [
            OutputColumn(first.name, unify_types(first.sql_type, second.sql_type),
                         source_table=first.source_table,
                         source_column=first.source_column)
            for first, second in zip(left.schema, right.schema)
        ]
        bound = BoundSetOperation(query.op, query.all, left, right, schema,
                                  reliable)
        if query.order_by:
            scope = Scope(schema, parent=outer_scope, unknown=not reliable)
            for item in query.order_by:
                key = self._positional(item, schema, reliable, result)
                if key is None:
                    key = self._expr(item.expr, scope, None, _Context(), result)
                bound.order.append((key, item.descending, None))
        return bound

    def _positional(self, item, columns, reliable, result):
        """The key of ``ORDER BY 2``, or None when the item is not positional."""
        expr = item.expr
        if not (isinstance(expr, ast.Literal) and isinstance(expr.value, int)):
            return None
        if 1 <= expr.value <= len(columns):
            column = columns[expr.value - 1]
            return BoundColumn(expr.value - 1, column.sql_type, column.name)
        if reliable:
            result.add("SEM011", ERROR,
                       "ORDER BY position %d out of range" % expr.value,
                       span_of(item) or span_of(expr))
        return BoundExpr(SQLType.UNKNOWN)

    # -- SELECT -------------------------------------------------------------

    def _select(self, select, outer_scope, result):
        sources = []
        bound = BoundSelect(select, sources, self._depth, result.statement)
        from_reliable = True
        columns = []
        if select.from_clause is not None:
            bound.source = self._from(select.from_clause, outer_scope, sources,
                                      result)
            columns, from_reliable = bound.source.schema, bound.source.reliable
        unknown_source = any(source.unknown for source in sources)
        scope = Scope(columns, parent=outer_scope, unknown=unknown_source)
        source_scope = scope

        if select.where is not None:
            bound.where = self._expr(select.where, scope, None, _Context(), result)

        aggregate_calls = self._collect_aggregates(select)
        replacements = None
        if select.group_by or aggregate_calls:
            scope, replacements = self._aggregate(
                select, bound, scope, outer_scope, aggregate_calls, result)

        context = _Context(group_fallback=source_scope if replacements else None)
        if select.having is not None:
            bound.having = self._expr(select.having, scope, replacements,
                                      context, result)

        windows = self._collect_windows(select)
        if windows:
            if replacements is None:
                replacements = {}
            scope = self._windows(windows, bound, scope, outer_scope,
                                  replacements, context, result)

        for item in select.items:
            if isinstance(item.expr, ast.Star):
                self._star(item, bound, scope, result)
                continue
            expr = self._expr(item.expr, scope, replacements, context, result)
            name = item.alias or self._derive_name(item.expr)
            source_table = source_column = None
            if isinstance(item.expr, ast.ColumnRef):
                status, _levels, _slot, resolved = scope.resolve(
                    item.expr.name, item.expr.table)
                if status == "ok":
                    source_table = resolved.source_table
                    source_column = resolved.source_column
            bound.items.append(expr)
            bound.schema.append(OutputColumn(
                name, expr.sql_type,
                source_table=source_table, source_column=source_column))

        if select.order_by:
            self._order_by(select, bound, scope, replacements, context,
                           outer_scope, result)

        bound.aggregated = replacements is not None
        bound.reliable = from_reliable and bound.reliable
        result.selects.append(bound)
        return bound

    def _star(self, item, bound, scope, result):
        """Expand ``*`` / ``t.*`` into slot references over ``scope``."""
        star = item.expr
        qualifier = star.table.lower() if star.table else None
        matches = [
            (slot, column) for slot, column in enumerate(scope.columns)
            if qualifier is None or (column.qualifier or "").lower() == qualifier
        ]
        if not matches:
            if scope.tainted():
                bound.reliable = False
            else:
                result.add("SEM012", ERROR,
                           "no columns match %s.*" % (star.table or ""),
                           span_of(item) or span_of(star))
            return
        names = [column.name.lower() for column in scope.columns]
        if len(set(names)) < len(names):
            self._ambiguous_star(item, scope, matches, result)
        for slot, column in matches:
            result.used_columns.add(id(column))
            self._reference(column)
            bound.items.append(BoundColumn(slot, column.sql_type, column.name))
            bound.schema.append(OutputColumn(
                column.name, column.sql_type,
                source_table=column.source_table,
                source_column=column.source_column))

    def _ambiguous_star(self, item, scope, matches, result):
        """An expanded column must still name exactly one column of its
        source, qualified as the source shows it."""
        names, pairs = {}, {}
        for column in scope.columns:
            name = column.name.lower()
            key = (name, (column.qualifier or "").lower())
            names[name] = names.get(name, 0) + 1
            pairs[key] = pairs.get(key, 0) + 1
        reported = set()
        for _slot, column in matches:
            name = column.name.lower()
            count = pairs[(name, column.qualifier.lower())] \
                if column.qualifier else names[name]
            if count > 1 and name not in reported:
                reported.add(name)
                result.add("SEM002", ERROR,
                           "ambiguous column reference %r in the expansion "
                           "of %s*" % (column.name, item.expr.table + "."
                                       if item.expr.table else ""),
                           span_of(item) or span_of(item.expr))

    def _order_by(self, select, bound, scope, replacements, context,
                  outer_scope, result):
        """Bind ORDER BY keys: first against the select list, else against
        the projection's input (the item then sorts on a hidden column)."""
        order_scope = Scope(bound.schema, parent=outer_scope,
                            unknown=not bound.reliable)
        for item in select.order_by:
            key = self._positional(item, bound.schema, bound.reliable, result)
            if key is None:
                key = self._attempt(item.expr, order_scope, result)
            if key is not None:
                bound.order.append((key, item.descending, None))
                continue
            key = self._expr(item.expr, scope, replacements, context, result)
            if select.distinct:
                result.add("SEM011", ERROR,
                           "ORDER BY items must appear in the select list "
                           "if SELECT DISTINCT is specified",
                           span_of(item) or span_of(item.expr))
            hidden = OutputColumn(self._fresh_name("Hidden"), key.sql_type)
            bound.order.append((key, item.descending, hidden))

    def _attempt(self, expr, scope, result):
        """Bind ``expr`` over ``scope`` if it binds cleanly there, else None.

        Everything the attempt would record — diagnostics, types, Phase-2
        facts, generated names, correlation — is kept only on success.
        """
        scratch = AnalysisResult(result.statement)
        saved_info, saved_names = self._info, self._names
        saved_frame = self._frames[-1] if self._frames else None
        self._info = PlanInfo()
        try:
            bound = self._expr(expr, scope, None, _Context(), scratch)
        finally:
            info, self._info = self._info, saved_info
        if not scratch.ok:
            self._names = saved_names
            if self._frames:
                self._frames[-1] = saved_frame
            return None
        result.absorb(scratch)
        self._info.merge(info)
        return bound

    # -- FROM ---------------------------------------------------------------

    def _from(self, node, outer_scope, sources, result):
        if isinstance(node, ast.TableRef):
            return self._table_ref(node, sources, result)
        if isinstance(node, ast.SubqueryRef):
            self._depth += 1
            try:
                inner = self._query(node.query, outer_scope, result)
            finally:
                self._depth -= 1
            schema = [column.renamed(qualifier=node.alias)
                      for column in inner.schema]
            source = SourceInfo("derived", node.alias, node.alias, node.alias,
                                schema, node, query=inner,
                                unknown=not inner.reliable)
            sources.append(source)
            return source
        left = self._from(node.left, outer_scope, sources, result)
        right = self._from(node.right, outer_scope, sources, result)
        schema = left.schema + right.schema
        condition = None
        if node.condition is not None:
            unknown = any(source.unknown for source in sources)
            scope = Scope(schema, parent=outer_scope, unknown=unknown)
            condition = self._expr(node.condition, scope, None, _Context(),
                                   result)
        return BoundJoin(node.kind, left, right, condition, schema)

    def _table_ref(self, node, sources, result):
        resolved_cte = self._resolve_cte(node.name)
        if resolved_cte is not None:
            cte, layer_index = resolved_cte
            if self._ref_stack and layer_index < self._ref_stack[-1][1]:
                # Inside another CTE's body: record a dependency; whether it
                # counts as "used" depends on whether *that* CTE is used.
                self._ref_stack[-1][0].add(cte)
            else:
                cte.used = True
            self._info.merge(cte.info)
            qualifier = node.alias or node.name
            schema = [column.renamed(qualifier=qualifier)
                      for column in cte.schema]
            source = SourceInfo("cte", node.name, node.alias, qualifier, schema,
                                node, query=cte.query,
                                unknown=not cte.query.reliable)
            sources.append(source)
            return source
        qualifier = node.alias or node.name.split(".")[-1]
        try:
            kind, obj, version = self.catalog.resolve(node.name)
        except CatalogError as error:
            result.add("SEM003", ERROR, str(error), span_of(node), "catalog")
            return self._unknown_source(node, qualifier, sources)
        self._versions.setdefault(obj.name.lower(), version)
        if kind == "table":
            self._info.tables.add(obj.name)
            self._tables[obj.name.lower()] = obj
            schema = [
                OutputColumn(column.name, column.sql_type, qualifier=qualifier,
                             source_table=obj.name, source_column=column.name)
                for column in obj.columns
            ]
            source = SourceInfo("table", obj.name, node.alias, qualifier,
                                schema, node, table=obj)
            sources.append(source)
            return source
        body = self._view_body(node, obj, result)
        if body is None:
            return self._unknown_source(node, qualifier, sources)
        # Declared names, bound types and provenance.
        schema = [
            OutputColumn(declared.name, actual.sql_type, qualifier=qualifier,
                         source_table=actual.source_table,
                         source_column=actual.source_column)
            for declared, actual in zip(obj.columns, body.schema)
        ]
        source = SourceInfo("view", obj.name, node.alias, qualifier, schema,
                            node, query=body)
        sources.append(source)
        return source

    def _unknown_source(self, node, qualifier, sources):
        source = SourceInfo("unknown", node.name, node.alias, qualifier, [],
                            node, unknown=True)
        sources.append(source)
        return source

    def _view_body(self, node, view, result):
        """Bind a view's stored query where the view is referenced.

        The body is bound in isolation — no CTEs or outer columns are
        visible, and its findings stay out of ``result`` — so a broken view
        surfaces as one error at the reference.  Its Phase-2 facts count.
        """
        scratch = AnalysisResult(view.query)
        saved = (self._info, self._cte_stack, self._ref_stack, self._frames,
                 self._depth)
        self._info, self._cte_stack, self._ref_stack, self._frames = (
            PlanInfo(), [], [], [])
        try:
            body = self._query(view.query, None, scratch)
        finally:
            info = self._info
            (self._info, self._cte_stack, self._ref_stack, self._frames,
             self._depth) = saved
        if not scratch.ok:
            first = scratch.errors()[0]
            result.add(first.code, ERROR,
                       "view %r cannot be expanded: %s"
                       % (view.name, first.message),
                       span_of(node), first.category)
            return None
        if _is_trivial_wrapper(view.query):
            # A wrapper view's SELECT * references every column by
            # construction; counting those would make every query look like
            # it touches the whole table.  Only the outer query's own
            # references count, as after projection pruning.
            info.columns = set()
        info.views.add(view.name)
        self._info.merge(info)
        return body

    # -- aggregation ----------------------------------------------------------

    def _collect_aggregates(self, select):
        """Aggregate calls outside OVER clauses and subqueries."""
        found = []
        seen = set()

        def visit(node, inside_window):
            if isinstance(node, _LEAVES):
                return
            if isinstance(node, ast.WindowFunction):
                for child in node.children():
                    visit(child, True)
                return
            if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
                return
            if (isinstance(node, ast.FuncCall)
                    and aggregates.is_aggregate_name(node.name)
                    and not inside_window):
                if node not in seen:
                    seen.add(node)
                    found.append(node)
                return
            for child in node.children():
                visit(child, inside_window)

        for item in select.items:
            visit(item.expr, False)
        if select.having is not None:
            visit(select.having, False)
        for order in select.order_by:
            visit(order.expr, False)
        return found

    def _aggregate(self, select, bound, scope, outer_scope, aggregate_calls,
                   result):
        """Bind GROUP BY keys and aggregate arguments over the FROM row.

        Returns the aggregate output scope and the replacement map that
        routes every grouped expression and aggregate call (by structural
        equality) to its slot in that output.
        """
        replacements = {}
        schema = []
        group_context = _Context()
        for group_expr in select.group_by:
            key = self._expr(group_expr, scope, None, group_context, result)
            stats = None
            column = None
            if isinstance(group_expr, ast.ColumnRef):
                status, _levels, _slot, resolved = scope.resolve(
                    group_expr.name, group_expr.table)
                if status == "ok":
                    column = OutputColumn(
                        resolved.name, key.sql_type, qualifier=resolved.qualifier,
                        source_table=resolved.source_table,
                        source_column=resolved.source_column)
                    table = self._tables.get((resolved.source_table or "").lower())
                    if table is not None:
                        stats = (table, resolved.source_column or resolved.name)
                else:
                    column = OutputColumn(group_expr.name, key.sql_type)
            if column is None:
                column = OutputColumn(self._fresh_name(), key.sql_type)
            replacements[group_expr] = BoundColumn(len(schema), key.sql_type,
                                                   column.name)
            schema.append(column)
            bound.group_keys.append(key)
            bound.key_stats.append(stats)
        argument_context = _Context(in_aggregate=True)
        for call in aggregate_calls:
            star = bool(call.args and isinstance(call.args[0], ast.Star)) \
                or not call.args
            arg = None
            arg_type = SQLType.INT
            if not star:
                arg = self._expr(call.args[0], scope, None, argument_context,
                                 result)
                arg_type = arg.sql_type
                if len(call.args) > 1:
                    result.add(
                        "SEM006", WARNING,
                        "aggregate %s takes one argument; extras are ignored"
                        % call.name.upper(), span_of(call))
            result_type = aggregates.result_type(call.name, arg_type)
            result.types[id(call)] = result_type
            name = self._fresh_name()
            replacements[call] = BoundColumn(len(schema), result_type, name)
            schema.append(OutputColumn(name, result_type))
            bound.aggregates.append((call.name, arg, call.distinct))
        bound.aggregate_schema = schema
        aggregate_scope = Scope(schema, parent=outer_scope,
                                unknown=scope.tainted())
        return aggregate_scope, replacements

    def _collect_windows(self, select):
        found = []
        seen = set()
        for expr in [item.expr for item in select.items] + \
                [order.expr for order in select.order_by]:
            if isinstance(expr, _LEAVES):
                continue
            for node in expr.walk():
                if isinstance(node, ast.WindowFunction) and node not in seen:
                    seen.add(node)
                    found.append(node)
        return found

    def _windows(self, nodes, bound, scope, outer_scope, replacements, context,
                 result):
        """Bind every window function; each gets a slot after the input row.

        Window arguments see the aggregate replacements but not each other.
        """
        argument_replacements = dict(replacements)
        schema = list(scope.columns)
        for node in nodes:
            spec = self._window(node, scope, argument_replacements, context,
                                result)
            name = self._fresh_name("WindowExpr")
            replacements[node] = BoundColumn(len(schema), spec.sql_type, name)
            schema.append(OutputColumn(name, spec.sql_type))
            bound.windows.append(spec)
        bound.window_schema = schema
        return Scope(schema, parent=outer_scope, unknown=scope.tainted())

    def _window(self, node, scope, replacements, context, result):
        func = node.func
        name = func.name.lower()
        span = span_of(node) or span_of(func)
        self._info.expression_ops.append(name)
        arg = default = ntile_buckets = None
        offset = 1
        if name in RANKING_FUNCTIONS:
            if name == "ntile":
                if not func.args or not isinstance(func.args[0], ast.Literal):
                    result.add("SEM007", ERROR,
                               "NTILE requires a literal bucket count", span)
                else:
                    ntile_buckets = int(func.args[0].value)
            elif func.args:
                result.add("SEM007", ERROR,
                           "%s takes no arguments" % name.upper(), span)
            if not node.order_by:
                result.add("SEM007", ERROR,
                           "%s requires ORDER BY in OVER()" % name.upper(), span)
        elif name in NAVIGATION_FUNCTIONS:
            if not func.args:
                result.add("SEM007", ERROR,
                           "%s requires an argument" % name.upper(), span)
            if not node.order_by:
                result.add("SEM007", ERROR,
                           "%s requires ORDER BY in OVER()" % name.upper(), span)
            if func.args:
                arg = self._expr(func.args[0], scope, replacements, context,
                                 result)
            if name in ("lag", "lead"):
                if len(func.args) >= 2:
                    if isinstance(func.args[1], ast.Literal):
                        offset = int(func.args[1].value)
                    else:
                        result.add("SEM007", ERROR,
                                   "%s offset must be a literal" % name.upper(),
                                   span)
                if len(func.args) >= 3:
                    default = self._expr(func.args[2], scope, replacements,
                                         context, result)
            elif len(func.args) > 1:
                result.add("SEM007", ERROR,
                           "%s takes one argument" % name.upper(), span)
        elif aggregates.is_aggregate_name(name):
            star = bool(func.args and isinstance(func.args[0], ast.Star)) \
                or not func.args
            if not star:
                arg = self._expr(func.args[0], scope, replacements, context,
                                 result)
        else:
            result.add("SEM007", ERROR,
                       "unsupported window function %r" % name, span)
        partitions = [self._expr(expr, scope, replacements, context, result)
                      for expr in node.partition_by]
        orders = [self._expr(item.expr, scope, replacements, context, result)
                  for item in node.order_by]
        spec = WindowSpec(name, arg, partitions, orders,
                          [item.descending for item in node.order_by],
                          ntile_buckets, offset=offset, default_expr=default)
        result.types[id(node)] = spec.sql_type
        return spec

    # -- expressions ----------------------------------------------------------

    def _expr(self, node, scope, replacements, context, result):
        """Bind one expression; returns a BoundExpr (a bare, typed
        ``BoundExpr`` placeholder where an error was reported)."""
        if replacements:
            bound = replacements.get(node)
            if bound is None:
                bound = self._expr_inner(node, scope, replacements, context,
                                         result)
        else:
            bound = self._expr_inner(node, scope, replacements, context, result)
        result.types[id(node)] = bound.sql_type
        return bound

    def _expr_inner(self, node, scope, replacements, context, result):
        if isinstance(node, ast.Literal):
            return BoundLiteral(node.value)
        if isinstance(node, ast.ColumnRef):
            return self._column_ref(node, scope, context, result)
        if isinstance(node, ast.BinaryOp):
            left = self._expr(node.left, scope, replacements, context, result)
            right = self._expr(node.right, scope, replacements, context, result)
            if node.op in _ARITHMETIC_OPS:
                self._info.expression_ops.append(_ARITHMETIC_OPS[node.op])
            return BoundBinary(node.op, left, right,
                               binary_result_type(node.op, left, right))
        if isinstance(node, ast.FuncCall):
            return self._func_call(node, scope, replacements, context, result)
        if isinstance(node, ast.UnaryOp):
            return BoundUnary(node.op, self._expr(node.operand, scope,
                                                  replacements, context, result))
        if isinstance(node, ast.IsNull):
            return BoundIsNull(self._expr(node.operand, scope, replacements,
                                          context, result), node.negated)
        if isinstance(node, ast.Like):
            self._info.expression_ops.append("like")
            return BoundLike(
                self._expr(node.operand, scope, replacements, context, result),
                self._expr(node.pattern, scope, replacements, context, result),
                node.negated)
        if isinstance(node, ast.Between):
            operand, low, high = [
                self._expr(child, scope, replacements, context, result)
                for child in (node.operand, node.low, node.high)]
            # Sargable BETWEEN turns into a dynamic index range in SQL
            # Server, surfacing the GetRange* intrinsics that dominate the
            # SDSS workload's expression distribution (Table 4b).
            if isinstance(operand, (BoundColumn, BoundOuterColumn)):
                self._info.expression_ops.append("GetRangeThroughConvert")
                if operand.sql_type != low.sql_type \
                        or operand.sql_type != high.sql_type:
                    self._info.expression_ops.append(
                        "GetRangeWithMismatchedTypes")
            return BoundBetween(operand, low, high, node.negated)
        if isinstance(node, ast.InList):
            operand = self._expr(node.operand, scope, replacements, context,
                                 result)
            items = [self._expr(item, scope, replacements, context, result)
                     for item in node.items]
            return BoundInList(operand, items, node.negated)
        if isinstance(node, ast.InSubquery):
            query, correlated = self._subquery(node.subquery, scope, result)
            if query.reliable and len(query.schema) != 1:
                result.add("SEM008", ERROR,
                           "IN subquery must return exactly one column",
                           span_of(node))
            operand = self._expr(node.operand, scope, replacements, context,
                                 result)
            return BoundInSubquery(operand, query, correlated, node.negated)
        if isinstance(node, ast.Exists):
            query, correlated = self._subquery(node.subquery, scope, result)
            return BoundExists(query, correlated, node.negated)
        if isinstance(node, ast.ScalarSubquery):
            query, correlated = self._subquery(node.subquery, scope, result)
            if query.reliable and len(query.schema) != 1:
                result.add("SEM008", ERROR,
                           "scalar subquery must return exactly one column",
                           span_of(node))
            sql_type = query.schema[0].sql_type if query.schema \
                else SQLType.UNKNOWN
            return BoundScalarSubquery(query, sql_type, correlated)
        if isinstance(node, ast.Case):
            return self._case(node, scope, replacements, context, result)
        if isinstance(node, ast.Cast):
            self._info.expression_ops.append("CAST")
            target = self._check_type_name(node.type_name, span_of(node), result)
            operand = self._expr(node.operand, scope, replacements, context,
                                 result)
            return BoundCast(operand, target, node.try_cast)
        if isinstance(node, ast.WindowFunction):
            result.add("SEM007", ERROR,
                       "window function %s used outside a select list"
                       % node.func.name.upper(), span_of(node))
            return BoundExpr(SQLType.UNKNOWN)
        if isinstance(node, ast.Star):
            result.add("SEM012", ERROR,
                       "'*' is only allowed in a select list or COUNT(*)",
                       span_of(node))
            return BoundExpr(SQLType.UNKNOWN)
        result.add("SEM004", ERROR,
                   "cannot bind %s here" % type(node).__name__, span_of(node))
        return BoundExpr(SQLType.UNKNOWN)

    def _column_ref(self, node, scope, context, result):
        status, levels, slot, column = scope.resolve(node.name, node.table)
        if status == "ok":
            result.used_columns.add(id(column))
            result.resolutions.append((node, column))
            self._reference(column)
            if levels == 0:
                return BoundColumn(slot, column.sql_type, column.name)
            if self._frames:
                self._frames[-1] = True
            return BoundOuterColumn(levels, slot, column.sql_type, column.name)
        if status == "ambiguous":
            result.add("SEM002", ERROR,
                       "ambiguous column reference %r" % node.name,
                       span_of(node))
            return BoundExpr(SQLType.UNKNOWN)
        if status == "suppressed":
            return BoundExpr(SQLType.UNKNOWN)
        # Unknown — distinguish "not grouped" from "does not exist".
        if context.group_fallback is not None:
            fallback_status, _levels, _slot, column = \
                context.group_fallback.resolve(node.name, node.table)
            if fallback_status == "ok":
                result.used_columns.add(id(column))
                result.add(
                    "SEM013", ERROR,
                    "column %r must appear in the GROUP BY clause or be used "
                    "in an aggregate" % node.name, span_of(node))
                return BoundExpr(column.sql_type)
        if node.table:
            message = "unknown column %s.%s" % (node.table, node.name)
        else:
            message = "unknown column %r" % node.name
        result.add("SEM001", ERROR, message, span_of(node))
        return BoundExpr(SQLType.UNKNOWN)

    def _reference(self, column):
        """Record a base-table column reference (Phase 2)."""
        if column.source_table is not None:
            self._info.columns.add(
                (column.source_table, column.source_column or column.name))

    def _case(self, node, scope, replacements, context, result):
        whens = []
        result_type = SQLType.UNKNOWN
        operand = None
        for condition, branch in node.whens:
            if node.operand is not None:
                # ``CASE x WHEN a`` is ``CASE WHEN x = a``: the plan holds
                # the operand once per branch, and so do the Phase-2 counts.
                if operand is None:
                    mark = len(self._info.expression_ops)
                    operand = self._expr(node.operand, scope, replacements,
                                         context, result)
                    operand_ops = self._info.expression_ops[mark:]
                else:
                    self._info.expression_ops.extend(operand_ops)
                bound_condition = BoundBinary(
                    "=", operand,
                    self._expr(condition, scope, replacements, context, result),
                    SQLType.BIT)
            else:
                bound_condition = self._expr(condition, scope, replacements,
                                             context, result)
            bound_branch = self._expr(branch, scope, replacements, context,
                                      result)
            result_type = unify_types(result_type, bound_branch.sql_type)
            whens.append((bound_condition, bound_branch))
        else_result = None
        if node.else_result is not None:
            else_result = self._expr(node.else_result, scope, replacements,
                                     context, result)
            result_type = unify_types(result_type, else_result.sql_type)
        self._info.expression_ops.append("CASE")
        return BoundCase(whens, else_result, result_type)

    def _func_call(self, node, scope, replacements, context, result):
        name = node.name.lower()
        if aggregates.is_aggregate_name(name):
            # Not rewritten by the aggregation step: aggregates are only
            # legal in the select list, HAVING and ORDER BY.
            if context.in_aggregate:
                message = "aggregate %s cannot be nested inside an aggregate" \
                    % name.upper()
            else:
                message = "aggregate %s is not allowed here" % name.upper()
            result.add("SEM006", ERROR, message, span_of(node))
            for arg in node.args:
                if not isinstance(arg, ast.Star):
                    self._expr(arg, scope, replacements, context, result)
            return BoundExpr(aggregates.result_type(name, SQLType.UNKNOWN))
        try:
            func = functions.lookup(name, len(node.args))
        except BindError as error:
            func = None
            result.add("SEM004", ERROR, str(error), span_of(node))
        else:
            self._info.expression_ops.append(func.name)
        args = []
        for arg in node.args:
            if isinstance(arg, ast.Star):
                result.add("SEM012", ERROR,
                           "'*' is only allowed in a select list or COUNT(*)",
                           span_of(arg) or span_of(node))
                args.append(BoundExpr(SQLType.UNKNOWN))
                continue
            args.append(self._expr(arg, scope, replacements, context, result))
        if func is None:
            return BoundExpr(SQLType.UNKNOWN)
        return BoundFunc(func, args)

    def _subquery(self, query, scope, result):
        """Bind a subquery; returns ``(bound query, correlated)``."""
        self._depth += 1
        self._frames.append(False)
        try:
            bound = self._query(query, scope, result)
        finally:
            self._depth -= 1
            correlated = self._frames.pop()
        if correlated and self._frames:
            # Correlation may reach past the immediate scope.
            self._frames[-1] = True
        return bound, correlated

    # -- naming ---------------------------------------------------------------

    def _fresh_name(self, prefix="Expr"):
        self._names += 1
        return "%s%04d" % (prefix, 1000 + self._names)

    def _derive_name(self, expr):
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.Cast) and isinstance(expr.operand, ast.ColumnRef):
            return expr.operand.name
        return self._fresh_name()


def _is_trivial_wrapper(query):
    """Whether a view query is the auto-generated ``SELECT * FROM t``."""
    return (
        isinstance(query, ast.Select)
        and len(query.items) == 1
        and isinstance(query.items[0].expr, ast.Star)
        and query.items[0].expr.table is None
        and isinstance(query.from_clause, ast.TableRef)
        and query.where is None
        and not query.group_by
        and not query.order_by
        and not query.distinct
        and query.top is None
    )
