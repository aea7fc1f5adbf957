"""Built-in lint rules (LINT001-LINT012).

Each rule consumes the semantic analyzer's :class:`AnalysisResult` — the
per-SELECT source lists, the inferred type of every expression and the
used-column sets — plus the catalog for table statistics.  Rules yield
``(severity, message, span)`` with ``severity=None`` meaning the rule's
default.
"""

from repro.engine import aggregates
from repro.engine import ast_nodes as ast
from repro.engine.ast_nodes import span_of
from repro.engine.types import SQLType, is_numeric, is_temporal
from repro.errors import INFO, WARNING
from repro.lint.engine import rule

_COMPARISONS = ("=", "<>", "<", ">", "<=", ">=")
_SUBQUERY_NODES = (ast.ScalarSubquery, ast.Exists, ast.InSubquery)

#: Estimated cross-product size above which LINT011 fires.
CARTESIAN_ROW_THRESHOLD = 100000


def _walk_shallow(expr):
    """Walk an expression without descending into subquery bodies."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SUBQUERY_NODES):
            if isinstance(node, ast.InSubquery):
                stack.append(node.operand)
            continue
        stack.extend(node.children())


def _clause_exprs(select):
    """Top-level expressions of one SELECT block."""
    for item in select.items:
        yield item.expr
    if select.where is not None:
        yield select.where
    for expr in select.group_by:
        yield expr
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expr


def _join_conditions(select):
    if select.from_clause is None:
        return
    stack = [select.from_clause]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Join):
            if node.condition is not None:
                yield node.condition
            stack.append(node.left)
            stack.append(node.right)


def _resolution_map(result):
    return {id(node): column for node, column in result.resolutions}


def _side_qualifiers(expr, resolutions):
    qualifiers = set()
    for node in _walk_shallow(expr):
        if isinstance(node, ast.ColumnRef):
            column = resolutions.get(id(node))
            if column is not None and column.qualifier:
                qualifiers.add(column.qualifier.lower())
    return qualifiers


def _components(info, resolutions):
    """Connected components of a SELECT's sources under its predicates.

    Any comparison whose two sides touch different sources counts as a
    connecting edge, whether it appears in a JOIN condition or in WHERE.
    """
    names = [source.qualifier.lower() for source in info.sources
             if source.qualifier]
    parent = {name: name for name in names}

    def find(name):
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(a, b):
        if a in parent and b in parent:
            parent[find(a)] = find(b)

    predicates = list(_join_conditions(info.select))
    if info.select.where is not None:
        predicates.append(info.select.where)
    for predicate in predicates:
        for node in _walk_shallow(predicate):
            if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
                left = _side_qualifiers(node.left, resolutions)
                right = _side_qualifiers(node.right, resolutions)
                for a in left:
                    for b in right:
                        if a != b:
                            union(a, b)
    groups = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)
    return list(groups.values())


@rule("LINT001", "select-star-in-view",
      "SELECT * inside a view definition", WARNING)
def select_star_in_view(result, catalog):
    if not isinstance(result.statement, ast.CreateView):
        return
    for info in result.selects:
        for item in info.select.items:
            if isinstance(item.expr, ast.Star):
                yield (None,
                       "SELECT * in view %r: the view silently changes shape "
                       "when an underlying table does"
                       % result.statement.name,
                       span_of(item) or span_of(result.statement))


@rule("LINT002", "missing-join-predicate",
      "FROM sources not connected by any join predicate", WARNING)
def missing_join_predicate(result, catalog):
    resolutions = _resolution_map(result)
    for info in result.selects:
        if len(info.sources) < 2:
            continue
        components = _components(info, resolutions)
        if len(components) > 1:
            flat = sorted(name for group in components for name in group)
            yield (None,
                   "no join predicate connects %s: the query builds a "
                   "cross product" % ", ".join(repr(n) for n in flat),
                   span_of(info.select))


@rule("LINT003", "non-sargable-predicate",
      "predicate wraps a column in an expression, defeating seeks", WARNING)
def non_sargable_predicate(result, catalog):
    resolutions = _resolution_map(result)

    def wrapped_column(expr):
        """A resolved column buried inside a function/cast/arithmetic.

        Views count too: the planner expands them to base-table scans, so
        the wrapped expression defeats seek pushdown just the same.
        """
        if isinstance(expr, (ast.FuncCall, ast.Cast, ast.BinaryOp, ast.UnaryOp)):
            for node in _walk_shallow(expr):
                if isinstance(node, ast.ColumnRef) and id(node) in resolutions:
                    return node
        return None

    for info in result.selects:
        if info.select.where is None:
            continue
        for node in _walk_shallow(info.select.where):
            if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
                sides = ((node.left, node.right), (node.right, node.left))
                for side, other in sides:
                    if not isinstance(other, ast.Literal):
                        continue
                    column = wrapped_column(side)
                    if column is not None:
                        yield (None,
                               "predicate wraps column %r in an expression; "
                               "it cannot be used for a seek" % column.name,
                               span_of(node))
                        break
            elif isinstance(node, ast.Like):
                pattern = node.pattern
                if (isinstance(pattern, ast.Literal)
                        and isinstance(pattern.value, str)
                        and pattern.value.startswith("%")
                        and isinstance(node.operand, ast.ColumnRef)):
                    yield (None,
                           "LIKE pattern %r starts with a wildcard; the scan "
                           "cannot seek" % pattern.value,
                           span_of(node))


@rule("LINT004", "implicit-coercion",
      "comparison relies on an implicit lossy type conversion", WARNING)
def implicit_coercion(result, catalog):
    def lossy(left, right):
        if SQLType.VARCHAR in (left, right):
            other = right if left is SQLType.VARCHAR else left
            return is_numeric(other) or is_temporal(other)
        return (is_numeric(left) and is_temporal(right)) or \
               (is_temporal(left) and is_numeric(right))

    for node in result.statement.walk():
        if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
            left = result.type_of(node.left)
            right = result.type_of(node.right)
            if lossy(left, right):
                yield (None,
                       "comparison between %s and %s relies on implicit "
                       "conversion" % (left.value, right.value),
                       span_of(node))


@rule("LINT005", "unused-cte",
      "CTE is defined but never referenced", WARNING)
def unused_cte(result, catalog):
    for cte in result.unused_ctes:
        yield (None,
               "CTE %r is defined but never referenced" % cte.name,
               span_of(cte))


@rule("LINT006", "unused-derived-column",
      "derived-table column is never used by the outer query", INFO)
def unused_derived_column(result, catalog):
    for info in result.selects:
        for source in info.sources:
            if source.kind != "derived":
                continue
            unused = [column.name for column in source.schema
                      if id(column) not in result.used_columns]
            if unused and len(unused) < len(source.schema):
                yield (None,
                       "derived table %r computes %s but the outer query "
                       "never uses %s"
                       % (source.qualifier,
                          "columns" if len(unused) > 1 else "a column",
                          ", ".join(repr(n) for n in unused)),
                       span_of(source.node))


@rule("LINT007", "order-by-in-subquery",
      "ORDER BY in a subquery without TOP has no effect", WARNING)
def order_by_in_subquery(result, catalog):
    for info in result.selects:
        if info.depth > 0 and info.select.order_by and info.select.top is None:
            yield (None,
                   "ORDER BY in a subquery has no effect without TOP",
                   span_of(info.select.order_by[0]))


@rule("LINT008", "distinct-with-group-by",
      "DISTINCT is redundant when GROUP BY is present", WARNING)
def distinct_with_group_by(result, catalog):
    for info in result.selects:
        if info.select.distinct and info.select.group_by:
            yield (None,
                   "DISTINCT is redundant: GROUP BY already returns one row "
                   "per group",
                   span_of(info.select))


@rule("LINT009", "unqualified-column",
      "unqualified column reference in a multi-table query", INFO)
def unqualified_column(result, catalog):
    resolutions = _resolution_map(result)
    for info in result.selects:
        if len(info.sources) < 2:
            continue
        names = []
        first_span = None
        for expr in _clause_exprs(info.select):
            for node in _walk_shallow(expr):
                if (isinstance(node, ast.ColumnRef) and node.table is None
                        and id(node) in resolutions):
                    if node.name.lower() not in [n.lower() for n in names]:
                        names.append(node.name)
                    if first_span is None:
                        first_span = span_of(node)
        for condition in _join_conditions(info.select):
            for node in _walk_shallow(condition):
                if (isinstance(node, ast.ColumnRef) and node.table is None
                        and id(node) in resolutions):
                    if node.name.lower() not in [n.lower() for n in names]:
                        names.append(node.name)
                    if first_span is None:
                        first_span = span_of(node)
        if names:
            yield (None,
                   "unqualified column%s %s in a query over %d sources"
                   % ("s" if len(names) > 1 else "",
                      ", ".join(repr(n) for n in names), len(info.sources)),
                   first_span)


@rule("LINT010", "aggregate-mixing",
      "aggregates mixed with plain columns and no GROUP BY", WARNING)
def aggregate_mixing(result, catalog):
    for info in result.selects:
        if info.select.group_by or not info.aggregated:
            continue
        plain = None
        has_aggregate = False

        for item in info.select.items:
            stack = [(item.expr, False)]
            while stack:
                node, inside = stack.pop()
                if isinstance(node, _SUBQUERY_NODES + (ast.WindowFunction,)):
                    continue
                if (isinstance(node, ast.FuncCall)
                        and aggregates.is_aggregate_name(node.name)):
                    has_aggregate = True
                    inside = True
                if isinstance(node, ast.ColumnRef) and not inside:
                    plain = plain or node
                stack.extend((child, inside) for child in node.children())
        if has_aggregate and plain is not None:
            yield (None,
                   "column %r appears alongside aggregates without GROUP BY"
                   % plain.name,
                   span_of(plain))


@rule("LINT011", "cartesian-growth",
      "cross product over large tables (catalog cardinality estimate)", WARNING)
def cartesian_growth(result, catalog):
    resolutions = _resolution_map(result)
    for info in result.selects:
        if len(info.sources) < 2:
            continue
        if len(_components(info, resolutions)) < 2:
            continue
        estimate = 1
        known = 0
        for source in info.sources:
            if source.table is not None:
                rows = getattr(source.table.stats, "row_count", 0) or 0
                if rows:
                    estimate *= rows
                    known += 1
        if known >= 2 and estimate >= CARTESIAN_ROW_THRESHOLD:
            yield (None,
                   "cross product would produce on the order of %d rows "
                   "(%d base tables)" % (estimate, known),
                   span_of(info.select))


@rule("LINT012", "order-by-ordinal",
      "ORDER BY by output position, or by an alias shared by several "
      "output columns", WARNING)
def order_by_ordinal(result, catalog):
    """Fragile top-level ORDER BY targets.

    ``ORDER BY 2`` is legal (SEM011 only rejects out-of-range ordinals) but
    silently re-sorts by a different column the moment someone edits the
    select list; an unqualified name matching two output aliases sorts by
    whichever one the binder happens to pick.  Both are paper-grade query
    smells: hand-edited ad-hoc SQL where the ORDER BY stopped meaning what
    it says.  Subquery ORDER BY is LINT007's business, so only the
    statement's outermost query is checked here.
    """

    def check(order_items, output_names):
        for order in order_items:
            expr = order.expr
            if (isinstance(expr, ast.Literal)
                    and isinstance(expr.value, int)
                    and not isinstance(expr.value, bool)
                    and 1 <= expr.value <= len(output_names)):
                yield (None,
                       "ORDER BY %d sorts by position (currently column %r); "
                       "name the column instead"
                       % (expr.value, output_names[expr.value - 1]),
                       span_of(expr))
            elif isinstance(expr, ast.ColumnRef) and expr.table is None:
                matches = sum(
                    1 for name in output_names
                    if name and name.lower() == expr.name.lower())
                if matches > 1:
                    yield (None,
                           "ORDER BY %r is ambiguous: %d output columns "
                           "share that name" % (expr.name, matches),
                           span_of(expr))

    for info in result.selects:
        if info.depth or not info.select.order_by:
            continue
        names = [column.name for column in info.schema]
        for finding in check(info.select.order_by, names):
            yield finding
    statement = result.statement
    if isinstance(statement, ast.WithQuery):
        statement = statement.body
    if (isinstance(statement, ast.SetOperation)
            and getattr(statement, "order_by", None) and result.schema):
        names = [column.name for column in result.schema]
        for finding in check(statement.order_by, names):
            yield finding
