"""SQL rendering: AST -> canonical SQL text.

The inverse of the parser (round-trip property: ``parse(render(parse(q)))``
equals ``parse(q)``).  Used by tooling to display normalized queries,
and heavily exercised by the property-based tests.
"""

from repro.engine import ast_nodes as ast
from repro.errors import SQLError

_IDENT_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")

_KEYWORD_WORDS = frozenset(
    """select from where group by having order asc desc distinct all top as on
    inner left right full outer cross join union intersect except and or not in
    is null like between exists case when then else end cast convert create
    view table drop insert into values alter column add with over partition
    rows range preceding following unbounded current row true false percent
    offset fetch next first only try_cast""".split()
)


def render_identifier(name):
    """Bracket-quote when the name is not a plain identifier or collides
    with a keyword."""
    if name and all(ch in _IDENT_SAFE for ch in name) and not name[0].isdigit() \
            and name.lower() not in _KEYWORD_WORDS:
        return name
    return "[%s]" % name


def render_literal(value):
    import datetime as _dt
    from decimal import Decimal

    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, Decimal)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, _dt.datetime):
        return "'%s'" % value.strftime("%Y-%m-%d %H:%M:%S")
    if isinstance(value, _dt.date):
        return "'%s'" % value.strftime("%Y-%m-%d")
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    raise SQLError("cannot render literal %r" % (value,))


def render_statement(node):
    """Render any statement AST back to SQL text."""
    if isinstance(node, (ast.Select, ast.SetOperation, ast.WithQuery)):
        return render_query(node)
    if isinstance(node, ast.CreateView):
        return "CREATE VIEW %s AS %s" % (
            render_identifier(node.name), render_query(node.query)
        )
    if isinstance(node, ast.DropView):
        return "DROP VIEW %s%s" % (
            "IF EXISTS " if node.if_exists else "", render_identifier(node.name)
        )
    if isinstance(node, ast.CreateTable):
        columns = ", ".join(
            "%s %s" % (render_identifier(c.name), c.type_name) for c in node.columns
        )
        return "CREATE TABLE %s (%s)" % (render_identifier(node.name), columns)
    if isinstance(node, ast.DropTable):
        return "DROP TABLE %s%s" % (
            "IF EXISTS " if node.if_exists else "", render_identifier(node.name)
        )
    if isinstance(node, ast.Insert):
        return _render_insert(node)
    if isinstance(node, ast.AlterColumn):
        return "ALTER TABLE %s ALTER COLUMN %s %s" % (
            render_identifier(node.table), render_identifier(node.column),
            node.type_name,
        )
    raise SQLError("cannot render %s" % type(node).__name__)


def _render_insert(node):
    target = render_identifier(node.table)
    columns = ""
    if node.columns:
        columns = " (%s)" % ", ".join(render_identifier(c) for c in node.columns)
    if node.query is not None:
        return "INSERT INTO %s%s %s" % (target, columns, render_query(node.query))
    rows = ", ".join(
        "(%s)" % ", ".join(render_expr(value) for value in row) for row in node.rows
    )
    return "INSERT INTO %s%s VALUES %s" % (target, columns, rows)


def render_query(node):
    if isinstance(node, ast.WithQuery):
        ctes = []
        for cte in node.ctes:
            declared = ""
            if cte.columns:
                declared = " (%s)" % ", ".join(
                    render_identifier(c) for c in cte.columns
                )
            ctes.append(
                "%s%s AS (%s)" % (render_identifier(cte.name), declared,
                                  render_query(cte.query))
            )
        return "WITH %s %s" % (", ".join(ctes), render_query(node.body))
    if isinstance(node, ast.SetOperation):
        word = node.op.upper() + (" ALL" if node.all else "")
        text = "%s %s %s" % (
            _paren_term(node.left), word, _paren_term(node.right)
        )
        if node.order_by:
            text += " ORDER BY " + ", ".join(_order_item(i) for i in node.order_by)
        return text
    if isinstance(node, ast.Select):
        return _render_select(node)
    raise SQLError("cannot render %s as a query" % type(node).__name__)


def _paren_term(node):
    if isinstance(node, ast.Select) and not node.order_by:
        return render_query(node)
    return "(%s)" % render_query(node)


def _render_select(node):
    parts = ["SELECT"]
    if node.distinct:
        parts.append("DISTINCT")
    if node.top is not None:
        parts.append("TOP %d%s" % (node.top, " PERCENT" if node.top_percent else ""))
    parts.append(", ".join(_select_item(item) for item in node.items))
    if node.from_clause is not None:
        parts.append("FROM " + _table_source(node.from_clause))
    if node.where is not None:
        parts.append("WHERE " + render_expr(node.where))
    if node.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e) for e in node.group_by))
    if node.having is not None:
        parts.append("HAVING " + render_expr(node.having))
    if node.order_by:
        parts.append("ORDER BY " + ", ".join(_order_item(i) for i in node.order_by))
    return " ".join(parts)


def _select_item(item):
    if isinstance(item.expr, ast.Star):
        text = "%s.*" % render_identifier(item.expr.table) if item.expr.table else "*"
        return text
    text = render_expr(item.expr)
    if item.alias:
        text += " AS %s" % render_identifier(item.alias)
    return text


def _order_item(item):
    return render_expr(item.expr) + (" DESC" if item.descending else "")


def _table_source(node):
    if isinstance(node, ast.TableRef):
        text = render_identifier(node.name)
        if node.alias:
            text += " AS %s" % render_identifier(node.alias)
        return text
    if isinstance(node, ast.SubqueryRef):
        return "(%s) AS %s" % (render_query(node.query), render_identifier(node.alias))
    if isinstance(node, ast.Join):
        left = _table_source(node.left)
        right = _table_source(node.right)
        if node.kind == "cross":
            return "%s CROSS JOIN %s" % (left, right)
        word = {"inner": "INNER JOIN", "left": "LEFT OUTER JOIN",
                "right": "RIGHT OUTER JOIN", "full": "FULL OUTER JOIN"}[node.kind]
        return "%s %s %s ON %s" % (left, word, right, render_expr(node.condition))
    raise SQLError("cannot render FROM element %s" % type(node).__name__)


#: Binary-operator precedence for minimal parenthesization.
_PRECEDENCE = {
    "or": 1, "and": 2,
    "=": 4, "<>": 4, "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "||": 5, "&": 5, "|": 5, "^": 5,
    "*": 6, "/": 6, "%": 6,
}


def _wrap_predicate(text, parent_precedence):
    """Predicate forms (IS NULL, LIKE, IN, ...) bind at comparison level;
    when embedded under a comparison or arithmetic operator they need
    parentheses to re-parse to the same tree."""
    if parent_precedence >= 4:
        return "(%s)" % text
    return text


def render_expr(node, parent_precedence=0):
    if isinstance(node, ast.Literal):
        return render_literal(node.value)
    if isinstance(node, ast.ColumnRef):
        if node.table:
            return "%s.%s" % (render_identifier(node.table), render_identifier(node.name))
        return render_identifier(node.name)
    if isinstance(node, ast.Star):
        return "*"
    if isinstance(node, ast.BinaryOp):
        precedence = _PRECEDENCE.get(node.op, 3)
        word = node.op.upper() if node.op in ("and", "or") else node.op
        text = "%s %s %s" % (
            render_expr(node.left, precedence),
            word,
            render_expr(node.right, precedence + 1),
        )
        if precedence < parent_precedence:
            return "(%s)" % text
        return text
    if isinstance(node, ast.UnaryOp):
        if node.op == "not":
            text = "NOT %s" % render_expr(node.operand, 3)
            return "(%s)" % text if parent_precedence > 2 else text
        return "%s%s" % (node.op, render_expr(node.operand, 7))
    if isinstance(node, ast.IsNull):
        text = "%s IS %sNULL" % (
            render_expr(node.operand, 4), "NOT " if node.negated else ""
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.Like):
        text = "%s %sLIKE %s" % (
            render_expr(node.operand, 4), "NOT " if node.negated else "",
            render_expr(node.pattern, 4),
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.Between):
        text = "%s %sBETWEEN %s AND %s" % (
            render_expr(node.operand, 4), "NOT " if node.negated else "",
            render_expr(node.low, 5), render_expr(node.high, 5),
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.InList):
        items = ", ".join(render_expr(item) for item in node.items)
        text = "%s %sIN (%s)" % (
            render_expr(node.operand, 4), "NOT " if node.negated else "", items
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.InSubquery):
        text = "%s %sIN (%s)" % (
            render_expr(node.operand, 4), "NOT " if node.negated else "",
            render_query(node.subquery),
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.Exists):
        text = "%sEXISTS (%s)" % (
            "NOT " if node.negated else "", render_query(node.subquery)
        )
        return _wrap_predicate(text, parent_precedence)
    if isinstance(node, ast.ScalarSubquery):
        return "(%s)" % render_query(node.subquery)
    if isinstance(node, ast.Case):
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(render_expr(node.operand))
        for condition, result in node.whens:
            parts.append("WHEN %s THEN %s" % (render_expr(condition), render_expr(result)))
        if node.else_result is not None:
            parts.append("ELSE %s" % render_expr(node.else_result))
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, ast.Cast):
        word = "TRY_CAST" if node.try_cast else "CAST"
        return "%s(%s AS %s)" % (word, render_expr(node.operand), node.type_name)
    if isinstance(node, ast.FuncCall):
        args = ", ".join(render_expr(arg) for arg in node.args)
        if node.distinct:
            args = "DISTINCT " + args
        return "%s(%s)" % (node.name.upper(), args)
    if isinstance(node, ast.WindowFunction):
        over = []
        if node.partition_by:
            over.append(
                "PARTITION BY " + ", ".join(render_expr(e) for e in node.partition_by)
            )
        if node.order_by:
            over.append(
                "ORDER BY " + ", ".join(_order_item(i) for i in node.order_by)
            )
        return "%s OVER (%s)" % (render_expr(node.func), " ".join(over))
    raise SQLError("cannot render expression %s" % type(node).__name__)
