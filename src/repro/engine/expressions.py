"""Bound scalar expressions: typing, evaluation and description.

Semantic analysis (:mod:`repro.engine.semantic`, the engine's one binder)
turns AST expressions into these bound trees: each node carries a result
type, evaluates against a row, and describes itself in the plan's
predicate syntax (``income GT 500000`` as in Listing 1 of the paper).
Columns are row slots; a correlated subquery reads outer columns through
an execution context that stacks outer rows.
"""

import copy
import datetime as _dt
from decimal import Decimal

from repro.engine import functions
from repro.engine.types import SQLType, cast_value, infer_literal_type, unify_types
from repro.errors import ExecutionError

#: Predicate-description operator names used in extracted plans.
_OP_NAMES = {"=": "EQ", "<>": "NE", "<": "LT", ">": "GT", "<=": "LE", ">=": "GE"}


class OutputColumn(object):
    """One column of an operator's output schema.

    ``qualifier`` is the visible range-variable name (alias or table name);
    ``source_table``/``source_column`` track provenance back to a base table
    for the workload analysis (referenced tables/columns per query).
    """

    __slots__ = ("qualifier", "name", "sql_type", "source_table", "source_column")

    def __init__(self, name, sql_type, qualifier=None, source_table=None, source_column=None):
        self.qualifier = qualifier
        self.name = name
        self.sql_type = sql_type
        self.source_table = source_table
        self.source_column = source_column

    def renamed(self, name=None, qualifier=None):
        return OutputColumn(
            name if name is not None else self.name,
            self.sql_type,
            qualifier=qualifier if qualifier is not None else self.qualifier,
            source_table=self.source_table,
            source_column=self.source_column,
        )

    def __repr__(self):
        prefix = "%s." % self.qualifier if self.qualifier else ""
        return "OutputColumn(%s%s: %s)" % (prefix, self.name, self.sql_type.value)


#: Rows between cooperative cancellation checks (see ``ExecutionContext.tick``).
CANCEL_CHECK_ROWS = 1024


class ExecutionContext(object):
    """Per-execution state: outer-row stack, subplan runner/cache and the
    (optional) cancellation token the operators poll while iterating."""

    def __init__(self, run_plan=None, cancellation=None):
        self.outer_rows = []
        self._run_plan = run_plan
        #: CancellationToken (or None): operators call :meth:`tick` per row
        #: processed; every ``CANCEL_CHECK_ROWS`` ticks the token is polled
        #: so a cancel/timeout stops work mid-scan rather than at row
        #: boundaries of the final result.
        self.cancellation = cancellation
        self._ticks = 0
        self._next_check = CANCEL_CHECK_ROWS
        self._uncorrelated_cache = {}

    def tick(self):
        """Account one row of work; poll the cancellation token every N rows."""
        self._ticks = ticks = self._ticks + 1
        if ticks >= self._next_check:
            self._next_check = ticks + CANCEL_CHECK_ROWS
            if self.cancellation is not None:
                self.cancellation.raise_if_cancelled()

    def run_subplan(self, plan, correlated):
        """Materialize a subplan's rows, caching uncorrelated results."""
        if self._run_plan is None:
            raise ExecutionError("subquery execution is not available here")
        if not correlated:
            key = id(plan)
            if key not in self._uncorrelated_cache:
                self._uncorrelated_cache[key] = list(self._run_plan(plan, self))
            return self._uncorrelated_cache[key]
        return list(self._run_plan(plan, self))


# --------------------------------------------------------------------------
# Bound expression node classes
# --------------------------------------------------------------------------


class BoundExpr(object):
    """Base class: result type plus evaluation and description."""

    __slots__ = ("sql_type",)

    def __init__(self, sql_type):
        self.sql_type = sql_type

    def eval(self, row, ctx):
        raise NotImplementedError

    def describe(self):
        return type(self).__name__

    def children(self):
        return []

    def walk(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children())


class BoundLiteral(BoundExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        super(BoundLiteral, self).__init__(infer_literal_type(value))
        self.value = value

    def eval(self, row, ctx):
        return self.value

    def describe(self):
        if isinstance(self.value, str):
            return "'%s'" % self.value
        return str(self.value)


class BoundColumn(BoundExpr):
    __slots__ = ("slot", "name")

    def __init__(self, slot, sql_type, name):
        super(BoundColumn, self).__init__(sql_type)
        self.slot = slot
        self.name = name

    def eval(self, row, ctx):
        return row[self.slot]

    def describe(self):
        return self.name


class BoundOuterColumn(BoundExpr):
    __slots__ = ("levels", "slot", "name")

    def __init__(self, levels, slot, sql_type, name):
        super(BoundOuterColumn, self).__init__(sql_type)
        self.levels = levels
        self.slot = slot
        self.name = name

    def eval(self, row, ctx):
        return ctx.outer_rows[-self.levels][self.slot]

    def describe(self):
        return self.name


class BoundUnary(BoundExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        result = SQLType.BIT if op == "not" else operand.sql_type
        super(BoundUnary, self).__init__(result)
        self.op = op
        self.operand = operand

    def eval(self, row, ctx):
        value = self.operand.eval(row, ctx)
        if self.op == "not":
            return None if value is None else not _truthy(value)
        if value is None:
            return None
        if self.op == "-":
            return -value
        return value

    def describe(self):
        return "%s(%s)" % (self.op.upper(), self.operand.describe())

    def children(self):
        return [self.operand]


class BoundBinary(BoundExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right, sql_type):
        super(BoundBinary, self).__init__(sql_type)
        self.op = op
        self.left = left
        self.right = right

    def eval(self, row, ctx):
        op = self.op
        if op == "and":
            left = self.left.eval(row, ctx)
            if left is not None and not _truthy(left):
                return False
            right = self.right.eval(row, ctx)
            if right is not None and not _truthy(right):
                return False
            if left is None or right is None:
                return None
            return True
        if op == "or":
            left = self.left.eval(row, ctx)
            if left is not None and _truthy(left):
                return True
            right = self.right.eval(row, ctx)
            if right is not None and _truthy(right):
                return True
            if left is None or right is None:
                return None
            return False
        left = self.left.eval(row, ctx)
        right = self.right.eval(row, ctx)
        if left is None or right is None:
            return None
        if op in _OP_NAMES:
            result = compare_values(left, right)
            if result is None:
                return None
            if op == "=":
                return result == 0
            if op == "<>":
                return result != 0
            if op == "<":
                return result < 0
            if op == ">":
                return result > 0
            if op == "<=":
                return result <= 0
            return result >= 0
        return _arithmetic(op, left, right)

    def describe(self):
        name = _OP_NAMES.get(self.op, self.op.upper())
        if self.op == "+":
            name = "ADD"
        elif self.op == "-":
            name = "SUB"
        elif self.op == "*":
            name = "MULT"
        elif self.op == "/":
            name = "DIV"
        elif self.op == "%":
            name = "MOD"
        elif self.op == "||":
            name = "CONCAT"
        elif self.op == "&":
            name = "BIT_AND"
        elif self.op == "|":
            name = "BIT_OR"
        elif self.op == "^":
            name = "BIT_XOR"
        return "%s %s %s" % (self.left.describe(), name, self.right.describe())

    def children(self):
        return [self.left, self.right]


class BoundIsNull(BoundExpr):
    __slots__ = ("operand", "negated")

    def __init__(self, operand, negated):
        super(BoundIsNull, self).__init__(SQLType.BIT)
        self.operand = operand
        self.negated = negated

    def eval(self, row, ctx):
        is_null = self.operand.eval(row, ctx) is None
        return not is_null if self.negated else is_null

    def describe(self):
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return "%s %s" % (self.operand.describe(), suffix)

    def children(self):
        return [self.operand]


class BoundLike(BoundExpr):
    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand, pattern, negated):
        super(BoundLike, self).__init__(SQLType.BIT)
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def eval(self, row, ctx):
        value = self.operand.eval(row, ctx)
        pattern = self.pattern.eval(row, ctx)
        result = functions.like_match(value, pattern)
        if result is None:
            return None
        return not result if self.negated else result

    def describe(self):
        word = "NOT LIKE" if self.negated else "LIKE"
        return "%s %s %s" % (self.operand.describe(), word, self.pattern.describe())

    def children(self):
        return [self.operand, self.pattern]


class BoundBetween(BoundExpr):
    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand, low, high, negated):
        super(BoundBetween, self).__init__(SQLType.BIT)
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def eval(self, row, ctx):
        value = self.operand.eval(row, ctx)
        low = self.low.eval(row, ctx)
        high = self.high.eval(row, ctx)
        if value is None or low is None or high is None:
            return None
        low_cmp = compare_values(value, low)
        high_cmp = compare_values(value, high)
        if low_cmp is None or high_cmp is None:
            return None
        inside = low_cmp >= 0 and high_cmp <= 0
        return not inside if self.negated else inside

    def describe(self):
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return "%s %s %s AND %s" % (
            self.operand.describe(),
            word,
            self.low.describe(),
            self.high.describe(),
        )

    def children(self):
        return [self.operand, self.low, self.high]


class BoundInList(BoundExpr):
    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand, items, negated):
        super(BoundInList, self).__init__(SQLType.BIT)
        self.operand = operand
        self.items = items
        self.negated = negated

    def eval(self, row, ctx):
        value = self.operand.eval(row, ctx)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.eval(row, ctx)
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return False if self.negated else True
        if saw_null:
            return None
        return True if self.negated else False

    def describe(self):
        word = "NOT IN" if self.negated else "IN"
        items = ", ".join(item.describe() for item in self.items)
        return "%s %s (%s)" % (self.operand.describe(), word, items)

    def children(self):
        return [self.operand] + list(self.items)


class BoundCase(BoundExpr):
    __slots__ = ("whens", "else_result")

    def __init__(self, whens, else_result, sql_type):
        super(BoundCase, self).__init__(sql_type)
        self.whens = whens  # list of (bound condition, bound result)
        self.else_result = else_result

    def eval(self, row, ctx):
        for condition, result in self.whens:
            flag = condition.eval(row, ctx)
            if flag is not None and _truthy(flag):
                return result.eval(row, ctx)
        if self.else_result is not None:
            return self.else_result.eval(row, ctx)
        return None

    def describe(self):
        return "CASE(%d branches)" % len(self.whens)

    def children(self):
        out = []
        for condition, result in self.whens:
            out.append(condition)
            out.append(result)
        if self.else_result is not None:
            out.append(self.else_result)
        return out


class BoundCast(BoundExpr):
    __slots__ = ("operand", "target", "try_cast")

    def __init__(self, operand, target, try_cast):
        super(BoundCast, self).__init__(target)
        self.operand = operand
        self.target = target
        self.try_cast = try_cast

    def eval(self, row, ctx):
        return cast_value(self.operand.eval(row, ctx), self.target, strict=not self.try_cast)

    def describe(self):
        return "CAST(%s AS %s)" % (self.operand.describe(), self.target.value)

    def children(self):
        return [self.operand]


class BoundFunc(BoundExpr):
    __slots__ = ("func", "args")

    def __init__(self, func, args):
        super(BoundFunc, self).__init__(func.type_of([a.sql_type for a in args]))
        self.func = func
        self.args = args

    def eval(self, row, ctx):
        return self.func(*[arg.eval(row, ctx) for arg in self.args])

    def describe(self):
        return "%s(%s)" % (self.func.name, ", ".join(a.describe() for a in self.args))

    def children(self):
        return list(self.args)


class BoundSubquery(BoundExpr):
    """Base of the subquery expressions.

    ``query`` is the bound query semantic analysis produced; ``plan`` is its
    operator tree, set on the copy the planner makes with :meth:`planned`
    (the analyzed tree itself is never mutated).
    """

    __slots__ = ("query", "plan", "correlated")

    def __init__(self, sql_type, query, correlated):
        super(BoundSubquery, self).__init__(sql_type)
        self.query = query
        self.plan = None
        self.correlated = correlated

    def planned(self, plan):
        planned = copy.copy(self)
        planned.plan = plan
        return planned

    def _rows(self, row, ctx):
        ctx.outer_rows.append(row)
        try:
            return ctx.run_subplan(self.plan, self.correlated)
        finally:
            ctx.outer_rows.pop()


class BoundScalarSubquery(BoundSubquery):
    __slots__ = ()

    def __init__(self, query, sql_type, correlated):
        super(BoundScalarSubquery, self).__init__(sql_type, query, correlated)

    def eval(self, row, ctx):
        rows = self._rows(row, ctx)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return rows[0][0]

    def describe(self):
        return "SCALAR_SUBQUERY"


class BoundExists(BoundSubquery):
    __slots__ = ("negated",)

    def __init__(self, query, correlated, negated):
        super(BoundExists, self).__init__(SQLType.BIT, query, correlated)
        self.negated = negated

    def eval(self, row, ctx):
        found = bool(self._rows(row, ctx))
        return not found if self.negated else found

    def describe(self):
        return "NOT EXISTS" if self.negated else "EXISTS"


class BoundInSubquery(BoundSubquery):
    __slots__ = ("operand", "negated")

    def __init__(self, operand, query, correlated, negated):
        super(BoundInSubquery, self).__init__(SQLType.BIT, query, correlated)
        self.operand = operand
        self.negated = negated

    def eval(self, row, ctx):
        value = self.operand.eval(row, ctx)
        if value is None:
            return None
        saw_null = False
        for sub_row in self._rows(row, ctx):
            candidate = sub_row[0]
            if candidate is None:
                saw_null = True
                continue
            if compare_values(value, candidate) == 0:
                return False if self.negated else True
        if saw_null:
            return None
        return True if self.negated else False

    def describe(self):
        word = "NOT IN" if self.negated else "IN"
        return "%s %s SUBQUERY" % (self.operand.describe(), word)

    def children(self):
        return [self.operand]


# --------------------------------------------------------------------------
# Value semantics helpers
# --------------------------------------------------------------------------


def _truthy(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, Decimal)):
        return value != 0
    return bool(value)


def compare_values(left, right):
    """Three-way compare with T-SQL-ish coercion; None if incomparable NULL.

    Numbers compare numerically (strings coerce to numbers when the other
    side is numeric); dates accept ISO strings; strings compare ordinally.
    Raises :class:`ExecutionError` when coercion fails, mirroring the
    conversion errors users see on dirty data.
    """
    left = _normalize(left)
    right = _normalize(right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    if isinstance(left, _dt.datetime) or isinstance(right, _dt.datetime):
        left = _coerce_datetime(left)
        right = _coerce_datetime(right)
        return (left > right) - (left < right)
    if isinstance(left, _dt.date) or isinstance(right, _dt.date):
        left = _coerce_date(left)
        right = _coerce_date(right)
        return (left > right) - (left < right)
    left_num = _coerce_number(left)
    right_num = _coerce_number(right)
    return (left_num > right_num) - (left_num < right_num)


def _normalize(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Decimal):
        return float(value)
    return value


def _coerce_number(value):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ExecutionError("conversion failed comparing %r to a number" % value)
    raise ExecutionError("cannot compare %r numerically" % (value,))


def _coerce_datetime(value):
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime.combine(value, _dt.time())
    if isinstance(value, str):
        return cast_value(value, SQLType.DATETIME)
    raise ExecutionError("cannot compare %r to a datetime" % (value,))


def _coerce_date(value):
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    if isinstance(value, str):
        return cast_value(value, SQLType.DATE)
    raise ExecutionError("cannot compare %r to a date" % (value,))


def _arithmetic(op, left, right):
    # T-SQL '+' concatenates when either side is a string.
    if op == "+" and (isinstance(left, str) or isinstance(right, str)):
        from repro.engine.types import format_value

        return ("" if left is None else format_value(left)) + (
            "" if right is None else format_value(right)
        )
    if op == "||":
        from repro.engine.types import format_value

        return format_value(left) + format_value(right)
    left = _normalize(left)
    right = _normalize(right)
    left_num = _coerce_number(left)
    right_num = _coerce_number(right)
    if op == "+":
        return left_num + right_num
    if op == "-":
        return left_num - right_num
    if op == "*":
        return left_num * right_num
    if op == "/":
        if right_num == 0:
            raise ExecutionError("division by zero")
        if isinstance(left_num, int) and isinstance(right_num, int):
            # T-SQL integer division truncates toward zero.
            quotient = abs(left_num) // abs(right_num)
            return quotient if (left_num >= 0) == (right_num >= 0) else -quotient
        return left_num / right_num
    if op in ("&", "|", "^"):
        left_int = int(left_num)
        right_int = int(right_num)
        if op == "&":
            return left_int & right_int
        if op == "|":
            return left_int | right_int
        return left_int ^ right_int
    if op == "%":
        if right_num == 0:
            raise ExecutionError("modulo by zero")
        # T-SQL modulo takes the sign of the dividend (C-style fmod).
        result = abs(left_num) % abs(right_num)
        if left_num < 0:
            result = -result
        if isinstance(left_num, int) and isinstance(right_num, int):
            return int(result)
        return result
    raise ExecutionError("unsupported operator %r" % op)


def binary_result_type(op, left, right):
    """Result type of a binary operator over two bound operands."""
    if op in ("and", "or") or op in _OP_NAMES:
        return SQLType.BIT
    if op == "||":
        return SQLType.VARCHAR
    if op == "+" and SQLType.VARCHAR in (left.sql_type, right.sql_type):
        return SQLType.VARCHAR
    if op == "/":
        if left.sql_type in (SQLType.INT, SQLType.BIGINT, SQLType.BIT) and right.sql_type in (
            SQLType.INT,
            SQLType.BIGINT,
            SQLType.BIT,
        ):
            return unify_types(left.sql_type, right.sql_type)
        return SQLType.FLOAT
    if op == "%":
        return SQLType.INT
    if op in ("&", "|", "^"):
        return SQLType.INT
    return unify_types(left.sql_type, right.sql_type)


# --------------------------------------------------------------------------
# Bound-expression surgery (used by the planner's predicate pushdown)
# --------------------------------------------------------------------------

def contains_subquery(expr):
    return any(isinstance(node, BoundSubquery) for node in expr.walk())


def referenced_slots(expr):
    """Local row slots a bound expression reads."""
    return {node.slot for node in expr.walk() if isinstance(node, BoundColumn)}


def rebase_expr(expr, substitute, subquery=None):
    """Clone ``expr`` replacing each BoundColumn via ``substitute(slot)``.

    ``substitute`` returns a replacement BoundExpr or None when the slot
    cannot be mapped; a ``substitute`` of None keeps every column.  Each
    subquery node is replaced by ``subquery(node)`` (the planner uses this
    to attach plans); without that callback a subquery makes the
    expression unrelocatable.  Returns None when the expression cannot be
    relocated (unmappable slot, subquery inside it, or a substitution that
    itself contains a subquery).
    """
    def rebase(node):
        return rebase_expr(node, substitute, subquery)

    if isinstance(expr, BoundSubquery):
        if subquery is None:
            return None
        replaced = subquery(expr)
        if isinstance(expr, BoundInSubquery):
            replaced.operand = rebase(expr.operand)
            if replaced.operand is None:
                return None
        return replaced
    if isinstance(expr, BoundColumn):
        if substitute is None:
            return expr
        replacement = substitute(expr.slot)
        if replacement is None or contains_subquery(replacement):
            return None
        return replacement
    if isinstance(expr, (BoundLiteral, BoundOuterColumn)):
        return expr
    if isinstance(expr, BoundUnary):
        operand = rebase(expr.operand)
        return None if operand is None else BoundUnary(expr.op, operand)
    if isinstance(expr, BoundBinary):
        left = rebase(expr.left)
        right = rebase(expr.right)
        if left is None or right is None:
            return None
        return BoundBinary(expr.op, left, right, expr.sql_type)
    if isinstance(expr, BoundIsNull):
        operand = rebase(expr.operand)
        return None if operand is None else BoundIsNull(operand, expr.negated)
    if isinstance(expr, BoundLike):
        operand = rebase(expr.operand)
        pattern = rebase(expr.pattern)
        if operand is None or pattern is None:
            return None
        return BoundLike(operand, pattern, expr.negated)
    if isinstance(expr, BoundBetween):
        parts = [rebase(expr.operand), rebase(expr.low), rebase(expr.high)]
        if any(part is None for part in parts):
            return None
        return BoundBetween(parts[0], parts[1], parts[2], expr.negated)
    if isinstance(expr, BoundInList):
        operand = rebase(expr.operand)
        items = [rebase(item) for item in expr.items]
        if operand is None or any(item is None for item in items):
            return None
        return BoundInList(operand, items, expr.negated)
    if isinstance(expr, BoundCase):
        whens = []
        for condition, result in expr.whens:
            new_condition = rebase(condition)
            new_result = rebase(result)
            if new_condition is None or new_result is None:
                return None
            whens.append((new_condition, new_result))
        else_result = None
        if expr.else_result is not None:
            else_result = rebase(expr.else_result)
            if else_result is None:
                return None
        return BoundCase(whens, else_result, expr.sql_type)
    if isinstance(expr, BoundCast):
        operand = rebase(expr.operand)
        return None if operand is None else BoundCast(operand, expr.target, expr.try_cast)
    if isinstance(expr, BoundFunc):
        args = [rebase(arg) for arg in expr.args]
        if any(arg is None for arg in args):
            return None
        return BoundFunc(expr.func, args)
    return None
