"""Scalar builtin functions, T-SQL flavoured.

The set is driven by the expression operators the paper reports in Table 4:
``like``, ``patindex``, ``substring``, ``isnumeric``, ``charindex``, ``len``,
``square``, ``upper`` and friends, plus date/time helpers used by binning
idioms.  All functions propagate NULL: a NULL argument yields NULL unless
documented otherwise (COALESCE, ISNULL, CONCAT).
"""

import datetime as _dt
import math
import re
from decimal import Decimal

from repro.engine.types import SQLType, cast_value, format_value
from repro.errors import BindError, ExecutionError


class ScalarFunction(object):
    """Descriptor for one builtin: arity range, result type rule, impl."""

    __slots__ = ("name", "min_args", "max_args", "result_type", "impl", "null_safe")

    def __init__(self, name, min_args, max_args, result_type, impl, null_safe=False):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args
        #: Either a SQLType or a callable(list_of_arg_types) -> SQLType.
        self.result_type = result_type
        self.impl = impl
        #: null_safe functions receive NULL arguments instead of shortcutting.
        self.null_safe = null_safe

    def type_of(self, arg_types):
        if callable(self.result_type):
            return self.result_type(arg_types)
        return self.result_type

    def __call__(self, *args):
        if not self.null_safe and any(arg is None for arg in args):
            return None
        return self.impl(*args)


def like_match(value, pattern):
    """SQL LIKE: ``%`` any run, ``_`` one char, ``[...]`` char class (T-SQL)."""
    if value is None or pattern is None:
        return None
    regex = _like_regex(pattern)
    return bool(regex.match(str(value)))


_LIKE_CACHE = {}


def _like_regex(pattern):
    cached = _LIKE_CACHE.get(pattern)
    if cached is not None:
        return cached
    out = []
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        elif ch == "[":
            end = pattern.find("]", i + 1)
            if end < 0:
                out.append(re.escape(ch))
            else:
                # Keep '-' ranges intact; only the backslash needs escaping
                # inside a character class (']' cannot occur in body).
                body = pattern[i + 1 : end].replace("\\", "\\\\")
                if body.startswith("^") or body.startswith("!"):
                    out.append("[^%s]" % body[1:])
                else:
                    out.append("[%s]" % body)
                i = end
        else:
            out.append(re.escape(ch))
        i += 1
    try:
        regex = re.compile("".join(out) + r"\Z", re.IGNORECASE | re.DOTALL)
    except re.error:
        # Malformed character class in dirty data (e.g. '[4-1]'): fall back
        # to a literal match of the pattern text, as T-SQL effectively does
        # for degenerate classes.
        regex = re.compile(re.escape(pattern) + r"\Z", re.IGNORECASE | re.DOTALL)
    if len(_LIKE_CACHE) < 4096:
        _LIKE_CACHE[pattern] = regex
    return regex


def _to_number(value, context):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float, Decimal)):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ExecutionError("%s: %r is not numeric" % (context, value))
    raise ExecutionError("%s: %r is not numeric" % (context, value))


def _numeric_result(arg_types):
    for arg_type in arg_types:
        if arg_type is SQLType.FLOAT:
            return SQLType.FLOAT
    return SQLType.FLOAT


def _first_arg_type(arg_types):
    return arg_types[0] if arg_types else SQLType.UNKNOWN


# -- string functions ---------------------------------------------------------


def _len(value):
    # T-SQL LEN ignores trailing spaces.
    return len(str(value).rstrip(" "))


def _substring(value, start, length):
    text = str(value)
    start = int(start)
    length = int(length)
    if length < 0:
        raise ExecutionError("SUBSTRING: negative length")
    # T-SQL is 1-based; a start before 1 eats into the length.
    begin = max(0, start - 1)
    end = max(0, start - 1 + length)
    return text[begin:end]


def _charindex(needle, haystack, start=1):
    position = str(haystack).lower().find(str(needle).lower(), max(0, int(start) - 1))
    return position + 1


def _patindex(pattern, value):
    # PATINDEX patterns are LIKE patterns, conventionally wrapped in '%'.
    # The returned position is where the inner pattern starts (1-based).
    body = _like_regex(str(pattern)).pattern
    if body.endswith("\\Z"):
        body = body[:-2]
    anchored = not body.startswith(".*")
    if body.startswith(".*"):
        body = body[2:]
    if body.endswith(".*"):
        body = body[:-2]
    regex = re.compile(body, re.IGNORECASE | re.DOTALL)
    text = str(value)
    found = regex.match(text) if anchored else regex.search(text)
    return found.start() + 1 if found else 0


def _isnumeric(value):
    try:
        float(str(value).strip())
        return 1
    except (ValueError, TypeError):
        return 0


def _replace(value, old, new):
    return str(value).replace(str(old), str(new))


def _stuff(value, start, length, replacement):
    text = str(value)
    start = int(start)
    if start < 1 or start > len(text):
        return None
    return text[: start - 1] + str(replacement) + text[start - 1 + int(length) :]


def _left(value, count):
    return str(value)[: max(0, int(count))]


def _right(value, count):
    count = max(0, int(count))
    text = str(value)
    return text[-count:] if count else ""


def _concat(*args):
    return "".join("" if arg is None else format_value(arg) for arg in args)


def _reverse(value):
    return str(value)[::-1]


def _replicate(value, count):
    return str(value) * max(0, int(count))


def _space(count):
    return " " * max(0, int(count))


# -- math functions -------------------------------------------------------------


def _round(value, digits=0):
    number = _to_number(value, "ROUND")
    result = round(float(number), int(digits))
    return result


def _power(base, exponent):
    return math.pow(_to_number(base, "POWER"), _to_number(exponent, "POWER"))


def _sqrt(value):
    number = _to_number(value, "SQRT")
    if number < 0:
        raise ExecutionError("SQRT of a negative number")
    return math.sqrt(number)


def _log(value, base=None):
    number = _to_number(value, "LOG")
    if number <= 0:
        raise ExecutionError("LOG of a non-positive number")
    if base is None:
        return math.log(number)
    return math.log(number, _to_number(base, "LOG"))


def _sign(value):
    number = _to_number(value, "SIGN")
    return (number > 0) - (number < 0)


# -- date functions --------------------------------------------------------------


def _as_datetime(value, context):
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime.combine(value, _dt.time())
    if isinstance(value, str):
        return cast_value(value, SQLType.DATETIME)
    raise ExecutionError("%s: %r is not a date" % (context, value))


_DATEPART_ALIASES = {
    "year": "year", "yy": "year", "yyyy": "year",
    "quarter": "quarter", "qq": "quarter", "q": "quarter",
    "month": "month", "mm": "month", "m": "month",
    "day": "day", "dd": "day", "d": "day",
    "dayofyear": "dayofyear", "dy": "dayofyear",
    "week": "week", "wk": "week", "ww": "week",
    "weekday": "weekday", "dw": "weekday",
    "hour": "hour", "hh": "hour",
    "minute": "minute", "mi": "minute", "n": "minute",
    "second": "second", "ss": "second", "s": "second",
}


def _extract_part(part, moment):
    if part == "year":
        return moment.year
    if part == "quarter":
        return (moment.month - 1) // 3 + 1
    if part == "month":
        return moment.month
    if part == "day":
        return moment.day
    if part == "dayofyear":
        return moment.timetuple().tm_yday
    if part == "week":
        return moment.isocalendar()[1]
    if part == "weekday":
        return moment.isoweekday() % 7 + 1  # Sunday=1, like T-SQL default
    if part == "hour":
        return moment.hour
    if part == "minute":
        return moment.minute
    if part == "second":
        return moment.second
    raise ExecutionError("unsupported datepart %r" % part)


def _datepart(part_name, value):
    part = _DATEPART_ALIASES.get(str(part_name).lower())
    if part is None:
        raise ExecutionError("unsupported datepart %r" % part_name)
    return _extract_part(part, _as_datetime(value, "DATEPART"))


_PART_SECONDS = {"hour": 3600.0, "minute": 60.0, "second": 1.0}


def _datediff(part_name, start, end):
    part = _DATEPART_ALIASES.get(str(part_name).lower())
    if part is None:
        raise ExecutionError("unsupported datepart %r" % part_name)
    begin = _as_datetime(start, "DATEDIFF")
    finish = _as_datetime(end, "DATEDIFF")
    if part == "year":
        return finish.year - begin.year
    if part == "quarter":
        return (finish.year - begin.year) * 4 + (
            (finish.month - 1) // 3 - (begin.month - 1) // 3
        )
    if part == "month":
        return (finish.year - begin.year) * 12 + finish.month - begin.month
    delta = finish - begin
    if part in ("day", "dayofyear", "weekday"):
        return (finish.date() - begin.date()).days
    if part == "week":
        return (finish.date() - begin.date()).days // 7
    return int(delta.total_seconds() // _PART_SECONDS[part])


def _dateadd(part_name, amount, value):
    part = _DATEPART_ALIASES.get(str(part_name).lower())
    if part is None:
        raise ExecutionError("unsupported datepart %r" % part_name)
    moment = _as_datetime(value, "DATEADD")
    amount = int(amount)
    if part == "year":
        return _safe_replace(moment, year=moment.year + amount)
    if part == "quarter":
        return _add_months(moment, amount * 3)
    if part == "month":
        return _add_months(moment, amount)
    if part in ("day", "dayofyear", "weekday"):
        return moment + _dt.timedelta(days=amount)
    if part == "week":
        return moment + _dt.timedelta(weeks=amount)
    return moment + _dt.timedelta(seconds=amount * _PART_SECONDS[part])


def _add_months(moment, months):
    month_index = moment.year * 12 + (moment.month - 1) + months
    year, month = divmod(month_index, 12)
    day = min(moment.day, _days_in_month(year, month + 1))
    return moment.replace(year=year, month=month + 1, day=day)


def _days_in_month(year, month):
    if month == 12:
        nxt = _dt.date(year + 1, 1, 1)
    else:
        nxt = _dt.date(year, month + 1, 1)
    return (nxt - _dt.date(year, month, 1)).days


def _safe_replace(moment, **kwargs):
    try:
        return moment.replace(**kwargs)
    except ValueError:
        # Feb 29 + 1 year: clamp to Feb 28, as DATEADD does.
        kwargs["day"] = 28
        return moment.replace(**kwargs)


# A fixed "now" keeps the engine deterministic; the platform layer passes
# logical timestamps through the workload instead of relying on GETDATE().
_EPOCH_NOW = _dt.datetime(2015, 6, 30, 12, 0, 0)


def _getdate():
    return _EPOCH_NOW


# -- null handling ---------------------------------------------------------------


def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _isnull(value, fallback):
    return fallback if value is None else value


def _nullif(left, right):
    if left is None:
        return None
    return None if left == right else left


def _iif(condition, when_true, when_false):
    return when_true if condition else when_false


_REGISTRY = {}


def _register(name, min_args, max_args, result_type, impl, null_safe=False):
    _REGISTRY[name] = ScalarFunction(name, min_args, max_args, result_type, impl, null_safe)


# Strings (Table 4a operators are well represented here).
_register("len", 1, 1, SQLType.INT, _len)
_register("datalength", 1, 1, SQLType.INT, lambda v: len(str(v)))
_register("upper", 1, 1, SQLType.VARCHAR, lambda v: str(v).upper())
_register("lower", 1, 1, SQLType.VARCHAR, lambda v: str(v).lower())
_register("ltrim", 1, 1, SQLType.VARCHAR, lambda v: str(v).lstrip())
_register("rtrim", 1, 1, SQLType.VARCHAR, lambda v: str(v).rstrip())
_register("trim", 1, 1, SQLType.VARCHAR, lambda v: str(v).strip())
_register("substring", 3, 3, SQLType.VARCHAR, _substring)
_register("charindex", 2, 3, SQLType.INT, _charindex)
_register("patindex", 2, 2, SQLType.INT, _patindex)
_register("isnumeric", 1, 1, SQLType.INT, _isnumeric)
_register("replace", 3, 3, SQLType.VARCHAR, _replace)
_register("stuff", 4, 4, SQLType.VARCHAR, _stuff)
_register("left", 2, 2, SQLType.VARCHAR, _left)
_register("right", 2, 2, SQLType.VARCHAR, _right)
_register("concat", 2, 16, SQLType.VARCHAR, _concat, null_safe=True)
_register("reverse", 1, 1, SQLType.VARCHAR, _reverse)
_register("replicate", 2, 2, SQLType.VARCHAR, _replicate)
_register("space", 1, 1, SQLType.VARCHAR, _space)
_register("str", 1, 3, SQLType.VARCHAR, lambda v, *a: format_value(v))
_register("ascii", 1, 1, SQLType.INT, lambda v: ord(str(v)[0]) if str(v) else None)
_register("char", 1, 1, SQLType.VARCHAR, lambda v: chr(int(v)))

# Math (SQUARE shows up in Table 4a).
_register("abs", 1, 1, _first_arg_type, lambda v: abs(_to_number(v, "ABS")))
_register("round", 1, 2, _numeric_result, _round)
_register("floor", 1, 1, SQLType.INT, lambda v: int(math.floor(_to_number(v, "FLOOR"))))
_register("ceiling", 1, 1, SQLType.INT, lambda v: int(math.ceil(_to_number(v, "CEILING"))))
_register("square", 1, 1, SQLType.FLOAT, lambda v: float(_to_number(v, "SQUARE")) ** 2)
_register("sqrt", 1, 1, SQLType.FLOAT, _sqrt)
_register("power", 2, 2, SQLType.FLOAT, _power)
_register("exp", 1, 1, SQLType.FLOAT, lambda v: math.exp(_to_number(v, "EXP")))
_register("log", 1, 2, SQLType.FLOAT, _log)
_register("log10", 1, 1, SQLType.FLOAT, lambda v: _log(v, 10))
_register("sign", 1, 1, SQLType.INT, _sign)
_register("pi", 0, 0, SQLType.FLOAT, lambda: math.pi)
_register("sin", 1, 1, SQLType.FLOAT, lambda v: math.sin(_to_number(v, "SIN")))
_register("cos", 1, 1, SQLType.FLOAT, lambda v: math.cos(_to_number(v, "COS")))
_register("tan", 1, 1, SQLType.FLOAT, lambda v: math.tan(_to_number(v, "TAN")))
_register("atan", 1, 1, SQLType.FLOAT, lambda v: math.atan(_to_number(v, "ATAN")))
_register(
    "atn2", 2, 2, SQLType.FLOAT,
    lambda y, x: math.atan2(_to_number(y, "ATN2"), _to_number(x, "ATN2")),
)
_register("radians", 1, 1, SQLType.FLOAT, lambda v: math.radians(_to_number(v, "RADIANS")))
_register("degrees", 1, 1, SQLType.FLOAT, lambda v: math.degrees(_to_number(v, "DEGREES")))

# Dates.
_register("getdate", 0, 0, SQLType.DATETIME, _getdate)
_register("getutcdate", 0, 0, SQLType.DATETIME, _getdate)
_register("year", 1, 1, SQLType.INT, lambda v: _extract_part("year", _as_datetime(v, "YEAR")))
_register("month", 1, 1, SQLType.INT, lambda v: _extract_part("month", _as_datetime(v, "MONTH")))
_register("day", 1, 1, SQLType.INT, lambda v: _extract_part("day", _as_datetime(v, "DAY")))
_register("datepart", 2, 2, SQLType.INT, _datepart)
_register("datediff", 3, 3, SQLType.INT, _datediff)
_register("dateadd", 3, 3, SQLType.DATETIME, _dateadd)

# NULL handling / conditionals.
_register(
    "coalesce", 1, 16,
    lambda types: next((t for t in types if t is not SQLType.UNKNOWN), SQLType.UNKNOWN),
    _coalesce, null_safe=True,
)
_register(
    "isnull", 2, 2,
    lambda types: types[0] if types[0] is not SQLType.UNKNOWN else types[1],
    _isnull, null_safe=True,
)
_register("nullif", 2, 2, _first_arg_type, _nullif, null_safe=True)
_register("iif", 3, 3, lambda types: types[1], _iif, null_safe=True)
_register("newid", 0, 0, SQLType.VARCHAR, lambda: "00000000-0000-0000-0000-000000000000")


def lookup(name, arg_count):
    """Resolve a scalar function by name and arity.

    Raises :class:`BindError` for unknown names or bad arity — the same
    failure mode users hit in the real system for unsupported builtins.
    """
    func = _REGISTRY.get(name.lower())
    if func is None:
        raise BindError("unknown function %r" % name)
    if not (func.min_args <= arg_count <= func.max_args):
        raise BindError(
            "function %s expects %d..%d arguments, got %d"
            % (name.upper(), func.min_args, func.max_args, arg_count)
        )
    return func


def function_names():
    return sorted(_REGISTRY)
