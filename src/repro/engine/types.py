"""SQL type system: types, NULL semantics, casting and coercion.

The engine models the handful of types the SQLShare ingest pipeline infers
(Section 3.1 of the paper): integers, floats, decimals, booleans (BIT),
dates/datetimes and strings.  Values are represented by plain Python objects
(``int``, ``float``, ``decimal.Decimal``, ``bool``, ``datetime``, ``str``)
with SQL ``NULL`` represented by ``None``.
"""

import datetime as _dt
import enum
from decimal import Decimal, InvalidOperation

from repro.errors import ExecutionError, TypeCheckError


class SQLType(enum.Enum):
    """The engine's value types, ordered roughly by specificity."""

    BIT = "bit"
    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    DECIMAL = "decimal"
    DATE = "date"
    DATETIME = "datetime"
    VARCHAR = "varchar"
    # Pseudo-type for literals/expressions whose type is unknown (NULL).
    UNKNOWN = "unknown"

    def __repr__(self):
        return "SQLType.%s" % self.name


#: Aliases accepted by ``CAST(expr AS <name>)`` and DDL, T-SQL flavoured.
TYPE_ALIASES = {
    "bit": SQLType.BIT,
    "bool": SQLType.BIT,
    "boolean": SQLType.BIT,
    "tinyint": SQLType.INT,
    "smallint": SQLType.INT,
    "int": SQLType.INT,
    "integer": SQLType.INT,
    "bigint": SQLType.BIGINT,
    "real": SQLType.FLOAT,
    "float": SQLType.FLOAT,
    "double": SQLType.FLOAT,
    "decimal": SQLType.DECIMAL,
    "numeric": SQLType.DECIMAL,
    "money": SQLType.DECIMAL,
    "date": SQLType.DATE,
    "datetime": SQLType.DATETIME,
    "datetime2": SQLType.DATETIME,
    "smalldatetime": SQLType.DATETIME,
    "timestamp": SQLType.DATETIME,
    "char": SQLType.VARCHAR,
    "nchar": SQLType.VARCHAR,
    "varchar": SQLType.VARCHAR,
    "nvarchar": SQLType.VARCHAR,
    "text": SQLType.VARCHAR,
    "ntext": SQLType.VARCHAR,
    "string": SQLType.VARCHAR,
}

_NUMERIC = {SQLType.BIT, SQLType.INT, SQLType.BIGINT, SQLType.FLOAT, SQLType.DECIMAL}
_TEMPORAL = {SQLType.DATE, SQLType.DATETIME}

#: Widening order used when unifying branch types (CASE, set operations).
_WIDENING = [
    SQLType.BIT,
    SQLType.INT,
    SQLType.BIGINT,
    SQLType.DECIMAL,
    SQLType.FLOAT,
    SQLType.DATE,
    SQLType.DATETIME,
    SQLType.VARCHAR,
]

#: Average on-disk width in bytes per type, used by the cost model's rowSize.
TYPE_WIDTH = {
    SQLType.BIT: 1,
    SQLType.INT: 4,
    SQLType.BIGINT: 8,
    SQLType.FLOAT: 8,
    SQLType.DECIMAL: 9,
    SQLType.DATE: 3,
    SQLType.DATETIME: 8,
    SQLType.VARCHAR: 19,
    SQLType.UNKNOWN: 8,
}

_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y", "%m-%d-%Y", "%d-%b-%Y")
_DATETIME_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%m/%d/%Y %H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
)


def resolve_type_name(name):
    """Map a SQL type name (possibly with ``(p, s)`` stripped) to a SQLType.

    Raises :class:`TypeCheckError` on an unknown name.
    """
    base = name.strip().lower().split("(")[0].strip()
    try:
        return TYPE_ALIASES[base]
    except KeyError:
        raise TypeCheckError("unknown type name: %r" % name)


def is_numeric(sql_type):
    """Whether the type participates in arithmetic without casting."""
    return sql_type in _NUMERIC


def is_temporal(sql_type):
    """Whether the type is DATE or DATETIME."""
    return sql_type in _TEMPORAL


def unify_types(left, right):
    """Common supertype of two branch types, per the widening order.

    UNKNOWN (NULL literal) unifies with anything.  Numeric and temporal types
    widen along ``_WIDENING``; any mix involving VARCHAR becomes VARCHAR,
    matching the forgiving behaviour SQLShare relies on for dirty data.
    """
    if left == right:
        return left
    if left is SQLType.UNKNOWN:
        return right
    if right is SQLType.UNKNOWN:
        return left
    if SQLType.VARCHAR in (left, right):
        return SQLType.VARCHAR
    if left in _NUMERIC and right in _NUMERIC:
        return _WIDENING[max(_WIDENING.index(left), _WIDENING.index(right))]
    if left in _TEMPORAL and right in _TEMPORAL:
        return SQLType.DATETIME
    # Mixed numeric/temporal: fall back to string, the universal type.
    return SQLType.VARCHAR


def parse_date(text):
    """Parse a date string; return ``datetime.date`` or raise ValueError."""
    text = text.strip()
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError("not a date: %r" % text)


def parse_datetime(text):
    """Parse a datetime string; return ``datetime.datetime`` or raise."""
    text = text.strip()
    for fmt in _DATETIME_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
    # A bare date is an acceptable datetime (midnight), as in SQL Server.
    return _dt.datetime.combine(parse_date(text), _dt.time())


def cast_value(value, target, strict=True):
    """Cast a Python value to ``target`` following T-SQL CAST semantics.

    NULL casts to NULL.  With ``strict`` a failed conversion raises
    :class:`ExecutionError` (mirroring the mid-ingest type exceptions the
    paper describes); otherwise it returns ``None`` (TRY_CAST).
    """
    if value is None:
        return None
    try:
        return _cast(value, target)
    except (ValueError, TypeError, InvalidOperation, OverflowError) as exc:
        if strict:
            raise ExecutionError(
                "cannot cast %r to %s: %s" % (value, target.value, exc)
            )
        return None


def _cast(value, target):
    if target in (SQLType.INT, SQLType.BIGINT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int,)):
            return value
        if isinstance(value, (float, Decimal)):
            return int(value)
        if isinstance(value, str):
            text = value.strip()
            # T-SQL rejects '1.5' for INT; we accept integral-looking floats
            # only when exact, which keeps ingest inference honest.
            as_float = float(text)
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError("fractional value for integer cast")
            return as_int
        raise ValueError("unsupported source")
    if target is SQLType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, Decimal):
            return float(value)
        if isinstance(value, str):
            return float(value.strip())
        raise ValueError("unsupported source")
    if target is SQLType.DECIMAL:
        if isinstance(value, bool):
            return Decimal(int(value))
        if isinstance(value, (int, Decimal)):
            return Decimal(value)
        if isinstance(value, float):
            return Decimal(str(value))
        if isinstance(value, str):
            return Decimal(value.strip())
        raise ValueError("unsupported source")
    if target is SQLType.BIT:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float, Decimal)):
            return value != 0
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("true", "1", "yes", "t", "y"):
                return True
            if text in ("false", "0", "no", "f", "n"):
                return False
            raise ValueError("not a bit")
        raise ValueError("unsupported source")
    if target is SQLType.DATE:
        if isinstance(value, _dt.datetime):
            return value.date()
        if isinstance(value, _dt.date):
            return value
        if isinstance(value, str):
            return parse_date(value)
        raise ValueError("unsupported source")
    if target is SQLType.DATETIME:
        if isinstance(value, _dt.datetime):
            return value
        if isinstance(value, _dt.date):
            return _dt.datetime.combine(value, _dt.time())
        if isinstance(value, str):
            return parse_datetime(value)
        raise ValueError("unsupported source")
    if target is SQLType.VARCHAR:
        return format_value(value)
    if target is SQLType.UNKNOWN:
        return value
    raise ValueError("unsupported target %s" % target)


def format_value(value):
    """Render a value the way T-SQL renders it when cast to VARCHAR."""
    if value is None:
        return None
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        # Avoid '1.0' for integral floats, matching SQL Server's CONVERT.
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, _dt.datetime):
        return value.strftime("%Y-%m-%d %H:%M:%S")
    if isinstance(value, _dt.date):
        return value.strftime("%Y-%m-%d")
    return str(value)


def infer_literal_type(value):
    """SQLType of a Python value produced by the lexer or client code."""
    if value is None:
        return SQLType.UNKNOWN
    if isinstance(value, bool):
        return SQLType.BIT
    if isinstance(value, int):
        return SQLType.BIGINT if abs(value) > 2**31 - 1 else SQLType.INT
    if isinstance(value, float):
        return SQLType.FLOAT
    if isinstance(value, Decimal):
        return SQLType.DECIMAL
    if isinstance(value, _dt.datetime):
        return SQLType.DATETIME
    if isinstance(value, _dt.date):
        return SQLType.DATE
    if isinstance(value, str):
        return SQLType.VARCHAR
    raise TypeCheckError("unsupported literal %r" % (value,))


def column_width(values, sql_type):
    """Estimated byte width of a column's values, summed, for statistics:
    1 per NULL, the text length (at least 1) per VARCHAR value, and the
    type's width per other value."""
    values = list(values)
    nulls = values.count(None)
    if sql_type is not SQLType.VARCHAR:
        return nulls + TYPE_WIDTH[sql_type] * (len(values) - nulls)
    texts = [str(value) for value in values if value is not None]
    return nulls + sum(map(len, texts)) + texts.count("")
