"""Platform state <-> JSON-safe dicts, plus the canonical state digest.

One versioned document describes a whole deployment: engine catalog (tables
with rows, views with their SQL), catalog versions, datasets, permissions,
quotas, the query log, macros and ingest reports.  The snapshot store
frames this document on disk; recovery rebuilds a live platform from it.

The document holds live state only: table rows are the tables' own row
tuples, and derived state (dataset previews, cached results) is not
written at all.  Dates, datetimes and Decimals, in rows as everywhere
else, go through one tag scheme, :func:`json_default` on the way out and
:func:`json_object_hook` on the way in, which the WAL uses too.
Snapshots written before this scheme tagged row cells as 2-lists
(``["@d", "2011-06-01"]``); :func:`decode_row` still reads them, and
passes cells the hook has already decoded through unchanged.

Two invariants the rest of the subsystem leans on:

- **Round-trip exactness**: ``restore_platform_state(p2, platform_to_state(p1))``
  makes :func:`state_digest` agree on ``p1`` and ``p2``.  The digest is the
  crash tests' notion of "byte-equivalent state".
- **Broken views restore broken**: a view whose referenced objects were
  deleted (the platform leaves dependents dangling on purpose, §3.2) is
  restored from its SQL text *without planning*, so it keeps failing at
  query time exactly as it did before the crash.
"""

import datetime as _dt
import hashlib
import json
from decimal import Decimal

FORMAT_VERSION = 1


# -- JSON envelope helpers (shared with the WAL) -------------------------------


def json_default(value):
    """``json.dumps`` default: datetimes, dates, Decimals and sets."""
    if isinstance(value, _dt.datetime):
        return {"__dt__": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"__date__": value.isoformat()}
    if isinstance(value, Decimal):
        return {"__dec__": str(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError("cannot serialize %r (%s)" % (value, type(value).__name__))


def json_object_hook(obj):
    """Inverse of :func:`json_default` for the tagged scalar types."""
    if len(obj) == 1:
        if "__dt__" in obj:
            return _dt.datetime.fromisoformat(obj["__dt__"])
        if "__date__" in obj:
            return _dt.date.fromisoformat(obj["__date__"])
        if "__dec__" in obj:
            return Decimal(obj["__dec__"])
    return obj


# -- cell values ---------------------------------------------------------------


def decode_value(value):
    """One row cell: a 2-list tagged ``@dt``/``@d``/``@n`` (older
    snapshots) is decoded, anything else is returned as it is."""
    if isinstance(value, list):
        tag, raw = value
        if tag == "@dt":
            return _dt.datetime.fromisoformat(raw)
        if tag == "@d":
            return _dt.date.fromisoformat(raw)
        if tag == "@n":
            return Decimal(raw)
        raise ValueError("unknown cell tag %r" % tag)
    return value


def decode_row(row):
    return tuple(decode_value(value) for value in row)


def _encode_columns(columns):
    return [[column.name, column.sql_type.value] for column in columns]


def _decode_columns(pairs):
    from repro.engine.catalog import Column
    from repro.engine.types import SQLType

    return [Column(name, SQLType(type_name)) for name, type_name in pairs]


# -- platform -> state ---------------------------------------------------------


def platform_to_state(platform):
    """Serialize a whole deployment (call under the platform's state lock)."""
    catalog = platform.db.catalog
    state = {
        "format": FORMAT_VERSION,
        "clock": platform._clock.isoformat(),
        "table_seq": platform._table_seq,
        "engine": {
            "tables": [
                {
                    "name": table.name,
                    "columns": _encode_columns(table.columns),
                    "rows": list(table.rows),
                }
                for table in catalog.tables()
            ],
            "views": [
                {
                    "name": view.name,
                    "sql": view.sql,
                    "columns": _encode_columns(view.columns),
                }
                for view in catalog.views()
            ],
            "versions": catalog.all_versions(),
        },
        "datasets": [_dataset_to_dict(d) for d in platform.datasets.values()],
        "permissions": platform.permissions.dump_state(),
        "quotas": platform.quotas.dump_state(),
        "querylog": platform.log.dump_state(),
        "macros": [
            {
                "name": macro.name,
                "owner": macro.owner,
                "template": macro.template,
                "description": macro.description,
                "public": macro.public,
            }
            for macro in platform.macros.all_macros()
        ],
        "ingest_reports": {
            key: _ingest_report_to_dict(report)
            for key, report in platform.ingest_reports.items()
        },
    }
    # Monitoring history rides along when present: per-fingerprint runtime
    # baselines (the Query Store) are only useful for regression detection
    # if they survive a restart.  Attached by the runtime; absent on a bare
    # platform.
    query_store = getattr(platform, "query_store", None)
    if query_store is not None:
        state["querystore"] = query_store.dump_state()
    # Batch-lane journal: admitted/finished batches must survive restart so
    # a recovered worker can re-enqueue unfinished ones (absent on
    # snapshots written before the batch lane existed).
    batch_journal = getattr(platform, "batch_journal", None)
    if batch_journal is not None and len(batch_journal):
        state["batchjournal"] = batch_journal.dump_state()
    # Harvested cardinality feedback: like the Query Store, it is runtime
    # history worth keeping — a restart should not forget the observed
    # cardinalities that corrected a regressed plan.
    feedback_store = getattr(platform, "feedback_store", None)
    if feedback_store is not None:
        dumped = feedback_store.dump_state()
        if dumped.get("entries"):
            state["feedback"] = dumped
    return state


def _dataset_to_dict(dataset):
    return {
        "name": dataset.name,
        "owner": dataset.owner,
        "sql": dataset.sql,
        "kind": dataset.kind,
        "base_table": dataset.base_table,
        "derived_from": list(dataset.derived_from),
        "created_at": (
            dataset.created_at.isoformat()
            if dataset.created_at is not None else None
        ),
        "description": dataset.metadata.description,
        "tags": sorted(dataset.metadata.tags),
        "doi": dataset.doi,
    }


def _ingest_report_to_dict(report):
    fmt = report.format
    return {
        "table_name": report.table_name,
        "row_count": report.row_count,
        "column_count": report.column_count,
        "defaulted_columns": list(report.defaulted_columns),
        "reverted_columns": list(report.reverted_columns),
        "ragged": report.ragged,
        "column_types": {
            name: sql_type.value for name, sql_type in report.column_types.items()
        },
        "format": None if fmt is None else {
            "field_delimiter": fmt.field_delimiter,
            "row_delimiter": fmt.row_delimiter,
            "column_count": fmt.column_count,
            "has_header": fmt.has_header,
        },
    }


# -- state -> platform ---------------------------------------------------------


def restore_platform_state(platform, state):
    """Rebuild a freshly constructed platform from a state document.

    The caller (recovery) is responsible for replaying any WAL tail on top
    and for regenerating catalog versions afterwards.
    """
    from repro.core.dataset import Dataset
    from repro.core.macros import Macro
    from repro.engine import parser as sql_parser
    from repro.engine.catalog import Table, View
    from repro.engine.database import _strip_order_by
    from repro.engine.types import SQLType
    from repro.errors import SQLError
    from repro.ingest.delimiters import FormatGuess
    from repro.ingest.ingestor import IngestReport

    if state.get("format") != FORMAT_VERSION:
        raise ValueError(
            "unsupported snapshot format %r (expected %d)"
            % (state.get("format"), FORMAT_VERSION)
        )
    platform._clock = _dt.datetime.fromisoformat(state["clock"])
    platform._table_seq = state["table_seq"]

    catalog = platform.db.catalog
    for spec in state["engine"]["tables"]:
        catalog.adopt_table(Table(
            spec["name"], _decode_columns(spec["columns"]),
            map(decode_row, spec["rows"])))
    for spec in state["engine"]["views"]:
        # Re-parse the stored SQL; a view over since-deleted objects still
        # parses (binding is deferred to planning), and one that does not
        # is restored queryless — failing at query time, as before.
        try:
            query = _strip_order_by(sql_parser.parse(spec["sql"]))
        except SQLError:
            query = None
        catalog.adopt_view(
            View(spec["name"], spec["sql"], query, _decode_columns(spec["columns"]))
        )
    catalog.restore_versions(state["engine"]["versions"])

    for spec in state["datasets"]:
        dataset = Dataset(
            spec["name"], spec["owner"], spec["sql"], spec["kind"],
            base_table=spec["base_table"],
            derived_from=spec["derived_from"],
            created_at=(
                _dt.datetime.fromisoformat(spec["created_at"])
                if spec["created_at"] else None
            ),
            description=spec["description"],
            tags=spec["tags"],
        )
        dataset.doi = spec["doi"]
        platform.datasets[dataset.name.lower()] = dataset

    platform.permissions.restore_state(state["permissions"])
    platform.quotas.restore_state(state["quotas"])
    platform.log.restore_state(state["querylog"])

    for spec in state["macros"]:
        macro = Macro(spec["name"], spec["owner"], spec["template"],
                      spec["description"])
        macro.public = spec["public"]
        platform.macros.adopt(macro)

    for key, spec in state["ingest_reports"].items():
        report = IngestReport(spec["table_name"])
        report.row_count = spec["row_count"]
        report.column_count = spec["column_count"]
        report.defaulted_columns = list(spec["defaulted_columns"])
        report.reverted_columns = list(spec["reverted_columns"])
        report.ragged = spec["ragged"]
        report.column_types = {
            name: SQLType(value) for name, value in spec["column_types"].items()
        }
        if spec["format"] is not None:
            fmt = spec["format"]
            report.format = FormatGuess(
                fmt["field_delimiter"], fmt["row_delimiter"],
                fmt["column_count"], fmt["has_header"],
            )
        platform.ingest_reports[key] = report

    if state.get("querystore") is not None:
        from repro.obs.querystore import QueryStore

        store = getattr(platform, "query_store", None)
        if store is None:
            store = platform.query_store = QueryStore()
        store.restore_state(state["querystore"])

    if state.get("feedback") is not None:
        from repro.adaptive import CardinalityFeedbackStore

        feedback = getattr(platform, "feedback_store", None)
        if feedback is None:
            feedback = platform.feedback_store = CardinalityFeedbackStore()
        feedback.restore_state(state["feedback"])
        # The planner consults the store through the database handle; a
        # runtime attaching later re-points this at its own store.
        platform.db.feedback = feedback

    if state.get("batchjournal") is not None:
        platform.batch_journal.restore_state(state["batchjournal"])
    return platform


# -- digest --------------------------------------------------------------------


def state_digest(platform):
    """SHA-256 over the platform's logical state.

    Excludes what recovery deliberately does not round-trip: catalog
    versions (regenerated with an epoch bump so pre-crash cache vectors can
    never validate), per-entry ``plan_json`` (an analysis artifact the
    workload framework re-attaches), and the Query Store and cardinality
    feedback store (monitoring history is checkpoint-only — the WAL does
    not log it, so post-checkpoint executions are legitimately lost on
    crash).  Everything
    else — tables, rows, views, datasets, permissions, quotas, the query
    log — must match exactly, which is the crash harness's equality
    criterion.
    """
    with platform._state_lock:
        state = platform_to_state(platform)
    state["engine"].pop("versions")
    state.pop("querystore", None)
    state.pop("feedback", None)
    for entry in state["querylog"]["entries"]:
        entry.pop("plan_json", None)
    payload = json.dumps(state, default=json_default, sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
