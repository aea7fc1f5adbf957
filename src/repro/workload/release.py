"""Export/load the query-workload corpus (the paper's released dataset).

"We have made the query log dataset available to the research community to
inform research on database interfaces, new languages, workload
optimization, query recommendation, domain-specific data systems, and
visualization."  This module produces that release from a platform:
newline-delimited JSON of every logged query (with its Phase-1 JSON plan
when available), dataset metadata, and a manifest — optionally anonymized,
as the real release was (usernames were only characterized, e.g. the
.edu-address count).
"""

import datetime as _dt
import json
import os

from repro.core.querylog import QueryLogEntry
from repro.errors import ReproError

FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
QUERIES_NAME = "queries.jsonl"
DATASETS_NAME = "datasets.json"
USERS_NAME = "users.json"


class _Anonymizer(object):
    """Stable pseudonyms for user names."""

    def __init__(self):
        self._mapping = {}

    def user(self, name):
        if name not in self._mapping:
            self._mapping[name] = "user_%04d" % (len(self._mapping) + 1)
        return self._mapping[name]


def export_corpus(platform, directory, anonymize=True, include_plans=True):
    """Write the corpus release files; returns the manifest dict.

    ``include_plans`` attaches each entry's Phase-1 JSON plan when the
    workload analyzer has populated it.
    """
    os.makedirs(directory, exist_ok=True)
    anonymizer = _Anonymizer() if anonymize else None

    def user_id(name):
        return anonymizer.user(name) if anonymizer else name

    query_path = os.path.join(directory, QUERIES_NAME)
    count = 0
    with open(query_path, "w") as handle:
        for entry in platform.log:
            record = {
                "query_id": entry.query_id,
                "owner": user_id(entry.owner),
                "sql": entry.sql,
                "timestamp": entry.timestamp.isoformat(),
                "datasets": list(entry.datasets),
                "tables": list(entry.tables),
                "columns": [list(pair) for pair in entry.columns],
                "views": list(entry.views),
                "runtime": entry.runtime,
                "row_count": entry.row_count,
                "error": entry.error,
                "source": entry.source,
            }
            if include_plans and entry.plan_json is not None:
                record["plan"] = entry.plan_json
            handle.write(json.dumps(record, default=str) + "\n")
            count += 1

    datasets = []
    for dataset in platform.datasets.values():
        datasets.append(
            {
                "name": dataset.name,
                "owner": user_id(dataset.owner),
                "kind": dataset.kind,
                "sql": dataset.sql,
                "derived_from": dataset.derived_from,
                "created_at": dataset.created_at.isoformat()
                if dataset.created_at else None,
                "visibility": platform.visibility(dataset.name),
                "tags": sorted(dataset.metadata.tags),
                "description": dataset.metadata.description,
                "doi": dataset.doi,
            }
        )
    with open(os.path.join(directory, DATASETS_NAME), "w") as handle:
        json.dump(datasets, handle, indent=1)

    users = sorted({entry.owner for entry in platform.log} |
                   {d.owner for d in platform.datasets.values()})
    academic = sum(1 for user in users if ".edu" in user)
    with open(os.path.join(directory, USERS_NAME), "w") as handle:
        json.dump(
            {
                "users": [user_id(user) for user in users],
                "academic_count": academic,  # the paper: 260 of 591 are .edu
                "total": len(users),
            },
            handle, indent=1,
        )

    manifest = {
        "format_version": FORMAT_VERSION,
        "anonymized": anonymize,
        "queries": count,
        "datasets": len(datasets),
        "users": len(users),
        "exported_at": _dt.datetime(2016, 6, 26).isoformat(),  # deterministic
    }
    with open(os.path.join(directory, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


class ReleasedCorpus(object):
    """A loaded corpus release: log entries, dataset metadata, manifest.

    Duck-types enough of the platform surface (``log.successful()``) for
    :class:`repro.workload.extract.WorkloadAnalyzer` to analyze it using
    the *stored* plans — no live database required, exactly how downstream
    researchers consumed the real release.
    """

    def __init__(self, entries, datasets, users, manifest):
        self.entries = entries
        self.datasets = datasets
        self.users = users
        self.manifest = manifest
        self.log = self  # .log.successful() duck-typing

    def successful(self):
        return [entry for entry in self.entries if entry.error is None]

    def __len__(self):
        return len(self.entries)


def load_corpus(directory):
    """Load a corpus release written by :func:`export_corpus`."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise ReproError("no corpus manifest in %r" % directory)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ReproError(
            "unsupported corpus format version %r" % manifest.get("format_version")
        )
    entries = []
    with open(os.path.join(directory, QUERIES_NAME)) as handle:
        for line in handle:
            record = json.loads(line)
            entry = QueryLogEntry(
                record["query_id"],
                record["owner"],
                record["sql"],
                _dt.datetime.fromisoformat(record["timestamp"]),
                datasets=record.get("datasets", ()),
                tables=record.get("tables", ()),
                columns=[tuple(pair) for pair in record.get("columns", [])],
                views=record.get("views", ()),
                runtime=record.get("runtime", 0.0),
                row_count=record.get("row_count", 0),
                error=record.get("error"),
                source=record.get("source", "webui"),
            )
            entry.plan_json = record.get("plan")
            entries.append(entry)
    with open(os.path.join(directory, DATASETS_NAME)) as handle:
        datasets = json.load(handle)
    with open(os.path.join(directory, USERS_NAME)) as handle:
        users = json.load(handle)
    return ReleasedCorpus(entries, datasets, users, manifest)
