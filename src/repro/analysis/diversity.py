"""Workload diversity / entropy (§6.2, Table 3 and Table 4).

Three equivalence notions, coarsest to finest:

1. exact ASCII string equivalence;
2. column-distinct equivalence (Mozafari et al.): two queries are the same
   when they reference the same set of attributes;
3. query plan templates (QPT): the optimized plan with all constants and
   literals removed — "it unifies most semantically equivalent queries but
   still incorporates the operations."

Plus the chunked workload-distance measure of §6.4 (Mozafari's method: a
workload is diverse when consecutive chronological chunks are far apart in
attribute-frequency space).
"""

import collections
import math
import re

from repro.workload import metrics
from repro.workload.plans_json import walk_plan

_NUMBER_RE = re.compile(r"\b\d+(?:\.\d+)?(?:[eE][+-]?\d+)?\b")
_STRING_RE = re.compile(r"'(?:[^']|'')*'")


def normalize_sql(sql):
    """Light canonicalization for string-distinct counting."""
    return " ".join(sql.split()).lower()


def string_distinct(catalog):
    """Number of string-distinct queries (Table 3 row 2)."""
    return len({normalize_sql(record.sql) for record in catalog})


def column_distinct(catalog):
    """Number of column-distinct queries per Mozafari et al. (row 3).

    A query's identity is the frozen set of (table, column) attributes it
    references; computed over string-distinct queries, as the paper does.
    """
    seen_strings = set()
    signatures = set()
    for record in catalog:
        key = normalize_sql(record.sql)
        if key in seen_strings:
            continue
        seen_strings.add(key)
        signatures.add(frozenset(record.columns))
    return len(signatures)


def strip_constants(text):
    """Remove literals from a predicate/expression string."""
    text = _STRING_RE.sub("?", text)
    return _NUMBER_RE.sub("?", text)


def plan_template(plan_json):
    """The query plan template (QPT): plan structure minus constants.

    Hashable nested tuple of (physicalOp, stripped filters, children).
    Table/column identity is retained — two queries over different tables
    do different work — but every literal is replaced by ``?``.
    """
    return _node_template(plan_json)


def _node_template(node):
    filters = tuple(sorted(strip_constants(text) for text in node.get("filters", [])))
    outputs = tuple(node.get("outputColumns", []))
    children = tuple(_node_template(child) for child in node.get("children", []))
    subplans = tuple(_node_template(child) for child in node.get("subplans", []))
    return (node["physicalOp"], filters, outputs, children, subplans)


def distinct_templates(catalog):
    """Number of unique query plan templates (Table 3 row 4), computed over
    string-distinct queries."""
    seen_strings = set()
    templates = set()
    for record in catalog:
        if record.plan_json is None:
            continue
        key = normalize_sql(record.sql)
        if key in seen_strings:
            continue
        seen_strings.add(key)
        templates.add(plan_template(record.plan_json))
    return len(templates)


def entropy_table(catalog):
    """The full Table 3 column for one workload."""
    total = len(catalog)
    strings = string_distinct(catalog)
    columns = column_distinct(catalog)
    templates = distinct_templates(catalog)
    return collections.OrderedDict(
        [
            ("total_queries", total),
            ("string_distinct", strings),
            ("string_distinct_pct", 100.0 * strings / total if total else 0.0),
            ("column_distinct", columns),
            ("column_distinct_pct", 100.0 * columns / strings if strings else 0.0),
            ("distinct_templates", templates),
            ("distinct_templates_pct", 100.0 * templates / strings if strings else 0.0),
        ]
    )


# -- Table 4: expression operator distribution ------------------------------------


def expression_distribution(catalog, top=None):
    """Ranked expression operators (Table 4) plus distinct-op count."""
    ranked = metrics.expression_frequency(catalog)
    return ranked[:top], len(ranked)


# -- §6.4: Mozafari chunked workload distance ----------------------------------------


def mozafari_distance(records, chunks=2):
    """Workload diversity as distance between chronological chunks.

    Each chunk is a vector over unique referenced-attribute sets, holding
    the normalized frequency of queries referencing exactly that set; the
    result is the maximum euclidean distance between consecutive chunks.
    The original paper's maximum was 0.003; SQLShare users show orders of
    magnitude more.
    """
    records = sorted(records, key=lambda record: record.timestamp)
    if len(records) < chunks or chunks < 2:
        return 0.0
    size = len(records) // chunks
    vectors = []
    signatures = sorted(
        {frozenset(record.columns) for record in records},
        key=lambda signature: sorted(signature),
    )
    index_of = {signature: i for i, signature in enumerate(signatures)}
    for chunk_index in range(chunks):
        start = chunk_index * size
        end = start + size if chunk_index < chunks - 1 else len(records)
        chunk = records[start:end]
        vector = [0.0] * len(signatures)
        for record in chunk:
            vector[index_of[frozenset(record.columns)]] += 1.0
        total = sum(vector) or 1.0
        vectors.append([value / total for value in vector])
    distances = [
        _euclidean(vectors[i], vectors[i + 1]) for i in range(len(vectors) - 1)
    ]
    return max(distances)


def per_user_mozafari(catalog, chunks=2, min_queries=10):
    """§6.4: the distance for every user with enough queries."""
    result = {}
    for user, records in catalog.by_user().items():
        if len(records) >= min_queries:
            result[user] = mozafari_distance(records, chunks=chunks)
    return result


def _euclidean(left, right):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(left, right)))
