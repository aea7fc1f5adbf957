"""Per-query and per-workload metric helpers used across Section 5/6.

The paper's metrics of importance: "query length, runtime, number & type of
physical & logical operators, number & type of expression operators, tables
& columns referenced and operator costs."
"""

import collections


def length_histogram(catalog, boundaries=(100, 500, 1000)):
    """Fraction of queries per ASCII-length bucket (Figure 7).

    Returns an ordered dict: label -> percentage.  Buckets are
    ``<100``, ``100-500``, ``500-1000``, ``>1000`` by default.
    """
    labels = ["<%d" % boundaries[0]]
    for low, high in zip(boundaries, boundaries[1:]):
        labels.append("%d-%d" % (low, high))
    labels.append(">%d" % boundaries[-1])
    counts = collections.OrderedDict((label, 0) for label in labels)
    for record in catalog:
        counts[_bucket(record.length, boundaries, labels)] += 1
    total = float(len(catalog)) or 1.0
    return collections.OrderedDict(
        (label, 100.0 * count / total) for label, count in counts.items()
    )


def _bucket(value, boundaries, labels):
    for index, bound in enumerate(boundaries):
        if value < bound:
            return labels[index]
    return labels[-1]


def distinct_operator_histogram(catalog, boundaries=(4, 8)):
    """Fraction of queries per distinct-operator-count bucket (Figure 8):
    ``<4``, ``4-8``, ``>=8`` by default."""
    labels = ["<%d" % boundaries[0], "%d-%d" % boundaries, ">=%d" % boundaries[1]]
    counts = collections.OrderedDict((label, 0) for label in labels)
    for record in catalog:
        value = record.distinct_operator_count
        if value < boundaries[0]:
            counts[labels[0]] += 1
        elif value < boundaries[1]:
            counts[labels[1]] += 1
        else:
            counts[labels[2]] += 1
    total = float(len(catalog)) or 1.0
    return collections.OrderedDict(
        (label, 100.0 * count / total) for label, count in counts.items()
    )


def operator_frequency(catalog, ignore=("Clustered Index Scan",), top=10):
    """Percent of queries containing each physical operator (Figures 9/10).

    The paper ignores Clustered Index Scan for SQLShare "because SQLAzure
    requires them"; callers can pass a different ignore list for other
    workloads.
    """
    counts = collections.Counter()
    for record in catalog:
        for op_name in record.distinct_operators:
            if op_name not in ignore:
                counts[op_name] += 1
    total = float(len(catalog)) or 1.0
    return [(name, 100.0 * count / total) for name, count in _ranked(counts, top)]


def expression_frequency(catalog, top=None):
    """Counts of intrinsic/arithmetic expression operators (Table 4)."""
    counts = collections.Counter()
    for record in catalog:
        counts.update(record.expression_ops)
    return _ranked(counts, top)


def _ranked(counts, top):
    """``(name, count)`` pairs by count, descending, ties by name.

    ``Counter.most_common`` breaks ties in insertion order, which follows
    set iteration and so the hash seed; the name makes the order, and
    which names a ``top`` cut keeps, the same on every run.
    """
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top]


def queries_per_table(catalog, cap=5):
    """Histogram of query counts per referenced table (Figure 4).

    Returns an ordered dict: "1", "2", ..., ">=cap" -> number of tables.
    """
    per_table = collections.Counter()
    for query_id, table in catalog.table_refs:
        per_table[table] += 1
    buckets = collections.OrderedDict()
    for count in range(1, cap):
        buckets[str(count)] = 0
    buckets[">=%d" % cap] = 0
    for table, count in per_table.items():
        if count >= cap:
            buckets[">=%d" % cap] += 1
        else:
            buckets[str(count)] += 1
    return buckets


def mean_metrics(catalog):
    """Alias for the catalog's Table 2b summary."""
    return catalog.summary()
