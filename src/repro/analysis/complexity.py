"""Query complexity analyses (§6.1, Figures 7-10).

Thin, named wrappers over :mod:`repro.workload.metrics` so each figure has
one obvious entry point.
"""

from repro.workload import metrics

#: The paper ignores this operator for SQLShare because the backend
#: requires a clustered index on every table.
SQLSHARE_IGNORED_OPERATORS = ("Clustered Index Scan",)


def length_histogram(catalog):
    """Figure 7: % of queries per ASCII-length bucket."""
    return metrics.length_histogram(catalog)


def distinct_operator_distribution(catalog):
    """Figure 8: % of queries per distinct-operator bucket."""
    return metrics.distinct_operator_histogram(catalog)


def operator_frequency(catalog, ignore=SQLSHARE_IGNORED_OPERATORS, top=10):
    """Figures 9/10: % of queries containing each physical operator."""
    return metrics.operator_frequency(catalog, ignore=ignore, top=top)


def top_decile_distinct_operators(catalog):
    """Mean distinct-operator count among the top 10% most complex queries
    (the paper: SQLShare's top decile has almost double SDSS's)."""
    counts = sorted(
        (record.distinct_operator_count for record in catalog), reverse=True
    )
    if not counts:
        return 0.0
    decile = counts[: max(1, len(counts) // 10)]
    return sum(decile) / float(len(decile))
