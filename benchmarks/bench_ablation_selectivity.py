"""Ablation: sample-based range selectivity vs the optimizer magic number.

The engine estimates ``col > literal`` selectivity from a deterministic
value sample per column; classic optimizers used a flat default (0.30 —
our fallback).  Measures cardinality-estimation error on skewed data both
ways.
"""

from contextlib import nullcontext
from unittest import mock

from repro.engine import cost as costmodel
from repro.engine.catalog import TableStatistics
from repro.engine.database import Database
from repro.reporting import format_table


def _make_db(rows=2000):
    db = Database()
    db.execute("CREATE TABLE t (k int, v int)")
    table = db.catalog.get_table("t")
    for i in range(rows):
        # Heavy skew: 95% small values, 5% large outliers.
        table.insert_row((i, 10 if i % 20 else 9000))
    return db


def _estimate_error(db, thresholds, use_samples):
    total_ratio = 0.0
    worst = 1.0
    # Without samples every range predicate falls back to the flat default.
    disabled = (nullcontext() if use_samples else mock.patch.object(
        TableStatistics, "range_selectivity", return_value=None))
    with disabled:
        for threshold in thresholds:
            sql = "SELECT * FROM t WHERE v > %d" % threshold
            plan = db.explain(sql).plan
            leaf = [op for op in plan.walk() if op.filters][0]
            actual = len(db.execute(sql).rows)
            ratio = max(leaf.est_rows, 1.0) / max(actual, 1.0)
            ratio = max(ratio, 1.0 / ratio)  # q-error
            total_ratio += ratio
            worst = max(worst, ratio)
    return total_ratio / len(thresholds), worst


def test_ablation_selectivity_estimation(benchmark, report):
    db = _make_db()
    thresholds = (5, 50, 500, 8000)
    with_samples = _estimate_error(db, thresholds, use_samples=True)
    without = _estimate_error(db, thresholds, use_samples=False)
    benchmark.pedantic(
        _estimate_error, args=(db, thresholds, True), rounds=1, iterations=1
    )
    rows = [
        ("sample-based", "%.2f" % with_samples[0], "%.2f" % with_samples[1]),
        ("flat default (%.2f)" % costmodel.RANGE_DEFAULT,
         "%.2f" % without[0], "%.2f" % without[1]),
    ]
    text = format_table(
        ["estimator", "mean q-error", "worst q-error"], rows,
        title="Ablation: range-selectivity estimation on skewed data "
              "(q-error = max(est/actual, actual/est); 1.0 is perfect)",
    )
    report("ablation_selectivity", text)
    # Samples must beat the magic number on skewed data.
    assert with_samples[0] < without[0]
    assert with_samples[1] <= without[1]
