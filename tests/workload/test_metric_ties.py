"""Figs 9/10 and Table 4 rank ties by name, not by hash order.

Operator and expression names reach the counters through sets, whose
iteration order follows ``PYTHONHASHSEED``; the ranking must not.
"""

import os
import subprocess
import sys

import repro

NAMES = ["Sort", "Segment", "Sequence Project", "Hash Match", "Filter",
         "Top", "Compute Scalar", "Nested Loops", "Merge Join", "Concatenation"]

SCRIPT = """
import types
from repro.workload import metrics
from repro.analysis import diversity

names = %r
records = [types.SimpleNamespace(distinct_operators=set(names[:cut]),
                                 expression_ops=list(set(names[:cut])))
           for cut in (10, 10, 6, 6, 3)]
print(metrics.operator_frequency(records, ignore=(), top=5))
print(metrics.expression_frequency(records))
print(diversity.expression_distribution(records, top=4))
""" % (NAMES,)


def _ranked_under(seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_rankings_do_not_depend_on_the_hash_seed():
    first = _ranked_under(1)
    assert first == _ranked_under(2)
    assert first.splitlines()[0] == repr([
        ("Segment", 100.0), ("Sequence Project", 100.0), ("Sort", 100.0),
        ("Filter", 80.0), ("Hash Match", 80.0)])
