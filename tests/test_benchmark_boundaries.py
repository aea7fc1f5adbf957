"""The repo benchmark's tracer patches the program at dotted names; a
refactor that renames one silently nulls that benchmark layer.  This keeps
every name in ``benchmarks/e2e/trace.py:BOUNDARIES`` resolvable."""

import importlib.util
import os

TRACE_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "e2e", "trace.py")


def test_every_traced_boundary_still_resolves():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    gone = [dotted for _layer, _span, dotted, _before, _after
            in trace.BOUNDARIES if trace.resolve(dotted) is None]
    assert gone == []
