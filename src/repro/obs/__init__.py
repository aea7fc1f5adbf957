"""Observability: the telemetry layer the deployed system delegated to Azure.

The paper's analysis pipeline consumes *estimated* plans; this package
records what actually happened when those plans run under the
:mod:`repro.runtime` scheduler:

- :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and histograms (with streaming quantile estimation), rendered as
  Prometheus text exposition through ``GET /api/v1/metrics``;
- :mod:`repro.obs.tracing` — per-query lifecycle traces (submit → admit →
  parse → analyze → plan → execute → fetch), exportable as structured
  JSON and as Chrome ``trace_event`` format;
- :mod:`repro.obs.profiler` — per-operator runtime profiling for
  ``EXPLAIN ANALYZE``-style estimated-vs-actual comparisons and the
  q-error scoring in :mod:`repro.analysis.estimation`;
- :mod:`repro.obs.timeseries` — bounded ring-buffer history over the
  registry with windowed queries (rate/delta/mean/quantile) and a
  background sampler;
- :mod:`repro.obs.querystore` — per-fingerprint runtime baselines with
  plan-change detection and regression verdicts (SQL Server Query Store
  style);
- :mod:`repro.obs.alerts` — declarative threshold rules over the
  time-series with ok→pending→firing state machines;
- :mod:`repro.obs.monitor` — the sampler + store + alerts bundle the
  runtime owns and ``GET /api/v1/health`` reports on.

Everything here is built to be always-cheap: registry updates are O(1),
tracing appends a handful of spans per query, and operator wrapping only
happens when profiling is explicitly requested.  The repo benchmark
(``benchmarks/e2e``) runs with all of it on, so its cost is inside every
end-to-end number; ``run.py --trace 1`` reports the traced throughput
beside it.
"""

from repro.obs.alerts import AlertManager, AlertRule, default_rules
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    buckets_up_to,
)
from repro.obs.monitor import ContinuousMonitor
from repro.obs.profiler import (
    ExecutionProfile,
    QueryProfiler,
    q_error,
    render_explain_analyze,
)
from repro.obs.querystore import QueryStore, plan_fingerprint
from repro.obs.timeseries import MetricsSampler, TimeSeriesStore
from repro.obs.tracing import Span, Trace

__all__ = [
    "AlertManager",
    "AlertRule",
    "ContinuousMonitor",
    "Counter",
    "ExecutionProfile",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "QueryProfiler",
    "QueryStore",
    "Span",
    "TimeSeriesStore",
    "Trace",
    "buckets_up_to",
    "default_rules",
    "plan_fingerprint",
    "q_error",
    "render_explain_analyze",
]
