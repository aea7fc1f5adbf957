"""Metrics registry: counters, gauges, histograms, Prometheus rendering."""

import random
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    buckets_up_to,
)


class TestP2Quantile:
    def test_exact_for_small_samples(self):
        q = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            q.observe(value)
        assert q.value() == 3.0

    def test_approximates_uniform_median(self):
        rng = random.Random(7)
        q = P2Quantile(0.5)
        for _ in range(20000):
            q.observe(rng.random())
        assert abs(q.value() - 0.5) < 0.02

    def test_approximates_tail_quantile(self):
        rng = random.Random(11)
        q = P2Quantile(0.99)
        for _ in range(20000):
            q.observe(rng.random())
        assert abs(q.value() - 0.99) < 0.02

    def test_empty(self):
        assert P2Quantile(0.9).value() == 0.0


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent_series(self):
        counter = Counter("c_total", "help")
        counter.labels(outcome="ok").inc()
        counter.labels(outcome="ok").inc()
        counter.labels(outcome="err").inc()
        assert counter.value(outcome="ok") == 2.0
        assert counter.value(outcome="err") == 1.0

    def test_thread_safety(self):
        counter = Counter("c_total", "help")

        def hammer():
            for _ in range(10000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 40000.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g", "help")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(3.0)
        assert gauge.value() == 12.0

    def test_callback_evaluated_at_read(self):
        state = {"depth": 1}
        gauge = Gauge("g", "help")
        gauge.set_function(lambda: state["depth"])
        assert gauge.value() == 1.0
        state["depth"] = 7
        assert gauge.value() == 7.0

    def test_broken_callback_reads_zero(self):
        gauge = Gauge("g", "help")
        gauge.set_function(lambda: 1 / 0)
        assert gauge.value() == 0.0


class TestHistogram:
    def test_buckets_sum_count(self):
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        summary = hist.to_dict()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(5.55)
        samples = dict(
            (labels.get("le"), value)
            for series, labels, value in hist.samples()
            if series.endswith("_bucket")
        )
        # Cumulative buckets, +Inf covers everything.
        assert samples["0.1"] == 1
        assert samples["1"] == 2
        assert samples["+Inf"] == 3

    def test_quantiles_tracked(self):
        hist = Histogram("h_seconds", "help")
        for i in range(1, 101):
            hist.observe(i / 100.0)
        summary = hist.to_dict()
        assert 0.4 < summary["p50"] < 0.6
        assert 0.8 < summary["p90"] <= 1.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help")
        again = registry.counter("x_total")
        assert first is again

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_callback_replaced_by_name(self):
        registry = MetricsRegistry()
        registry.gauge_callback("depth", "help", lambda: 1)
        registry.gauge_callback("depth", "help", lambda: 2)
        assert registry.snapshot()["depth"] == 2.0

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "Jobs.").labels(outcome="ok").inc()
        registry.gauge("depth", "Depth.").set(3)
        registry.histogram("lat_seconds", "Latency.",
                           buckets=(0.1, 1.0)).observe(0.2)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP jobs_total Jobs." in lines
        assert "# TYPE jobs_total counter" in lines
        assert 'jobs_total{outcome="ok"} 1' in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 3" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="1"} 1' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "lat_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", "h").labels(msg='say "hi"\n').inc()
        text = registry.render_prometheus()
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_snapshot_deltas(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.labels(outcome="ok").inc()
        before = registry.snapshot()
        counter.labels(outcome="ok").inc(4)
        after = registry.snapshot()
        key = 'jobs_total{outcome="ok"}'
        assert after[key] - before[key] == 4.0


class TestConfigurableBuckets:
    def test_buckets_up_to_extends_by_decades(self):
        extended = buckets_up_to(60.0)
        assert extended[:len(DEFAULT_BUCKETS)] == DEFAULT_BUCKETS
        assert extended[len(DEFAULT_BUCKETS):] == (25.0, 50.0, 100.0)
        assert extended[-1] >= 60.0
        # Strictly increasing: registration order is the exposition order.
        assert list(extended) == sorted(set(extended))

    def test_buckets_up_to_within_default_is_identity(self):
        assert buckets_up_to(5.0) == DEFAULT_BUCKETS

    def test_histogram_accepts_custom_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "", buckets=(1.0, 2.0))
        hist.observe(1.5)
        snap = registry.snapshot()
        assert snap['h_seconds_bucket{le="1"}'] == 0.0
        assert snap['h_seconds_bucket{le="2"}'] == 1.0
        assert snap['h_seconds_bucket{le="+Inf"}'] == 1.0

    def test_registry_default_buckets_apply_to_new_histograms(self):
        registry = MetricsRegistry(default_buckets=buckets_up_to(60.0))
        hist = registry.histogram("h_seconds")
        hist.observe(42.0)
        snap = registry.snapshot()
        assert snap['h_seconds_bucket{le="50"}'] == 1.0
        assert snap['h_seconds_bucket{le="25"}'] == 0.0
        # Explicit buckets at the registration site still win.
        other = registry.histogram("i_seconds", buckets=(0.5,))
        other.observe(0.1)
        assert registry.snapshot()['i_seconds_bucket{le="0.5"}'] == 1.0

    def test_runtime_config_extends_scheduler_histograms(self):
        from repro.core.sqlshare import SQLShare
        from repro.runtime import QueryRuntime, RuntimeConfig

        platform = SQLShare()
        platform.upload("alice", "obs", "a,b\n1,2\n")
        QueryRuntime(platform, RuntimeConfig(max_workers=0,
                                             statement_timeout=60.0))
        snap = platform.metrics.snapshot()
        assert 'repro_scheduler_exec_seconds_bucket{le="50"}' in snap
        assert 'repro_scheduler_exec_seconds_bucket{le="100"}' in snap
