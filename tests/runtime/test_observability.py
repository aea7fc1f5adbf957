"""Runtime observability: scheduler metrics, traces, error taxonomy."""

import pytest

from repro.core.sqlshare import SQLShare
from repro.errors import AdmissionError
from repro.runtime import QueryRuntime, RuntimeConfig

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"


@pytest.fixture
def platform():
    share = SQLShare()
    share.upload("alice", "obs", CSV)
    share.make_public("alice", "obs")
    return share


def manual_runtime(platform, **overrides):
    defaults = dict(max_workers=0, statement_timeout=30.0)
    defaults.update(overrides)
    return QueryRuntime(platform, RuntimeConfig(**defaults))


class TestSchedulerMetrics:
    def test_submission_and_outcome_counters(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        runtime.submit("alice", "SELECT nope FROM obs")
        snap = platform.metrics.snapshot()
        assert snap["repro_scheduler_jobs_submitted_total"] == 2.0
        assert snap['repro_scheduler_jobs_finished_total{outcome="SUCCEEDED"}'] == 1.0
        assert snap['repro_scheduler_jobs_finished_total{outcome="FAILED"}'] == 1.0

    def test_latency_histograms_observe(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        snap = platform.metrics.snapshot()
        assert snap["repro_scheduler_exec_seconds_count"] == 1.0
        assert snap["repro_scheduler_exec_seconds_sum"] > 0.0
        assert snap["repro_scheduler_worker_busy_seconds_total"] > 0.0

    def test_engine_phase_histograms(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        snap = platform.metrics.snapshot()
        for phase in ("parse", "analyze", "plan", "execute"):
            assert snap["repro_engine_%s_seconds_count" % phase] >= 1.0

    def test_admission_rejections_counted(self, platform):
        runtime = manual_runtime(platform, max_workers=1,
                                 per_user_queue_depth=1)
        # Stack the single queue slot, then overflow it.  No worker thread
        # has started yet because we never call _ensure_workers directly;
        # use inline=False submissions against a saturated queue.
        runtime._queued["alice"] = 1
        with pytest.raises(AdmissionError):
            runtime.submit("alice", "SELECT 1", inline=False)
        assert platform.metrics.snapshot()[
            "repro_scheduler_admission_rejections_total"] == 1.0

    def test_cache_counters_via_callbacks(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        runtime.submit("alice", "SELECT site FROM obs")
        snap = platform.metrics.snapshot()
        assert snap["repro_cache_hits_total"] == 1.0
        assert snap["repro_cache_misses_total"] == 1.0
        assert snap["repro_cache_entries"] == 1.0

    def test_gauges_report_pool_state(self, platform):
        runtime = manual_runtime(platform)
        snap = platform.metrics.snapshot()
        assert snap["repro_scheduler_queue_depth"] == 0.0
        assert snap["repro_scheduler_running"] == 0.0

    def test_queue_cancellation_counted(self, platform):
        runtime = manual_runtime(platform, max_workers=1)
        # Enqueue without any worker running by saturating the per-user
        # concurrency limit first.
        runtime._running["alice"] = runtime.config.per_user_max_concurrent
        job = runtime.submit("alice", "SELECT site FROM obs", inline=False)
        runtime.cancel(job.job_id)
        assert job.error_class == "cancelled"
        snap = platform.metrics.snapshot()
        assert snap['repro_scheduler_jobs_finished_total{outcome="CANCELLED"}'] == 1.0
        assert snap['repro_queries_failed_total{error_class="cancelled"}'] == 1.0


class TestErrorTaxonomy:
    @pytest.mark.parametrize("sql,klass", [
        ("SELEC site FROM obs", "parse"),
        ("SELECT nope FROM obs", "semantic"),
        ("SELECT CAST(site AS INT) FROM obs", "runtime"),
    ])
    def test_failure_class_on_job_and_metric(self, platform, sql, klass):
        runtime = manual_runtime(platform)
        job = runtime.submit("alice", sql)
        assert job.error_class == klass
        snap = platform.metrics.snapshot()
        assert snap['repro_queries_failed_total{error_class="%s"}' % klass] == 1.0

    def test_error_class_reaches_query_log(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT nope FROM obs")
        entry = platform.log.entries[-1]
        assert entry.error is not None
        assert entry.error_class == "semantic"

    def test_timeout_classified(self, platform):
        platform.upload("alice", "big",
                        "n\n" + "".join("%d\n" % i for i in range(120)))
        runtime = manual_runtime(platform, statement_timeout=0.005)
        job = runtime.submit(
            "alice", "SELECT COUNT(*) AS n FROM big a, big b, big c")
        assert job.protocol_status == "timeout"
        assert job.error_class == "timeout"


class TestTracingFlag:
    def test_trace_spans_cover_lifecycle(self, platform):
        runtime = manual_runtime(platform)
        job = runtime.submit("alice", "SELECT site FROM obs")
        names = [span.name for span in job.trace.spans()]
        for expected in ("lint", "queued", "parse", "analyze", "plan",
                         "execute", "run"):
            assert expected in names, names

    def test_tracing_disabled(self, platform):
        runtime = manual_runtime(platform, tracing_enabled=False)
        job = runtime.submit("alice", "SELECT site FROM obs")
        assert job.trace is None
        assert job.state == "SUCCEEDED"

    def test_profile_through_scheduler(self, platform):
        runtime = manual_runtime(platform)
        job = runtime.submit("alice", "SELECT site FROM obs", profile=True)
        assert job.profile_data is not None
        assert job.profile_data.summary()["executed"] >= 1


class TestStatsSnapshot:
    def test_cache_stats_inside_payload(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        payload = runtime.stats()
        assert payload["cache"]["misses"] == 1
        assert payload["finished"]["SUCCEEDED"] == 1

    def test_latency_quantiles_present(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        latency = runtime.stats()["latency"]
        assert latency["exec_seconds"]["count"] == 1
        assert latency["exec_seconds"]["p50"] >= 0.0
