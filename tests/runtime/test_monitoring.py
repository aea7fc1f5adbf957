"""Runtime-level monitoring integration: the scheduler feeds the query
store, owns the continuous monitor, and exposes both through stats()."""

import pytest

from repro.core.sqlshare import SQLShare
from repro.engine.prepared import prepare_statement
from repro.obs.alerts import AlertManager, AlertRule
from repro.obs.monitor import ContinuousMonitor
from repro.obs.querystore import QueryStore
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


class TestQueryStoreWiring:
    def test_completions_recorded_by_fingerprint(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        runtime.submit("alice", "select   site from obs")  # same fingerprint
        store = runtime.query_store
        assert store is platform.query_store
        assert len(store) == 1
        entry = store.entries()[0]
        assert entry.fingerprint == prepare_statement(
            "SELECT site FROM obs").fingerprint
        # Second submission was a cache hit: counted, no latency recorded.
        assert entry.executions == 1
        assert entry.cache_hits == 1
        assert entry.current_plan is not None
        assert entry.plans[entry.current_plan].total_seconds > 0.0

    def test_failures_recorded_as_errors(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT nope FROM obs")
        entry = runtime.query_store.entries()[0]
        assert entry.errors == 1
        assert entry.executions == 0

    def test_querystore_disabled_by_config(self, platform):
        runtime = manual_runtime(platform, querystore_enabled=False)
        assert runtime.query_store is None
        runtime.submit("alice", "SELECT site FROM obs")
        assert getattr(platform, "query_store", None) is None

    def test_querystore_disabled_without_metrics(self, platform):
        runtime = manual_runtime(platform, metrics_enabled=False)
        assert runtime.query_store is None

    def test_preattached_store_is_reused(self, platform):
        mine = QueryStore(capacity=7)
        platform.query_store = mine
        runtime = manual_runtime(platform)
        assert runtime.query_store is mine
        runtime.submit("alice", "SELECT site FROM obs")
        assert len(mine) == 1

    def test_stats_exposes_querystore_summary(self, platform):
        runtime = manual_runtime(platform)
        runtime.submit("alice", "SELECT site FROM obs")
        payload = runtime.stats()
        assert payload["querystore"]["entries"] == 1
        assert payload["querystore"]["recorded"] == 1


class TestMonitorWiring:
    def test_monitor_disabled_by_default(self, platform):
        runtime = manual_runtime(platform)
        assert runtime.monitor is None
        assert runtime.stats()["monitor"] is None

    def test_monitor_manual_tick_and_stats(self, platform):
        runtime = manual_runtime(platform, monitor_enabled=True)
        assert isinstance(runtime.monitor, ContinuousMonitor)
        assert not runtime.monitor.running  # max_workers=0: no thread
        runtime.submit("alice", "SELECT site FROM obs")
        runtime.monitor.tick()
        assert runtime.monitor.store.latest(
            "repro_scheduler_jobs_submitted_total") == 1.0
        payload = runtime.stats()
        assert payload["monitor"]["store"]["samples_taken"] == 1
        assert payload["monitor"]["health"]["status"] == "ok"

    def test_monitor_thread_lifecycle_with_workers(self, platform):
        runtime = manual_runtime(platform, max_workers=1,
                                 monitor_enabled=True, monitor_interval=60.0)
        try:
            assert runtime.monitor.running
        finally:
            runtime.shutdown()
        assert not runtime.monitor.running

    def test_custom_rules_drive_health(self, platform):
        runtime = manual_runtime(platform, monitor_enabled=True)
        monitor = runtime.monitor
        monitor.alerts = AlertManager(monitor.store, [AlertRule(
            "AnySubmission",
            "latest(repro_scheduler_jobs_submitted_total[60]) >= 1")])
        monitor.tick()
        assert monitor.health()["status"] == "ok"
        runtime.submit("alice", "SELECT site FROM obs")
        monitor.tick()
        health = monitor.health()
        assert health["status"] == "degraded"
        assert health["firing"] == ["AnySubmission"]
