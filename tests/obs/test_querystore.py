"""Query Store: fingerprints, per-plan stats, plan changes, regression
verdicts, LRU bounds, and state round-trips."""

import json

from repro.core.sqlshare import SQLShare
from repro.obs.querystore import (
    PlanStats,
    QueryStore,
    plan_fingerprint,
)


class TestFingerprints:
    def test_plan_fingerprint_tracks_shape_not_estimates(self):
        platform = SQLShare()
        platform.upload("alice", "Fish",
                        "id,species,count\n1,coho,14\n2,chum,3\n")
        first = platform.run_query(
            "alice", "SELECT species FROM [Fish] WHERE count > 5").plan
        again = platform.run_query(
            "alice", "SELECT species FROM [Fish] WHERE count > 5").plan
        other = platform.run_query(
            "alice", "SELECT species, count FROM [Fish] ORDER BY count").plan
        assert plan_fingerprint(first) == plan_fingerprint(again)
        assert plan_fingerprint(first) != plan_fingerprint(other)
        assert plan_fingerprint(None) is None


class TestPlanStats:
    def test_cache_hits_and_errors_never_pollute_latency(self):
        stats = PlanStats("p1")
        stats.observe(0.1, rows=10, error=False, cache_hit=False, epoch=1.0)
        stats.observe(9.9, rows=0, error=False, cache_hit=True, epoch=2.0)
        stats.observe(9.9, rows=0, error=True, cache_hit=False, epoch=3.0)
        assert stats.executions == 1
        assert stats.cache_hits == 1
        assert stats.errors == 1
        assert stats.total_seconds == 0.1
        assert stats.mean_seconds == 0.1
        assert stats.max_seconds == 0.1

    def test_state_round_trip_is_exact(self):
        stats = PlanStats("p1")
        for index in range(20):
            stats.observe(0.01 * (index + 1), rows=index, error=False,
                          cache_hit=False, epoch=float(index))
        restored = PlanStats.restore_state(
            json.loads(json.dumps(stats.dump_state())))
        assert restored.to_dict() == stats.to_dict()
        # The P2 estimator keeps converging identically after restore.
        stats.observe(0.5, 1, False, False, 21.0)
        restored.observe(0.5, 1, False, False, 21.0)
        assert restored.p95_seconds == stats.p95_seconds


class TestQueryStoreRecording:
    def test_record_accumulates_per_plan(self):
        store = QueryStore()
        for _ in range(3):
            fp = store.record("SELECT 1", plan_fp="planA", seconds=0.01,
                              rows=1)
        entry = store.get(fp)
        assert entry.executions == 3
        assert entry.current_plan == "planA"
        assert list(entry.plans) == ["planA"]
        assert store.recorded == 3

    def test_error_without_plan_lands_in_current_plan_bucket(self):
        store = QueryStore()
        fp = store.record("SELECT 1", plan_fp="planA", seconds=0.01)
        store.record("SELECT 1", error=True)
        entry = store.get(fp)
        assert entry.plans["planA"].errors == 1
        assert entry.current_plan == "planA"

    def test_error_before_any_plan_uses_placeholder_bucket(self):
        store = QueryStore()
        fp = store.record("SELECT 1", error=True)
        entry = store.get(fp)
        assert list(entry.plans) == ["-"]
        assert entry.current_plan is None

    def test_plan_change_event_only_after_established_baseline(self):
        store = QueryStore(min_executions=3)
        # Two executions on planA: not yet established, flip is silent.
        store.record("Q", plan_fp="planA", seconds=0.01)
        store.record("Q", plan_fp="planA", seconds=0.01)
        fp = store.record("Q", plan_fp="planB", seconds=0.01)
        assert store.plan_changes == 0
        # Establish planB, then flip back: now it logs.
        store.record("Q", plan_fp="planB", seconds=0.01)
        store.record("Q", plan_fp="planB", seconds=0.01)
        store.record("Q", plan_fp="planA", seconds=0.01, epoch=99.0)
        assert store.plan_changes == 1
        event = store.get(fp).plan_changes[-1]
        assert event["from_plan"] == "planB"
        assert event["to_plan"] == "planA"
        assert event["from_executions"] == 3
        assert event["epoch"] == 99.0

    def test_lru_eviction_is_bounded_and_counted(self):
        store = QueryStore(capacity=3)
        for index in range(5):
            store.record("SELECT %d" % index, plan_fp="p")
        assert len(store) == 3
        assert store.evictions == 2
        # Touching an entry protects it from the next eviction.
        store.record("SELECT 2", plan_fp="p")
        store.record("SELECT 9", plan_fp="p")
        kept = {entry.sql for entry in store.entries()}
        assert "SELECT 2" in kept

    def test_plans_per_entry_bounded(self):
        store = QueryStore()
        for index in range(QueryStore.MAX_PLANS_PER_ENTRY + 3):
            fp = store.record("Q", plan_fp="plan%02d" % index)
        assert len(store.get(fp).plans) == QueryStore.MAX_PLANS_PER_ENTRY


class TestRegressionVerdicts:
    def _regressed_store(self):
        store = QueryStore(min_executions=3)
        for _ in range(4):
            store.record("Q", plan_fp="fast", seconds=0.01, rows=1)
        for _ in range(4):
            store.record("Q", plan_fp="slow", seconds=0.10, rows=1)
        return store

    def test_regression_detected_against_established_baseline(self):
        store = self._regressed_store()
        verdicts = store.regressions()
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict["regressed_plan"] == "slow"
        assert verdict["baseline_plan"] == "fast"
        assert abs(verdict["slowdown"] - 10.0) < 0.1
        assert verdict["baseline_executions"] == 4
        assert verdict["regressed_executions"] == 4

    def test_no_verdict_below_min_executions(self):
        store = QueryStore(min_executions=5)
        for _ in range(4):
            store.record("Q", plan_fp="fast", seconds=0.01)
        for _ in range(4):
            store.record("Q", plan_fp="slow", seconds=0.10)
        assert store.regressions() == []

    def test_no_verdict_when_within_factor(self):
        store = QueryStore(min_executions=2, regression_factor=1.5)
        for _ in range(3):
            store.record("Q", plan_fp="a", seconds=0.010)
        for _ in range(3):
            store.record("Q", plan_fp="b", seconds=0.012)
        assert store.regressions() == []

    def test_faster_new_plan_is_not_a_regression(self):
        store = QueryStore(min_executions=2)
        for _ in range(3):
            store.record("Q", plan_fp="slow", seconds=0.10)
        for _ in range(3):
            store.record("Q", plan_fp="fast", seconds=0.01)
        assert store.regressions() == []

    def test_cache_hits_do_not_fake_a_recovery(self):
        store = self._regressed_store()
        # A flood of warm hits on the slow plan must not mask it.
        for _ in range(50):
            store.record("Q", plan_fp="slow", cache_hit=True)
        assert len(store.regressions()) == 1

    def test_summary_and_to_dict(self):
        store = self._regressed_store()
        summary = store.summary()
        assert summary["entries"] == 1
        assert summary["recorded"] == 8
        assert summary["regressions"] == 1
        payload = store.to_dict(regressions_only=True)
        assert len(payload["queries"]) == 1
        assert payload["queries"][0]["regression"]["regressed_plan"] == "slow"
        assert store.to_dict(limit=0)["queries"] == []


class TestStoreStateRoundTrip:
    def test_dump_restore_preserves_everything(self):
        store = self._build()
        state = json.loads(json.dumps(store.dump_state()))
        restored = QueryStore().restore_state(state)
        assert restored.dump_state() == store.dump_state()
        assert restored.summary() == store.summary()
        assert restored.regressions() == store.regressions()

    def _build(self):
        store = QueryStore(capacity=64, min_executions=2,
                           regression_factor=1.2)
        for _ in range(3):
            store.record("SELECT a FROM t", plan_fp="fast", seconds=0.01,
                         rows=5, epoch=10.0)
        for _ in range(3):
            store.record("SELECT a FROM t", plan_fp="slow", seconds=0.08,
                         rows=5, epoch=20.0)
        store.record("SELECT b FROM t", plan_fp="only", seconds=0.02,
                     rows=1, epoch=30.0)
        store.record("SELECT b FROM t", error=True, epoch=31.0)
        return store
