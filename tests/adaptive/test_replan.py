"""The adaptive controller: detect -> probe -> re-plan, regression
first-fire events, and the runtime wiring."""

from types import SimpleNamespace

from repro.adaptive import AdaptiveController, CardinalityFeedbackStore, replan
from repro.analysis.adaptive_flip import (
    FLIP_SQL,
    build_flip_platform,
    run_flip_experiment,
)
from repro.engine.prepared import prepare_statement
from repro.obs import events
from repro.runtime import QueryRuntime, RuntimeConfig


class TestFlipEndToEnd:
    def test_planted_regression_flips_within_bound(self):
        report = run_flip_experiment(rows=200, executions=5)
        assert report["flipped"] is True
        assert report["plan_before"] == "Nested Loops"
        assert report["plan_after"] == "Hash Match"
        assert report["within_bound"] is True
        assert report["executions_to_correct"] <= 4
        assert report["adaptive"]["replans"] >= 1

    def test_runtime_wiring_counters_and_stats(self):
        platform = build_flip_platform(rows=200)
        runtime = QueryRuntime(platform, RuntimeConfig(
            max_workers=0, cache_enabled=False, tracing_enabled=False))
        try:
            for _ in range(3):
                runtime.submit("ada", FLIP_SQL, inline=True)
            snapshot = platform.metrics.snapshot()
            assert snapshot["repro_adaptive_probes_total"] >= 1
            assert snapshot["repro_adaptive_replans_total"] >= 1
            stats = runtime.stats()
            assert stats["adaptive"]["replans"] >= 1
            assert stats["adaptive"]["feedback"]["fingerprints"] == 1
        finally:
            runtime.shutdown()

    def test_adaptive_disabled_leaves_planner_alone(self):
        platform = build_flip_platform(rows=200)
        runtime = QueryRuntime(platform, RuntimeConfig(
            max_workers=0, cache_enabled=False, tracing_enabled=False,
            adaptive_enabled=False))
        try:
            for _ in range(3):
                job = runtime.submit("ada", FLIP_SQL, inline=True)
                assert job.profile_data is None  # never upgraded to a probe
            assert runtime.adaptive is None
            assert runtime.stats()["adaptive"] is None
            assert platform.db.feedback is None
        finally:
            runtime.shutdown()


class TestControllerUnit:
    def test_probe_request_is_idempotent(self):
        controller = AdaptiveController(CardinalityFeedbackStore())
        prepared = prepare_statement("select 1 as x")
        fingerprint = prepared.fingerprint
        assert controller.wants_probe(fingerprint) is False  # empty fast path
        assert controller.request_probe(fingerprint, prepared.key) is True
        assert controller.request_probe(fingerprint, prepared.key) is False
        assert controller.wants_probe(fingerprint) is True
        assert controller.summary()["pending_probes"] == 1

    def test_after_job_swallows_garbage(self):
        controller = AdaptiveController(CardinalityFeedbackStore())
        controller.after_job(object())  # no prepared/result; must not raise
        controller.after_job(SimpleNamespace(prepared=None, result=None))

    def test_max_replans_caps_probe_cycles(self, monkeypatch):
        job = SimpleNamespace(
            prepared=prepare_statement("select * from t"),
            cache_hit=False, profile=False, profile_data=None,
            result=SimpleNamespace(rows=[(1,)] * 100,
                                   plan=SimpleNamespace(est_rows=1.0)))
        controller = AdaptiveController(CardinalityFeedbackStore())
        controller.after_job(job)
        assert controller.summary()["pending_probes"] == 1
        monkeypatch.setattr(replan, "MAX_REPLANS", 0)
        capped = AdaptiveController(CardinalityFeedbackStore())
        capped.after_job(job)
        assert capped.summary()["pending_probes"] == 0


class _Entry(object):
    def __init__(self, verdict):
        self.plan_changes = ["flip"]
        self._verdict = verdict

    def regression(self, _min_executions, _factor):
        return self._verdict


class _Store(object):
    min_executions = 5
    regression_factor = 1.5

    def __init__(self, verdict):
        self._entry = _Entry(verdict)

    def get(self, _fingerprint):
        return self._entry


class TestRegressionFirstFire:
    VERDICT = {
        "regressed_plan": "planB", "baseline_plan": "planA",
        "slowdown": 3.0, "regressed_mean_seconds": 0.3,
        "baseline_mean_seconds": 0.1,
    }

    def _job(self):
        return SimpleNamespace(
            prepared=SimpleNamespace(fingerprint="fp1", key="select * from t"),
            cache_hit=False, profile=False, profile_data=None,
            result=SimpleNamespace(rows=[(1,)],
                                   plan=SimpleNamespace(est_rows=1.0)))

    def test_emits_event_once_and_schedules_probe(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        log = str(tmp_path / "events.log")
        events.configure(path=log, process="test")
        try:
            metrics = MetricsRegistry()
            controller = AdaptiveController(
                CardinalityFeedbackStore(), query_store=_Store(self.VERDICT),
                metrics=metrics)
            controller.after_job(self._job())
            controller.after_job(self._job())  # dedup
        finally:
            events.configure(path=None)
        snapshot = metrics.snapshot()
        assert snapshot["repro_plan_regressions_total"] == 1.0
        records = events.read_events([log], event="regression")
        assert len(records) == 1
        assert records[0]["fingerprint"] == "fp1"
        assert records[0]["regressed_plan"] == "planB"
        assert records[0]["slowdown"] == 3.0
        # The verdict also schedules a corrective probe.
        assert controller.summary()["pending_probes"] == 1
