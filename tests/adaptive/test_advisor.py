"""The workload advisor: candidate ranking, opt-in apply, snapshot
demotion on upstream mutation, and the REST surface."""

import pytest

from repro.adaptive import WorkloadAdvisor
from repro.analysis.adaptive_flip import build_advisor_platform
from repro.runtime import QueryRuntime, RuntimeConfig
from repro.server.client import ClientError, SQLShareClient
from repro.server.rest import SQLShareApp

INDEX_SQL = "SELECT val FROM [readings] WHERE site = 's17'"
MV_SQL = "SELECT * FROM [site_totals]"


def _advised(repeats=3):
    """Platform + advisor with both workload shapes already recorded."""
    platform = build_advisor_platform(sites=20, rows_per_site=10)
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=0, cache_enabled=False, tracing_enabled=False))
    try:
        for _ in range(repeats):
            runtime.submit("ada", INDEX_SQL, inline=True)
            runtime.submit("ada", MV_SQL, inline=True)
        advisor = WorkloadAdvisor(platform, query_store=runtime.query_store)
        report = advisor.recommendations(min_executions=2)
    finally:
        runtime.shutdown()
    return platform, advisor, report


class TestRecommendations:
    def test_both_kinds_ranked_with_scores(self):
        _platform, _advisor, report = _advised()
        recommendations = report["recommendations"]
        kinds = {r["kind"] for r in recommendations}
        assert kinds == {"index", "materialize"}
        assert [r["rank"] for r in recommendations] == list(
            range(1, len(recommendations) + 1))
        scores = [r["score"] for r in recommendations]
        assert scores == sorted(scores, reverse=True)
        assert all(r["frequency"] >= 2 for r in recommendations)

    def test_index_candidate_names_the_filtered_column(self):
        _platform, _advisor, report = _advised()
        index = [r for r in report["recommendations"]
                 if r["kind"] == "index"][0]
        assert index["dataset"] == "readings"
        assert index["column"] == "site"
        assert index["action"] == "recluster"

    def test_frequency_floor_filters_one_offs(self):
        _platform, advisor, _report = _advised(repeats=1)
        report = advisor.recommendations(min_executions=2)
        assert report["recommendations"] == []


class TestApply:
    def test_index_apply_reclusters_and_retires_candidate(self):
        platform, advisor, report = _advised()
        index = [r for r in report["recommendations"]
                 if r["kind"] == "index"][0]
        outcome = advisor.apply(index)
        assert outcome["applied"] is True
        base = platform.dataset("readings").base_table
        assert platform.db.catalog.get_table(base).clustered_on == "site"
        rerun = advisor.recommendations(min_executions=2)
        assert not [r for r in rerun["recommendations"]
                    if r["kind"] == "index" and r["dataset"] == "readings"]

    def test_materialize_apply_snapshots_and_retires_candidate(self):
        platform, advisor, report = _advised()
        mv = [r for r in report["recommendations"]
              if r["kind"] == "materialize"][0]
        outcome = advisor.apply(mv)
        assert outcome["applied"] is True
        assert platform.dataset("site_totals").base_table is not None
        rerun = advisor.recommendations(min_executions=2)
        assert not [r for r in rerun["recommendations"]
                    if r["kind"] == "materialize"]

    def test_dry_run_mutates_nothing(self):
        platform, advisor, report = _advised()
        for recommendation in report["recommendations"]:
            outcome = advisor.apply(recommendation, dry_run=True)
            assert outcome["applied"] is False and outcome["dry_run"] is True
        assert platform.dataset("site_totals").base_table is None
        base = platform.dataset("readings").base_table
        assert platform.db.catalog.get_table(base).clustered_on is None

    def test_unknown_kind_rejected(self):
        _platform, advisor, _report = _advised(repeats=1)
        with pytest.raises(ValueError):
            advisor.apply({"kind": "hologram", "dataset": "readings"})


class TestSnapshotDemotion:
    def test_upstream_append_demotes_and_refreshes(self):
        platform, advisor, report = _advised()
        mv = [r for r in report["recommendations"]
              if r["kind"] == "materialize"][0]
        advisor.apply(mv)
        before = platform.run_query("ada", "SELECT COUNT(*) FROM [readings]")
        count_before = before.rows[0][0]
        # Mutate upstream: the snapshot is stale and must be demoted back
        # to its logical definition, which sees the new row.
        platform.append("ada", "readings", "site,val\ns0,999\n")
        assert platform.dataset("site_totals").base_table is None
        result = platform.run_query(
            "ada", "SELECT SUM(n) AS total FROM [site_totals]")
        assert result.rows[0][0] == count_before + 1


class TestRestSurface:
    def _client(self, platform, user="ada", **config):
        defaults = dict(max_workers=0, cache_enabled=False,
                        tracing_enabled=False)
        defaults.update(config)
        app = SQLShareApp(platform, run_async=False,
                          runtime_config=RuntimeConfig(**defaults))
        return SQLShareClient(user, app=app), app

    def test_get_and_apply_round_trip(self):
        platform = build_advisor_platform(sites=20, rows_per_site=10)
        client, _app = self._client(platform)
        for _ in range(3):
            client.run_query(INDEX_SQL)
            client.run_query(MV_SQL)
        payload = client.advisor()
        kinds = {r["kind"] for r in payload["recommendations"]}
        assert kinds == {"index", "materialize"}
        assert "adaptive" in payload
        mv = [r for r in payload["recommendations"]
              if r["kind"] == "materialize"][0]
        outcome = client.advisor_apply(mv, dry_run=True)
        assert outcome["dry_run"] is True
        outcome = client.advisor_apply(mv)
        assert outcome["applied"] is True
        assert platform.dataset("site_totals").base_table is not None

    def test_inline_apply_form(self):
        platform = build_advisor_platform(sites=20, rows_per_site=10)
        client, _app = self._client(platform)
        outcome = client._call("POST", "/api/v1/advisor/apply", {
            "kind": "index", "dataset": "readings", "column": "site"})
        assert outcome["applied"] is True

    def test_apply_runs_as_the_caller(self):
        platform = build_advisor_platform(sites=20, rows_per_site=10)
        client, _app = self._client(platform, user="mallory")
        with pytest.raises(ClientError) as excinfo:
            client._call("POST", "/api/v1/advisor/apply", {
                "kind": "index", "dataset": "readings", "column": "site"})
        assert excinfo.value.status == 403
