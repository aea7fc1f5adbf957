"""One front door for SQL text, seen from the runtime: one parse per
first-time submission, one fingerprint across every consumer, no AST on a
retained terminal job, and the CTE-aware permission check."""

import pytest

from repro.core.sqlshare import SQLShare
from repro.engine import parser
from repro.engine.prepared import prepare_statement
from repro.errors import PermissionError_
from repro.obs import events
from repro.runtime import QueryRuntime, RuntimeConfig

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"
SQL = "SELECT site FROM obs WHERE temp > 11"
VARIANTS = ["select   site from obs\nwhere temp > 11",
            "SELECT site FROM [obs] WHERE temp > 11"]


@pytest.fixture
def platform():
    share = SQLShare()
    share.upload("alice", "obs", CSV)
    return share


@pytest.fixture
def event_ring():
    log = events.configure()  # fresh in-memory ring
    yield log
    events.configure()


def manual_runtime(platform, **overrides):
    return QueryRuntime(platform, RuntimeConfig(max_workers=0, **overrides))


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    real = parser.parse

    def counting(sql):
        calls.append(sql)
        return real(sql)

    monkeypatch.setattr(parser, "parse", counting)
    return calls


class TestOneFingerprint:
    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_every_consumer_sees_the_same_identity(
            self, platform, event_ring, cache_enabled):
        expected = prepare_statement(SQL).fingerprint
        runtime = manual_runtime(platform, cache_enabled=cache_enabled)
        # Profiled, so the adaptive controller harvests feedback under the
        # statement's fingerprint.
        runtime.submit("alice", SQL, profile=True)
        for variant in VARIANTS:
            job = runtime.submit("alice", variant)
            assert job.prepared.fingerprint == expected
        lifecycle = [record for record in event_ring.recent()
                     if record["event"] in ("submit", "finish")]
        assert len(lifecycle) == 2 * (1 + len(VARIANTS))
        assert {record["fingerprint"] for record in lifecycle} == {expected}
        assert [entry.fingerprint
                for entry in runtime.query_store.entries()] == [expected]
        assert runtime.feedback_store.view(expected) is not None
        assert runtime.feedback_store.summary()["fingerprints"] == 1


class TestParseOnce:
    def test_first_submission_parses_once_repeat_hit_never(
            self, platform, parse_calls):
        runtime = manual_runtime(platform)
        first = runtime.submit("alice", SQL)
        assert first.state == "SUCCEEDED" and not first.cache_hit
        assert parse_calls == [SQL]
        del parse_calls[:]
        again = runtime.submit("alice", SQL)
        assert again.cache_hit
        assert parse_calls == []

    def test_repeat_that_misses_the_cache_parses_once(
            self, platform, parse_calls):
        runtime = manual_runtime(platform, cache_enabled=False)
        runtime.submit("alice", SQL)
        del parse_calls[:]
        assert runtime.submit("alice", SQL).state == "SUCCEEDED"
        assert parse_calls == [SQL]

    def test_unparseable_submission_parses_once_and_fails(
            self, platform, parse_calls):
        runtime = manual_runtime(platform)
        job = runtime.submit("alice", "SELEC site FROM obs")
        assert job.error_class == "parse"
        assert any(d["severity"] == "error" for d in job.diagnostics)
        assert parse_calls == ["SELEC site FROM obs"]


class TestRetainedJobs:
    def test_terminal_job_holds_no_ast_or_plan(self, platform):
        runtime = manual_runtime(platform)
        done = runtime.submit("alice", SQL)
        failed = runtime.submit("alice", "SELEC site FROM obs")
        for job in (done, failed):
            assert job.done and runtime.get(job.job_id) is job
            assert job.prepared.statement is None
            assert job.prepared.error is None
            assert job.prepared.fingerprint  # the facts stay
        # ... nor the operator tree: polling serves rows.
        assert done.result.rows and done.result.plan is None

    def test_queued_job_carries_its_ast(self, platform):
        runtime = QueryRuntime(platform, RuntimeConfig(max_workers=1))
        # No worker thread starts: saturate the per-user concurrency limit.
        runtime._running["alice"] = runtime.config.per_user_max_concurrent
        job = runtime.submit("alice", SQL, inline=False)
        assert job.prepared.statement is not None
        runtime.cancel(job.job_id)
        assert job.prepared.statement is None


class TestCteNamesAreNotDatasets:
    """A CTE named like a dataset the user cannot read is not that dataset."""

    CTE_SQL = "WITH secret AS (SELECT 1 AS x) SELECT x FROM secret"

    @pytest.fixture
    def shared(self, platform):
        platform.upload("alice", "secret", CSV)
        return platform

    def test_cte_reference_passes_the_permission_check(self, shared):
        assert shared.run_query("bob", self.CTE_SQL).rows == [(1,)]
        entry = shared.log.entries[-1]
        assert entry.datasets == ()

    def test_cte_shadowing_the_dataset_does_not_bypass_it(self, shared):
        with pytest.raises(PermissionError_):
            shared.run_query(
                "bob", "WITH secret AS (SELECT * FROM secret) "
                       "SELECT * FROM secret")

    def test_real_reference_is_still_refused(self, shared):
        with pytest.raises(PermissionError_):
            shared.run_query("bob", "SELECT * FROM secret")
