"""End-to-end recovery: digest equality, version regeneration, workload
metric preservation, the REST/runtime surfaces of the storage subsystem."""

import pytest

from repro.core.sqlshare import SQLShare
from repro.runtime import QueryRuntime, ResultCache, RuntimeConfig
from repro.storage import (
    RecoveryError,
    StorageManager,
    open_storage,
    state_digest,
)

CSV = "id,species,count\n1,coho,14\n2,chinook,3\n3,chum,25\n"
MORE = "id,species,count\n4,sockeye,9\n5,pink,40\n"


def _populated(data_dir, **kwargs):
    manager = StorageManager(str(data_dir), **kwargs)
    platform = manager.attach(SQLShare())
    platform.upload("alice", "Salmon", CSV, description="survey",
                    tags=["fish"])
    platform.create_dataset("alice", "Big Runs",
                            "SELECT * FROM [Salmon] WHERE count > 10")
    platform.share("alice", "Big Runs", "bob")
    platform.run_query("bob", "SELECT species FROM [Big Runs]")
    platform.append("alice", "Salmon", MORE)
    platform.quotas.set_limit("carol", 4096)
    platform.macros.define("alice", "peek", "SELECT * FROM $t")
    platform.make_public("alice", "Salmon")
    platform.mint_doi("alice", "Salmon")
    return manager, platform


class TestRoundTrip:
    def test_wal_only_replay_matches_digest(self, tmp_path):
        manager, platform = _populated(tmp_path)
        expected = state_digest(platform)
        manager.close()
        recovered, report = StorageManager(str(tmp_path)).recover()
        assert state_digest(recovered) == expected
        assert report.records_replayed > 0
        assert report.replay_errors == []

    def test_snapshot_plus_tail_matches_digest(self, tmp_path):
        manager, platform = _populated(tmp_path)
        manager.checkpoint()
        platform.upload("dana", "Late Arrival", CSV)
        platform.delete_dataset("alice", "Salmon")  # leaves Big Runs dangling
        expected = state_digest(platform)
        manager.close()
        recovered, report = StorageManager(str(tmp_path)).recover()
        assert state_digest(recovered) == expected
        assert report.to_dict()["snapshot"] is not None
        assert report.records_replayed == 2  # the post-checkpoint upload + delete
        # The dangling derived view still fails at query time, as pre-crash.
        with pytest.raises(Exception):
            recovered.run_query("alice", "SELECT * FROM [Big Runs]")

    def test_checkpoint_truncates_wal(self, tmp_path):
        manager, platform = _populated(tmp_path)
        assert manager.wal.size_bytes() > 8
        stats = manager.checkpoint()
        assert stats["bytes"] > 0
        assert manager.wal.size_bytes() == 8  # just the magic
        assert manager.records_since_checkpoint == 0

    def test_functional_equivalence_after_recovery(self, tmp_path):
        manager, platform = _populated(tmp_path)
        before = platform.run_query("bob", "SELECT * FROM [Big Runs]").rows
        manager.close()
        recovered, _ = StorageManager(str(tmp_path)).recover()
        after = recovered.run_query("bob", "SELECT * FROM [Big Runs]").rows
        assert after == before
        # Permissions survived: carol was never granted access.
        from repro.errors import PermissionError_

        with pytest.raises(PermissionError_):
            recovered.run_query("carol", "SELECT * FROM [Big Runs]")
        # Quota and macro state survived.
        assert recovered.quotas.limit("carol") == 4096
        assert recovered.macros.get("peek").template == "SELECT * FROM $t"
        assert recovered.dataset("Salmon").doi is not None

    def test_up_to_lsn_recovers_a_prefix(self, tmp_path):
        manager = StorageManager(str(tmp_path))
        platform = manager.attach(SQLShare())
        platform.upload("alice", "One", CSV)
        midpoint = manager.wal.last_lsn
        mid_digest = state_digest(platform)
        platform.upload("alice", "Two", CSV)
        manager.close()
        recovered, report = StorageManager(str(tmp_path)).recover(
            up_to_lsn=midpoint)
        assert state_digest(recovered) == mid_digest
        assert not recovered.has_dataset("Two")
        assert report.records_beyond_limit > 0

    def test_log_order_survives_swapped_wal_arrival(self, tmp_path):
        """QueryLog.record calls its WAL listener outside the log lock, so
        two concurrent queries can reach the WAL in the opposite order to
        their ids; recovery must still rebuild the live (id) order."""
        manager = StorageManager(str(tmp_path))
        platform = manager.attach(SQLShare())
        platform.upload("alice", "Salmon", CSV)
        to_wal = platform.log.listener
        held = []
        platform.log.listener = held.append
        platform.run_query("alice", "SELECT species FROM [Salmon]")
        platform.run_query("alice", "SELECT count FROM [Salmon]")
        for entry in reversed(held):  # the later query wins the race
            to_wal(entry)
        expected = state_digest(platform)
        manager.close()
        recovered, _report = StorageManager(str(tmp_path)).recover()
        assert [entry.query_id for entry in recovered.log] == [1, 2]
        assert state_digest(recovered) == expected

    def test_strict_replay_raises_lenient_collects(self, tmp_path):
        manager = StorageManager(str(tmp_path))
        platform = manager.attach(SQLShare())
        platform.upload("alice", "One", CSV)
        manager.wal.append({"op": "no_such_operation", "data": {}})
        manager.close()
        with pytest.raises(RecoveryError):
            StorageManager(str(tmp_path)).recover()
        recovered, report = StorageManager(str(tmp_path)).recover(strict=False)
        assert recovered.has_dataset("One")
        assert len(report.replay_errors) == 1
        assert report.replay_errors[0]["op"] == "no_such_operation"

    def test_open_storage_fresh_then_recovering(self, tmp_path):
        platform, manager, report = open_storage(str(tmp_path))
        assert report is None
        platform.upload("alice", "One", CSV)
        manager.close()
        platform2, manager2, report2 = open_storage(str(tmp_path))
        assert report2 is not None
        assert platform2.has_dataset("One")

    def test_engine_sql_commits_are_replayed(self, tmp_path):
        manager = StorageManager(str(tmp_path))
        platform = manager.attach(SQLShare())
        platform.db.execute("CREATE TABLE raw_t (a INT, b VARCHAR)")
        platform.db.execute("INSERT INTO raw_t VALUES (1, 'x'), (2, 'y')")
        expected = state_digest(platform)
        manager.close()
        recovered, report = StorageManager(str(tmp_path)).recover()
        assert state_digest(recovered) == expected
        assert recovered.db.row_count("raw_t") == 2


class TestVersionRegeneration:
    """Satellite: version vectors are *regenerated*, never naively reloaded,
    so a result-cache entry stamped before the crash can never validate."""

    def test_epoch_bump_invalidates_pre_crash_vectors(self, tmp_path):
        manager, platform = _populated(tmp_path)
        pre_crash = platform.db.catalog.all_versions()
        manager.close()
        recovered, report = StorageManager(str(tmp_path)).recover()
        post = recovered.db.catalog.all_versions()
        assert report.version_epoch_bumps == len(post)
        for name, version in pre_crash.items():
            assert post[name] > version

    def test_pre_crash_cache_entry_never_served(self, tmp_path):
        manager, platform = _populated(tmp_path)
        platform.result_cache = ResultCache()
        sql = "SELECT species FROM [Big Runs]"
        platform.run_query("bob", sql)   # miss + store
        hit = platform.run_query("bob", sql)
        assert hit.cache_hit is True
        stolen_cache = platform.result_cache  # survives "the crash" in-process
        manager.close()
        recovered, _ = StorageManager(str(tmp_path)).recover()
        # Every pre-crash vector is invalid against the recovered catalog.
        assert (stolen_cache.audit(recovered.db.catalog.version_of)
                == len(stolen_cache))
        # Adversarial: graft the pre-crash cache onto the recovered server.
        recovered.result_cache = stolen_cache
        result = recovered.run_query("bob", sql)
        assert result.cache_hit is False  # epoch bump made the vector stale
        # The stale entry was evicted on probe and replaced by a fresh one:
        # zero stale entries can ever be served post-recovery.
        assert stolen_cache.audit(recovered.db.catalog.version_of) == 0

    def test_recovery_clears_attached_cache(self, tmp_path):
        manager, platform = _populated(tmp_path)
        manager.close()
        recovered, _ = StorageManager(str(tmp_path)).recover()
        from repro.runtime import job as jobmod

        runtime = QueryRuntime(recovered, RuntimeConfig(max_workers=0))
        job = runtime.submit("bob", "SELECT species FROM [Big Runs]")
        assert job.state == jobmod.SUCCEEDED
        assert runtime.stats()["storage"] is not None
        runtime.shutdown()


class TestWorkloadMetricsSurviveRecovery:
    """Satellite: a recovered QueryLog reproduces identical Phase-1/Phase-2
    analysis results (complexity, reuse, lifetimes)."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        from repro.synth.driver import build_sqlshare_deployment

        data_dir = tmp_path_factory.mktemp("data")
        platform, _generator = build_sqlshare_deployment(scale=0.01)
        manager = StorageManager(str(data_dir))
        manager.adopt(platform)
        manager.close()
        recovered, _report = StorageManager(str(data_dir)).recover()
        return platform, recovered

    def _catalog(self, platform):
        from repro.workload.extract import WorkloadAnalyzer

        return WorkloadAnalyzer(platform).analyze()

    def test_log_entries_identical(self, pair):
        original, recovered = pair
        assert len(recovered.log) == len(original.log)
        for before, after in zip(original.log, recovered.log):
            record = before.to_record()
            record.pop("plan_json")
            other = after.to_record()
            other.pop("plan_json")
            assert record == other

    def test_phase1_phase2_metrics_identical(self, pair):
        from repro.workload.metrics import (
            distinct_operator_histogram,
            length_histogram,
            mean_metrics,
            operator_frequency,
        )

        original, recovered = pair
        catalog_a = self._catalog(original)
        catalog_b = self._catalog(recovered)
        assert mean_metrics(catalog_a) == mean_metrics(catalog_b)
        assert length_histogram(catalog_a) == length_histogram(catalog_b)
        assert (distinct_operator_histogram(catalog_a)
                == distinct_operator_histogram(catalog_b))
        assert operator_frequency(catalog_a) == operator_frequency(catalog_b)

    def test_reuse_and_lifetimes_identical(self, pair):
        from repro.analysis.lifetimes import (
            dataset_lifetimes,
            median_lifetime_days,
            queries_per_table,
        )
        from repro.analysis.reuse import estimate_reuse

        original, recovered = pair
        catalog_a = self._catalog(original)
        catalog_b = self._catalog(recovered)
        reuse_a = estimate_reuse(catalog_a)
        reuse_b = estimate_reuse(catalog_b)
        assert reuse_a.total_cost == reuse_b.total_cost
        assert reuse_a.saved_cost == reuse_b.saved_cost
        assert reuse_a.per_query_fraction == reuse_b.per_query_fraction
        assert reuse_a.bimodality() == reuse_b.bimodality()
        assert dataset_lifetimes(original) == dataset_lifetimes(recovered)
        assert median_lifetime_days(original) == median_lifetime_days(recovered)
        assert queries_per_table(original) == queries_per_table(recovered)


class TestRestSurface:
    def test_checkpoint_endpoint(self, tmp_path):
        import json
        from io import BytesIO

        from repro.server.rest import SQLShareApp

        manager, platform = _populated(tmp_path)
        app = SQLShareApp(platform, run_async=False)

        def call(method, path, body=None):
            raw = json.dumps(body or {}).encode("utf-8")
            environ = {
                "REQUEST_METHOD": method,
                "PATH_INFO": path,
                "CONTENT_LENGTH": str(len(raw)),
                "wsgi.input": BytesIO(raw),
                "HTTP_X_SQLSHARE_USER": "alice",
            }
            captured = {}

            def start_response(status, headers):
                captured["status"] = status

            payload = b"".join(app(environ, start_response))
            return captured["status"], json.loads(payload.decode("utf-8"))

        status, payload = call("POST", "/api/v1/checkpoint")
        assert status.startswith("200")
        assert payload["checkpoint"]["bytes"] > 0
        status, payload = call("GET", "/api/v1/runtime/stats")
        assert status.startswith("200")
        assert payload["storage"]["checkpoints"]["count"] == 1
        assert payload["storage"]["wal"]["records_since_checkpoint"] == 0
        manager.close()

    def test_checkpoint_endpoint_without_storage_409(self, tmp_path):
        import json
        from io import BytesIO

        from repro.server.rest import SQLShareApp

        app = SQLShareApp(SQLShare(), run_async=False)
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/api/v1/checkpoint",
            "CONTENT_LENGTH": "0",
            "wsgi.input": BytesIO(b""),
            "HTTP_X_SQLSHARE_USER": "alice",
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        body = b"".join(app(environ, start_response))
        assert captured["status"].startswith("409")
        assert "data directory" in json.loads(body.decode("utf-8"))["error"]
