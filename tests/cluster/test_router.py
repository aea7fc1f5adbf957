"""User partitioning and the coordinator's dataset directory."""

import pytest

from repro.cluster.router import DatasetDirectory, shard_for_user
from repro.errors import PermissionError_


class TestShardForUser:
    def test_deterministic(self):
        assert shard_for_user("alice", 4) == shard_for_user("alice", 4)

    def test_in_range(self):
        for user in ("alice", "bob", "ann.smith@uw.edu", "", "日本語"):
            for shards in (1, 2, 3, 8):
                assert 0 <= shard_for_user(user, shards) < shards

    def test_single_shard_maps_everyone_home(self):
        assert shard_for_user("anyone", 1) == 0

    def test_spreads_users(self):
        # 100 users over 4 shards: no shard may end up empty (SHA-1 is
        # uniform; an empty shard means the hashing is broken).
        shards = {shard_for_user("user%d" % index, 4) for index in range(100)}
        assert shards == {0, 1, 2, 3}

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_user("alice", 0)
        with pytest.raises(ValueError):
            shard_for_user("alice", -2)


class TestDatasetDirectory:
    def test_register_and_lookup(self):
        directory = DatasetDirectory()
        directory.register("Sales", "alice", 2, kind="wrapper")
        entry = directory.lookup("sales")  # case-insensitive
        assert entry["owner"] == "alice"
        assert entry["shard"] == 2
        assert directory.shard_of("SALES") == 2
        assert len(directory) == 1

    def test_replicas_never_registered(self):
        directory = DatasetDirectory()
        directory.register("sales", "alice", 0, kind="replica")
        assert directory.lookup("sales") is None
        assert len(directory) == 0

    def test_forget(self):
        directory = DatasetDirectory()
        directory.register("sales", "alice", 0)
        directory.forget("SALES")
        assert directory.lookup("sales") is None
        directory.forget("never-existed")  # no-op, no error

    def test_forget_shard_drops_only_that_shard(self):
        directory = DatasetDirectory()
        directory.register("a", "alice", 0)
        directory.register("b", "bob", 1)
        directory.register("c", "carol", 0)
        directory.forget_shard(0)
        assert directory.lookup("a") is None
        assert directory.lookup("c") is None
        assert directory.lookup("b")["shard"] == 1

    def test_reregister_moves_entry(self):
        directory = DatasetDirectory()
        directory.register("sales", "alice", 0)
        directory.register("sales", "alice", 3)
        assert directory.shard_of("sales") == 3
        assert len(directory) == 1

    def test_entries_returns_copies(self):
        directory = DatasetDirectory()
        directory.register("sales", "alice", 0)
        entries = directory.entries()
        entries[0]["shard"] = 99
        assert directory.shard_of("sales") == 0


class _RecordingCoordinator(object):
    """Just enough coordinator for ``ClusterApp._submit_query``: user bob
    lives on shard 0, dataset ``secret`` on shard 1."""

    def __init__(self):
        self.resolved = []
        self.calls = []

    def shard_for_user(self, user):
        return 0

    def resolve(self, name, trace=None):
        self.resolved.append(name)
        return {"shard": 1, "owner": "alice"} if name == "secret" else None

    def call(self, shard, message, trace=None):
        self.calls.append((shard, message["op"]))
        if message["op"] == "fetch_dataset":
            return {"ok": False,
                    "error_type": type(PermissionError_("x")).__name__,
                    "error": "no access"}
        return {"ok": True, "status": 202, "payload": {"id": "q000001"}}


class TestQueryRouting:
    """Routing reads the same referenced names as the shards' permission
    check (``repro.engine.prepared.referenced_names``)."""

    def submit(self, sql):
        from repro.cluster.app import ClusterApp

        coordinator = _RecordingCoordinator()
        app = ClusterApp(coordinator, tracing=False)
        status, _payload = app._submit_query("bob", {"sql": sql})
        return status, coordinator

    def test_cte_named_like_a_remote_dataset_routes_reference_free(self):
        status, coordinator = self.submit(
            "WITH secret AS (SELECT 1 AS x) SELECT x FROM secret")
        assert status == 202
        assert coordinator.resolved == []
        assert coordinator.calls == [(0, "http")]

    def test_real_remote_reference_goes_through_its_owner(self):
        status, coordinator = self.submit("SELECT * FROM Secret")
        assert status == 403  # the owning shard's permission check
        assert coordinator.resolved == ["secret"]
        assert coordinator.calls == [(1, "fetch_dataset")]

    def test_cte_shadowing_the_dataset_still_resolves_it(self):
        _status, coordinator = self.submit(
            "WITH secret AS (SELECT * FROM secret) SELECT * FROM secret")
        assert coordinator.resolved == ["secret"]

    def test_unparseable_text_routes_home(self):
        status, coordinator = self.submit("SELEC 1")
        assert status == 202
        assert coordinator.calls == [(0, "http")]
