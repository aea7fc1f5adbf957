"""Previews are derived state: ``SELECT TOP 100`` read on demand through
the result cache, never stored on the dataset or in a snapshot."""

import pytest

from repro.core.dataset import PREVIEW_ROWS
from repro.core.sqlshare import SQLShare
from repro.runtime import ResultCache
from repro.server.client import SQLShareClient
from repro.server.rest import SQLShareApp
from repro.storage import StorageManager

T = "id,x\n1,10\n2,20\n3,30\n"
MORE = "id,x\n4,40\n5,50\n"
V = "SELECT id, x FROM [t] WHERE x > 15"


@pytest.fixture(params=["cache off", "cache on"])
def share(request):
    platform = SQLShare()
    if request.param == "cache on":
        platform.result_cache = ResultCache()
    return platform


class TestPlatformPreview:
    def test_dependent_preview_follows_upstream_append(self, share):
        share.upload("alice", "t", T)
        share.create_dataset("alice", "v", V)
        assert len(share.preview("alice", "v")[1]) == 2
        share.append("alice", "t", MORE)
        columns, rows = share.preview("alice", "v")
        assert columns == ["id", "x"]
        assert rows == share.run_query("alice", "SELECT * FROM [v]").rows
        assert len(rows) == 4

    def test_preview_read_is_not_logged(self, share):
        share.upload("alice", "t", T)
        logged = len(share.log)
        share.preview("alice", "t")
        share.preview("alice", "t")
        assert len(share.log) == logged

    def test_repeat_preview_is_a_cache_hit(self):
        share = SQLShare()
        share.result_cache = cache = ResultCache()
        share.upload("alice", "t", T)
        share.preview("alice", "t")
        hits = cache.stats.hits
        share.preview("alice", "t")
        assert cache.stats.hits == hits + 1

    def test_broken_dependent_raises_the_engine_error(self, share):
        share.upload("alice", "t", T)
        share.create_dataset("alice", "v", V)
        share.delete_dataset("alice", "t")
        with pytest.raises(Exception) as excinfo:
            share.preview("alice", "v")
        assert "t" in str(excinfo.value)

    def test_preview_after_recovery_matches_a_fresh_select(self, tmp_path):
        manager = StorageManager(str(tmp_path))
        platform = manager.attach(SQLShare())
        platform.upload("alice", "t", T)
        platform.create_dataset("alice", "v", V)
        rows = "".join("%d,%d\n" % (i, 10 * i) for i in range(4, 154))
        platform.append("alice", "t", "id,x\n" + rows)
        manager.checkpoint()
        platform.create_dataset("alice", "w", "SELECT id FROM [v] WHERE id < 5")
        manager.close()
        manager = StorageManager(str(tmp_path))
        recovered, _report = manager.recover()
        for name in ("t", "v", "w"):
            fresh = recovered.db.execute(
                "SELECT TOP %d * FROM [%s]" % (PREVIEW_ROWS, name))
            assert recovered.preview("alice", name) == (fresh.columns, fresh.rows)
        assert len(recovered.preview("alice", "v")[1]) == PREVIEW_ROWS
        manager.close()


class TestRestPreview:
    @pytest.fixture
    def alice(self):
        return SQLShareClient("alice", app=SQLShareApp(run_async=False))

    def test_dependent_preview_follows_upstream_append(self, alice):
        alice.upload("t", T)
        alice.save_dataset("v", V)
        assert len(alice.dataset("v")["preview"]["rows"]) == 2
        alice.append("t", MORE)
        preview = alice.dataset("v")["preview"]
        assert preview["columns"] == ["id", "x"]
        assert preview["rows"] == [[2, 20], [3, 30], [4, 40], [5, 50]]

    def test_broken_dependent_keeps_metadata_and_reports_the_error(self, alice):
        alice.upload("t", T)
        alice.save_dataset("v", V, description="warm rows")
        alice.delete_dataset("t")
        info = alice.dataset("v")
        assert info["name"] == "v"
        assert info["description"] == "warm rows"
        assert "provenance" in info
        preview = info["preview"]
        assert preview["columns"] == [] and preview["rows"] == []
        assert preview["error"]
