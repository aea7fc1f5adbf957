"""Versioned result-cache tests: normalization, invalidation, zero-stale."""

import pytest

from repro.core.sqlshare import SQLShare
from repro.runtime import ResultCache

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"


@pytest.fixture
def platform():
    share = SQLShare()
    share.upload("alice", "obs", CSV)
    share.result_cache = ResultCache()
    return share


class TestLookupStore:
    def test_hit_after_store(self):
        cache = ResultCache()
        cache.store("k", (("t", 1),), ["a"], [(1,)])
        entry = cache.lookup("k", lambda name: 1)
        assert entry is not None
        assert entry.rows == [(1,)]
        assert cache.stats.hits == 1

    def test_version_change_is_stale_never_served(self):
        cache = ResultCache()
        cache.store("k", (("t", 1),), ["a"], [(1,)])
        assert cache.lookup("k", lambda name: 2) is None
        assert cache.stats.stale_evictions == 1
        assert len(cache) == 0  # evicted, not retried

    def test_lru_capacity_eviction(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.store("k%d" % i, (), ["a"], [(i,)])
        assert len(cache) == 2
        assert cache.lookup("k0", lambda name: 0) is None
        assert cache.stats.capacity_evictions == 1

    def test_oversize_results_skip_the_cache(self):
        cache = ResultCache(max_rows_per_entry=2)
        cache.store("k", (), ["a"], [(1,), (2,), (3,)])
        assert len(cache) == 0
        assert cache.stats.oversize_skips == 1

    def test_invalidate_by_name(self):
        cache = ResultCache()
        cache.store("k1", (("obs", 1),), ["a"], [(1,)])
        cache.store("k2", (("other", 1),), ["a"], [(2,)])
        assert cache.invalidate(["OBS"]) == 1
        assert len(cache) == 1


class TestPlatformIntegration:
    def test_repeat_query_hits(self, platform):
        first = platform.run_query("alice", "SELECT site FROM obs")
        again = platform.run_query("alice", "SELECT site FROM obs")
        assert first.cache_hit is False
        assert again.cache_hit is True
        assert again.rows == first.rows
        # Plan metadata survives the hit for the query log.
        assert again.plan is not None
        # The info names the backing base table of the obs dataset.
        assert any("obs" in t.lower() for t in again.info.tables)

    def test_append_invalidates(self, platform):
        before = platform.run_query("alice", "SELECT COUNT(*) AS n FROM obs")
        assert before.rows == [(3,)]
        platform.append("alice", "obs", "site,temp\nD,9.0\n")
        after = platform.run_query("alice", "SELECT COUNT(*) AS n FROM obs")
        assert after.cache_hit is False
        assert after.rows == [(4,)]

    def test_view_chain_invalidated_transitively(self, platform):
        platform.create_dataset("alice", "warm", "SELECT * FROM obs WHERE temp > 10.6")
        platform.create_dataset("alice", "warm_sites", "SELECT site FROM warm")
        first = platform.run_query("alice", "SELECT COUNT(*) AS n FROM warm_sites")
        assert first.rows == [(2,)]
        assert platform.run_query(
            "alice", "SELECT COUNT(*) AS n FROM warm_sites").cache_hit
        # Appending to the BASE dataset must invalidate queries over the
        # grandchild view.
        platform.append("alice", "obs", "site,temp\nD,99.0\n")
        after = platform.run_query("alice", "SELECT COUNT(*) AS n FROM warm_sites")
        assert after.cache_hit is False
        assert after.rows == [(3,)]

    def test_view_redefinition_invalidates(self, platform):
        platform.create_dataset("alice", "hot", "SELECT * FROM obs WHERE temp > 12")
        assert platform.run_query("alice", "SELECT COUNT(*) AS n FROM hot").rows == [(1,)]
        platform.run_query("alice", "SELECT COUNT(*) AS n FROM hot")
        # Redefine by delete + recreate with a different predicate.
        platform.delete_dataset("alice", "hot")
        platform.create_dataset("alice", "hot", "SELECT * FROM obs WHERE temp > 10")
        after = platform.run_query("alice", "SELECT COUNT(*) AS n FROM hot")
        assert after.cache_hit is False
        assert after.rows == [(3,)]

    def test_delete_and_recreate_never_serves_old_rows(self, platform):
        platform.run_query("alice", "SELECT COUNT(*) AS n FROM obs")
        platform.delete_dataset("alice", "obs")
        platform.upload("alice", "obs", "site,temp\nZ,1.0\n")
        after = platform.run_query("alice", "SELECT COUNT(*) AS n FROM obs")
        assert after.cache_hit is False
        assert after.rows == [(1,)]

    def test_versions_are_monotonic_across_recreate(self, platform):
        catalog = platform.db.catalog
        table = sorted(platform.run_query(
            "alice", "SELECT site FROM obs").info.tables)[0]
        v1 = catalog.version_of(table)
        platform.delete_dataset("alice", "obs")
        platform.upload("alice", "obs", CSV)
        table2 = sorted(platform.run_query(
            "alice", "SELECT site FROM obs").info.tables)[0]
        assert catalog.version_of(table2) > 0
        if table2.lower() == table.lower():
            assert catalog.version_of(table2) > v1

    def test_audit_counts_stale_entries(self, platform):
        platform.run_query("alice", "SELECT site FROM obs")
        cache = platform.result_cache
        assert cache.audit(platform.db.catalog.version_of) == 0
        # Bump behind the platform's back: the entry is now stale-sitting.
        table = sorted(platform.run_query(
            "alice", "SELECT site FROM obs").info.tables)[0]
        platform.db.catalog.bump_version(table)
        assert cache.audit(platform.db.catalog.version_of) >= 1
        # ...but still never served.
        assert platform.run_query(
            "alice", "SELECT site FROM obs").cache_hit is False
