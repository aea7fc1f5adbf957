"""Cardinality feedback store: fingerprints, site keys, harvesting, and
the planner's consumption of observed cardinalities."""

from repro.adaptive import CardinalityFeedbackStore
from repro.adaptive.feedback import _plan_walk, operator_site_key
from repro.core.sqlshare import SQLShare
from repro.engine.prepared import prepare_statement

SQL = "select * from [t] where flag <> 'x'"


def _platform(rows=100):
    lines = ["id,k,flag"]
    for i in range(rows):
        lines.append("%d,%d,real" % (i, i))
    platform = SQLShare()
    platform.upload("ada", "t", "\n".join(lines) + "\n")
    platform.make_public("ada", "t")
    return platform


def _fingerprint(sql):
    return prepare_statement(sql).fingerprint


def _harvested(platform, sql=SQL):
    store = CardinalityFeedbackStore()
    result = platform.db.execute(sql, profile=True)
    sites = store.harvest(_fingerprint(sql), result.plan,
                          result.profile)
    return store, sites


def _walk(plan):
    out = []
    _plan_walk(plan, out)
    return out


class TestSiteKeys:
    def test_stable_across_plannings(self):
        platform = _platform()
        first = [operator_site_key(op)
                 for op in _walk(platform.db.explain(SQL).plan)]
        second = [operator_site_key(op)
                  for op in _walk(platform.db.explain(SQL).plan)]
        assert first == second
        assert len(first) >= 1

    def test_different_filters_get_different_keys(self):
        platform = _platform()
        one = platform.db.explain("select * from [t] where flag <> 'x'")
        two = platform.db.explain("select * from [t] where flag <> 'y'")
        assert (operator_site_key(one.plan)
                != operator_site_key(two.plan))


class TestHarvestAndConsume:
    def test_harvest_counts_sites(self):
        platform = _platform()
        store, sites = _harvested(platform)
        assert sites > 0
        summary = store.summary()
        assert summary["fingerprints"] == 1
        assert summary["harvests"] == 1
        assert summary["sites"] == sites

    def test_planner_estimates_become_observed(self, rows=100):
        platform = _platform(rows)
        # Synthetic guess first: a <> filter is assumed selective.
        unaided = platform.db.explain(SQL)
        assert unaided.plan.est_rows != rows
        store, _sites = _harvested(platform)
        platform.db.feedback = store
        explained = platform.db.explain(SQL)
        assert explained.plan.est_rows == float(rows)

    def test_lookup_is_normalization_insensitive(self):
        platform = _platform()
        store, _sites = _harvested(platform)
        platform.db.feedback = store
        spaced = "SELECT  *  FROM  [t]  WHERE  flag <> 'x'"
        assert platform.db.explain(spaced).plan.est_rows == 100.0

    def test_invalidate_forgets_a_fingerprint(self):
        platform = _platform()
        store, _sites = _harvested(platform)
        assert store.view(_fingerprint(SQL)) is not None
        store.invalidate(_fingerprint(SQL))
        assert store.view(_fingerprint(SQL)) is None

    def test_capacity_bounds_fingerprints(self):
        platform = _platform()
        store = CardinalityFeedbackStore(capacity=2)
        for flag in ("a", "b", "c"):
            sql = "select * from [t] where flag <> '%s'" % flag
            result = platform.db.execute(sql, profile=True)
            store.harvest(_fingerprint(sql), result.plan,
                          result.profile)
        assert store.summary()["fingerprints"] == 2


class TestPersistence:
    def test_dump_restore_round_trip(self):
        platform = _platform()
        store, sites = _harvested(platform)
        clone = CardinalityFeedbackStore()
        clone.restore_state(store.dump_state())
        assert clone.summary()["fingerprints"] == 1
        assert clone.summary()["sites"] == sites
        platform.db.feedback = clone
        assert platform.db.explain(SQL).plan.est_rows == 100.0

    def test_restore_skips_malformed_entries(self):
        store = CardinalityFeedbackStore()
        store.restore_state({"entries": [
            {"fingerprint": "", "sites": {"k": 1.0}},
            {"fingerprint": "ok", "sites": "not-a-dict"},
            {"fingerprint": "good", "sites": {"k": "3.5"}},
        ]})
        assert store.summary()["fingerprints"] == 1
