"""Unit tests for the small core classes: Dataset, QueryLog, Quota, ViewGraph."""

import datetime as dt

import pytest

from repro.core.dataset import Dataset, PREVIEW_ROWS
from repro.core.querylog import QueryLog
from repro.core.quota import QuotaManager
from repro.core.sqlshare import SQLShare
from repro.core.views import ViewGraph
from repro.errors import DatasetError, QuotaError


class TestDataset:
    def test_preview_capped_at_100(self):
        share = SQLShare()
        share.upload("u", "d", "a\n" + "".join("%d\n" % i for i in range(500)))
        columns, rows = share.preview("u", "d")
        assert columns == ["a"]
        assert rows == [(i,) for i in range(PREVIEW_ROWS)]

    def test_kinds(self):
        assert Dataset("d", "u", "", "wrapper").is_wrapper
        assert Dataset("d", "u", "", "derived").is_derived
        assert not Dataset("d", "u", "", "snapshot").is_derived

    def test_metadata_defaults(self):
        dataset = Dataset("d", "u", "", "wrapper", tags=["x"])
        assert dataset.metadata.tags == {"x"}
        assert dataset.doi is None


class TestQueryLog:
    def test_auto_timestamps_monotonic(self):
        log = QueryLog()
        first = log.record("a", "SELECT 1")
        second = log.record("a", "SELECT 2")
        assert second.timestamp > first.timestamp

    def test_ids_sequential(self):
        log = QueryLog()
        assert [log.record("a", "q").query_id for _ in range(3)] == [1, 2, 3]

    def test_successful_filters_errors(self):
        log = QueryLog()
        log.record("a", "good")
        log.record("a", "bad", error="boom")
        assert len(log.successful()) == 1

    def test_by_user_and_users(self):
        log = QueryLog()
        log.record("a", "q1")
        log.record("b", "q2")
        assert len(log.by_user("a")) == 1
        assert log.users() == ["a", "b"]

    def test_referencing_case_insensitive(self):
        log = QueryLog()
        log.record("a", "q", datasets=("MyData",))
        assert len(log.referencing("mydata")) == 1

    def test_entry_length(self):
        log = QueryLog()
        entry = log.record("a", "SELECT 1")
        assert entry.length == 8


class TestQuota:
    def test_charge_and_refund(self):
        quotas = QuotaManager(default_quota=100)
        quotas.charge("u", 60)
        assert quotas.usage("u") == 60
        quotas.refund("u", 20)
        assert quotas.usage("u") == 40

    def test_over_quota_raises(self):
        quotas = QuotaManager(default_quota=10)
        with pytest.raises(QuotaError):
            quotas.charge("u", 11)

    def test_failed_charge_leaves_usage(self):
        quotas = QuotaManager(default_quota=10)
        quotas.charge("u", 5)
        with pytest.raises(QuotaError):
            quotas.charge("u", 6)
        assert quotas.usage("u") == 5

    def test_per_user_limits(self):
        quotas = QuotaManager(default_quota=10)
        quotas.set_limit("vip", 1000)
        quotas.charge("vip", 500)
        with pytest.raises(QuotaError):
            quotas.charge("pleb", 500)

    def test_refund_floors_at_zero(self):
        quotas = QuotaManager()
        quotas.refund("u", 99)
        assert quotas.usage("u") == 0


class TestViewGraph:
    def make_graph(self, edges):
        datasets = {}
        for name, parents in edges.items():
            datasets[name.lower()] = Dataset(
                name, "u", "", "derived" if parents else "wrapper",
                derived_from=parents,
            )

        def lookup(name):
            try:
                return datasets[name.lower()]
            except KeyError:
                raise DatasetError(name)

        return ViewGraph(lookup, lambda: list(datasets.values()))

    def test_depths(self):
        graph = self.make_graph({"base": [], "v1": ["base"], "v2": ["v1"]})
        assert graph.depth("base") == 0
        assert graph.depth("v1") == 1
        assert graph.depth("v2") == 2

    def test_diamond(self):
        graph = self.make_graph({
            "base": [], "left": ["base"], "right": ["base"],
            "top": ["left", "right"],
        })
        assert graph.depth("top") == 2
        assert set(graph.provenance("top")) == {"left", "right", "base"}

    def test_cycle_guard(self):
        from repro.core.views import ViewCycleError

        graph = self.make_graph({"a": ["b"], "b": ["a"]})
        with pytest.raises(ViewCycleError):
            graph.depth("a")

    def test_dependents(self):
        graph = self.make_graph({"base": [], "v1": ["base"]})
        assert graph.dependents("base") == ["v1"]
        assert graph.dependents("v1") == []

    def test_max_depth_by_user(self):
        graph = self.make_graph({"base": [], "v1": ["base"]})
        assert graph.max_depth_by_user() == {"u": 1}
