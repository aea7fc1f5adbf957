"""REST monitoring surfaces: /timeseries, /querystore, /alerts, /health."""

import socket
import threading
import urllib.request

import pytest

from repro.core.sqlshare import SQLShare
from repro.obs.alerts import AlertManager, AlertRule
from repro.runtime import RuntimeConfig
from repro.server.client import ClientError, SQLShareClient, _WSGITransport
from repro.server.rest import SQLShareApp, serve

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"


def monitored_app(**overrides):
    defaults = dict(max_workers=0, monitor_enabled=True)
    defaults.update(overrides)
    return SQLShareApp(SQLShare(), run_async=False,
                       runtime_config=RuntimeConfig(**defaults))


@pytest.fixture
def app():
    return monitored_app()


@pytest.fixture
def alice(app):
    client = SQLShareClient("alice", app=app)
    client.upload("obs", CSV)
    return client


class TestTimeseriesEndpoint:
    def test_export_after_ticks(self, app, alice):
        alice.run_query("SELECT site FROM obs")
        app.runtime.monitor.tick()
        payload = alice.timeseries()
        assert payload["samples_taken"] == 1
        series = payload["series"]
        assert series["repro_scheduler_jobs_submitted_total"][-1][1] == 1.0

    def test_prefix_and_max_points_params(self, app, alice):
        alice.run_query("SELECT site FROM obs")
        for _ in range(3):
            app.runtime.monitor.tick()
        payload = alice.timeseries(prefix="repro_cache", max_points=2)
        assert payload["series"]
        for key, points in payload["series"].items():
            assert key.startswith("repro_cache")
            assert len(points) <= 2

    def test_409_when_monitoring_disabled(self):
        app = monitored_app(monitor_enabled=False)
        client = SQLShareClient("alice", app=app)
        with pytest.raises(ClientError) as excinfo:
            client.timeseries()
        assert excinfo.value.status == 409


class TestQuerystoreEndpoint:
    def test_listing_and_entry(self, app, alice):
        alice.run_query("SELECT site FROM obs")
        alice.run_query("SELECT temp FROM obs")
        payload = alice.querystore()
        assert payload["entries"] == 2
        assert len(payload["queries"]) == 2
        fingerprint = payload["queries"][0]["fingerprint"]
        entry = alice.querystore(fingerprint=fingerprint)
        assert entry["fingerprint"] == fingerprint
        assert entry["executions"] == 1

    def test_regressions_filter_and_limit(self, app, alice):
        alice.run_query("SELECT site FROM obs")
        alice.run_query("SELECT temp FROM obs")
        payload = alice.querystore(regressions=True)
        assert payload["queries"] == []
        payload = alice.querystore(limit=1)
        assert len(payload["queries"]) == 1

    def test_404_unknown_fingerprint(self, alice):
        with pytest.raises(ClientError) as excinfo:
            alice.querystore(fingerprint="feedfeedfeed")
        assert excinfo.value.status == 404

    def test_query_string_params_reach_the_handler(self, app, alice):
        alice.run_query("SELECT site FROM obs")
        transport = _WSGITransport(app)
        status, payload = transport.request(
            "GET", "/api/v1/querystore?limit=0&regressions=false",
            {"X-SQLShare-User": "alice"}, None)
        assert status == 200
        assert payload["queries"] == []


class TestAlertsEndpoint:
    def test_alert_payload(self, app, alice):
        app.runtime.monitor.tick()
        payload = alice.alerts()
        assert payload["status"] == "ok"
        assert {alert["name"] for alert in payload["alerts"]} >= {
            "HighErrorRate", "HighQueryLatency"}
        assert payload["notifications"] == []


class TestHealthEndpoint:
    def test_health_needs_no_auth(self, app, alice):
        app.runtime.monitor.tick()
        transport = _WSGITransport(app)
        status, payload = transport.request("GET", "/api/v1/health", {}, None)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["monitoring"] is True
        assert payload["samples_taken"] == 1

    def test_health_without_monitor_still_answers(self):
        app = monitored_app(monitor_enabled=False)
        transport = _WSGITransport(app)
        status, payload = transport.request("GET", "/api/v1/health", {}, None)
        assert status == 200
        assert payload == {"status": "ok", "monitoring": False}

    def test_health_503_while_firing(self, app, alice):
        monitor = app.runtime.monitor
        monitor.alerts = AlertManager(monitor.store, [AlertRule(
            "AnySubmission",
            "latest(repro_scheduler_jobs_submitted_total[60]) >= 1",
            severity="critical")])
        alice.run_query("SELECT site FROM obs")
        monitor.tick()
        status, payload = _WSGITransport(app).request(
            "GET", "/api/v1/health", {}, None)
        assert status == 503
        assert payload["status"] == "degraded"
        assert payload["firing"] == ["AnySubmission"]
        # The client treats 503 as a valid, returned health state.
        assert alice.health()["status"] == "degraded"


class TestServedHealth:
    def test_stalled_client_does_not_block_health(self):
        server = serve(SQLShare(), port=0, runtime_config=RuntimeConfig(
            max_workers=1, monitor_enabled=False))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        stalled = socket.create_connection((host, port))
        try:
            # Half a request: the server is left waiting for the headers.
            stalled.sendall(b"GET /api/v1/health HTTP/1.1\r\nHost: x\r\n")
            url = "http://%s:%d/api/v1/health" % (host, port)
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
        finally:
            stalled.close()
            server.shutdown()
            server.server_close()
            server.get_app().runtime.shutdown()
