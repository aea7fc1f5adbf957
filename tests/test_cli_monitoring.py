"""CLI monitoring surfaces: `repro top`, `repro querystore`, serve flags.

The live-server tests run the real wsgiref server on an ephemeral port in
a background thread and drive the CLI entry points against it over HTTP —
the same path an operator's terminal takes.
"""

import threading

import pytest

from repro.cli import build_parser, main
from repro.core.sqlshare import SQLShare
from repro.runtime import RuntimeConfig
from repro.server.client import SQLShareClient
from repro.server.rest import serve

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"


class TestParser:
    def test_serve_monitoring_flags(self):
        args = build_parser().parse_args(
            ["serve", "--no-monitor", "--monitor-interval", "1.5"])
        assert args.no_monitor is True
        assert args.monitor_interval == 1.5

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:8080"
        assert args.user == "operator"
        assert args.interval == 2.0
        assert args.once is False

    def test_querystore_defaults(self):
        args = build_parser().parse_args(["querystore"])
        assert args.url is None
        assert args.fingerprint is None
        assert args.regressions is False
        assert args.limit == 50
        assert args.scale == 0.05


@pytest.fixture
def server_url():
    platform = SQLShare()
    platform.upload("alice", "obs", CSV)
    platform.make_public("alice", "obs")
    server = serve(platform, host="127.0.0.1", port=0,
                   runtime_config=RuntimeConfig(
                       max_workers=1, monitor_enabled=True,
                       monitor_interval=60.0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://127.0.0.1:%d" % server.server_address[1]
    monitor = server.get_app().runtime.monitor
    try:
        yield url, server.get_app(), monitor
    finally:
        server.shutdown()
        server.get_app().runtime.shutdown()
        thread.join(timeout=2.0)


class TestTopCommand:
    def test_once_renders_dashboard(self, server_url, capsys):
        url, app, monitor = server_url
        client = SQLShareClient("alice", base_url=url)
        client.run_query("SELECT site FROM obs")
        monitor.tick()
        assert main(["top", "--url", url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "health: OK" in out
        assert "scheduler  workers=1" in out
        assert "HighQueryLatency" in out  # default rules listed


class TestQuerystoreCommand:
    def test_listing_over_http(self, server_url, capsys):
        url, app, monitor = server_url
        client = SQLShareClient("alice", base_url=url)
        client.run_query("SELECT site FROM obs")
        client.run_query("SELECT temp FROM obs")
        assert main(["querystore", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "query store: 2 entries" in out
        assert "SELECT site FROM obs" in out

    def test_fingerprint_dump(self, server_url, capsys):
        import json

        url, app, monitor = server_url
        client = SQLShareClient("alice", base_url=url)
        client.run_query("SELECT site FROM obs")
        fingerprint = client.querystore()["queries"][0]["fingerprint"]
        assert main(["querystore", "--url", url,
                     "--fingerprint", fingerprint]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == fingerprint

    def test_regressions_exit_code(self, server_url, capsys):
        url, app, monitor = server_url
        client = SQLShareClient("alice", base_url=url)
        client.run_query("SELECT site FROM obs")
        # No regressions recorded: exit 0 and say so.
        assert main(["querystore", "--url", url, "--regressions"]) == 0
        assert "(no regressions)" in capsys.readouterr().out
        # Plant a regression directly in the server's store: exit 3.
        store = app.runtime.query_store
        for _ in range(5):
            store.record("SELECT planted FROM obs", plan_fp="fast",
                         seconds=0.001)
        for _ in range(5):
            store.record("SELECT planted FROM obs", plan_fp="slow",
                         seconds=0.1)
        assert main(["querystore", "--url", url, "--regressions"]) == 3
        out = capsys.readouterr().out
        assert "regression" in out
        assert "fast -> slow" in out
