"""REST API and client tests (in-process WSGI transport)."""

import pytest

from repro.server.client import ClientError, SQLShareClient
from repro.server.rest import SQLShareApp

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"


@pytest.fixture
def app():
    # Synchronous execution keeps the protocol identical without threads.
    return SQLShareApp(run_async=False)


@pytest.fixture
def alice(app):
    return SQLShareClient("alice", app=app)


@pytest.fixture
def bob(app):
    return SQLShareClient("bob", app=app)


class TestUploadAndQuery:
    def test_upload_returns_dataset_info(self, alice):
        info = alice.upload("obs", CSV, description="sensor data", tags=["ocean"])
        assert info["name"] == "obs"
        assert info["owner"] == "alice"
        assert info["kind"] == "wrapper"
        assert info["visibility"] == "private"
        assert info["tags"] == ["ocean"]

    def test_submit_and_poll(self, alice):
        alice.upload("obs", CSV)
        query_id = alice.submit_query("SELECT site FROM obs WHERE temp > 11")
        status = alice.query_status(query_id)
        assert status["status"] == "complete"
        payload = alice.fetch_results(query_id)
        assert payload["rows"] == [["C"]]

    def test_run_query_convenience(self, alice):
        alice.upload("obs", CSV)
        columns, rows = alice.run_query("SELECT COUNT(*) AS n FROM obs")
        assert columns == ["n"]
        assert rows == [(3,)]

    def test_query_error_surfaces(self, alice):
        alice.upload("obs", CSV)
        query_id = alice.submit_query("SELECT nope FROM obs")
        status = alice.query_status(query_id)
        assert status["status"] == "error"
        with pytest.raises(ClientError):
            alice.fetch_results(query_id)

    def test_query_of_other_user_hidden(self, alice, bob):
        alice.upload("obs", CSV)
        query_id = alice.submit_query("SELECT * FROM obs")
        with pytest.raises(ClientError) as excinfo:
            bob.query_status(query_id)
        assert excinfo.value.status == 403

    def test_unknown_query_404(self, alice):
        with pytest.raises(ClientError) as excinfo:
            alice.query_status("q999999")
        assert excinfo.value.status == 404


class TestDatasetEndpoints:
    def test_get_dataset_with_preview(self, alice):
        alice.upload("obs", CSV)
        info = alice.dataset("obs")
        assert info["preview"]["columns"] == ["site", "temp"]
        assert len(info["preview"]["rows"]) == 3

    def test_save_derived_dataset(self, alice):
        alice.upload("obs", CSV)
        info = alice.save_dataset("warm", "SELECT * FROM obs WHERE temp > 11")
        assert info["kind"] == "derived"
        assert info["derived_from"] == ["obs"]

    def test_provenance_in_dataset_info(self, alice):
        alice.upload("obs", CSV)
        alice.save_dataset("warm", "SELECT * FROM obs WHERE temp > 11")
        alice.save_dataset("warm2", "SELECT site FROM warm")
        info = alice.dataset("warm2")
        assert info["provenance"] == ["warm", "obs"]

    def test_list_datasets_filters_by_access(self, alice, bob):
        alice.upload("obs", CSV)
        alice.upload("pub", CSV.replace("site", "loc"))
        alice.make_public("pub")
        names = [d["name"] for d in bob.list_datasets()]
        assert names == ["pub"]

    def test_append(self, alice):
        alice.upload("obs", CSV)
        alice.append("obs", "site,temp\nD,13.0\n")
        _columns, rows = alice.run_query("SELECT COUNT(*) FROM obs")
        assert rows == [(4,)]

    def test_delete(self, alice):
        alice.upload("obs", CSV)
        alice.delete_dataset("obs")
        assert alice.list_datasets() == []

    def test_delete_foreign_forbidden(self, alice, bob):
        alice.upload("obs", CSV)
        alice.make_public("obs")
        with pytest.raises(ClientError) as excinfo:
            bob.delete_dataset("obs")
        assert excinfo.value.status == 403

    def test_duplicate_upload_conflict(self, alice):
        alice.upload("obs", CSV)
        with pytest.raises(ClientError) as excinfo:
            alice.upload("obs", CSV)
        assert excinfo.value.status == 409

    def test_missing_dataset_404(self, alice):
        with pytest.raises(ClientError) as excinfo:
            alice.dataset("ghost")
        assert excinfo.value.status == 404


class TestPermissionsEndpoints:
    def test_share_roundtrip(self, alice, bob):
        alice.upload("obs", CSV)
        payload = alice.share("obs", "bob")
        assert payload["shared_with"] == ["bob"]
        _columns, rows = bob.run_query("SELECT COUNT(*) FROM obs")
        assert rows == [(3,)]

    def test_private_blocks_other_users(self, alice, bob):
        alice.upload("obs", CSV)
        with pytest.raises(ClientError) as excinfo:
            bob.run_query("SELECT * FROM obs")
        assert excinfo.value.status == 400 or excinfo.value.status == 403

    def test_make_public_then_private(self, alice, bob):
        alice.upload("obs", CSV)
        alice.make_public("obs")
        assert bob.run_query("SELECT COUNT(*) FROM obs")[1] == [(3,)]
        alice.make_private("obs")
        with pytest.raises(ClientError):
            bob.run_query("SELECT COUNT(*) FROM obs")


class TestProtocolDetails:
    def call(self, app, method, path, user="alice", body=None):
        import io, json

        raw = json.dumps(body).encode() if body is not None else b""
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        if user:
            environ["HTTP_X_SQLSHARE_USER"] = user
        out = {}

        def start_response(status, headers):
            out["status"] = int(status.split()[0])

        chunks = app(environ, start_response)
        return out["status"], json.loads(b"".join(chunks))

    def test_missing_user_header_401(self, app):
        status, payload = self.call(app, "GET", "/api/v1/datasets", user=None)
        assert status == 401

    def test_unknown_endpoint_404(self, app):
        status, _payload = self.call(app, "GET", "/api/v1/nothing")
        assert status == 404

    def test_wrong_method_405(self, app):
        status, _payload = self.call(app, "DELETE", "/api/v1/datasets")
        assert status == 405

    def test_bad_json_400(self, app):
        import io

        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/api/v1/query",
            "CONTENT_LENGTH": "7",
            "wsgi.input": io.BytesIO(b"not json"),
            "HTTP_X_SQLSHARE_USER": "alice",
        }
        out = {}

        def start_response(status, headers):
            out["status"] = int(status.split()[0])

        app(environ, start_response)
        assert out["status"] == 400

    def test_missing_field_400(self, app):
        status, payload = self.call(app, "POST", "/api/v1/query", body={})
        assert status == 400
        assert "sql" in payload["error"]

    def test_async_mode_polls(self):
        app = SQLShareApp(run_async=True)
        client = SQLShareClient("alice", app=app)
        client.upload("obs", CSV)
        _columns, rows = client.run_query("SELECT COUNT(*) FROM obs")
        assert rows == [(3,)]

    def test_live_http_server(self):
        import threading

        from repro.server.rest import serve

        server = serve(port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.handle_request, daemon=True)
        thread.start()
        client = SQLShareClient("alice", base_url="http://127.0.0.1:%d" % port)
        assert client.list_datasets() == []
        server.server_close()


class TestCheckEndpoint:
    def test_check_reports_diagnostics_without_executing(self, alice):
        alice.upload("obs", CSV)
        payload = alice.check("SELECT frobz, quux FROM obs WHERE site = 3")
        codes = [d["code"] for d in payload["diagnostics"]]
        assert codes.count("SEM001") == 2
        assert "LINT004" in codes
        assert payload["ok"] is False
        spans = [d["span"] for d in payload["diagnostics"]]
        assert all(span and span["line"] == 1 for span in spans)

    def test_check_clean_statement(self, alice):
        alice.upload("obs", CSV)
        payload = alice.check("SELECT site, temp FROM obs WHERE temp > 11.0")
        assert payload == {"diagnostics": [], "ok": True, "plan_check": "ok"}

    def test_check_semantic_only(self, alice):
        alice.upload("obs", CSV)
        payload = alice.check(
            "SELECT o.site FROM obs o, obs b", lint=False)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_check_includes_plan_verdict(self, alice):
        alice.upload("obs", CSV)
        payload = alice.check("SELECT site FROM obs WHERE temp > 11.0")
        assert payload["plan_check"] == "ok"

    def test_check_omits_plan_verdict_when_unplannable(self, alice):
        alice.upload("obs", CSV)
        # A statement with semantic errors never reaches the planner, so
        # there is no plan verdict to report.
        payload = alice.check("SELECT frobz FROM obs")
        assert payload["ok"] is False
        assert "plan_check" not in payload

    def test_check_reports_plan_violations(self, alice, monkeypatch):
        from repro.check.plancheck import PlanViolation

        alice.upload("obs", CSV)
        db = alice._transport.app.platform.db
        monkeypatch.setattr(
            type(db), "check_plan",
            lambda self, sql, prepared=None: [PlanViolation(
                "PLAN007", "Sort", "0", "negative row estimate")])
        payload = alice.check("SELECT site FROM obs")
        assert payload["plan_check"] == [{
            "code": "PLAN007", "name": "estimate-sanity",
            "operator": "Sort", "path": "0",
            "message": "negative row estimate"}]


class TestRuntimeEndpoints:
    def test_submit_returns_diagnostics(self, alice):
        alice.upload("obs", CSV)
        app = alice._transport.app
        status, payload = TestProtocolDetails().call(
            app, "POST", "/api/v1/query",
            body={"sql": "SELECT nope FROM obs"})
        assert status == 202
        assert any("nope" in d.get("message", "")
                   for d in payload["diagnostics"])

    def test_status_payload_carries_state_and_timing(self, alice):
        alice.upload("obs", CSV)
        query_id = alice.submit_query("SELECT site FROM obs")
        status = alice.query_status(query_id)
        assert status["state"] == "SUCCEEDED"
        assert status["row_count"] == 3
        assert status["exec_seconds"] >= 0.0

    def test_results_report_cache_hit(self, alice):
        alice.upload("obs", CSV)
        first = alice.submit_query("SELECT site FROM obs")
        assert alice.fetch_results(first)["cache_hit"] is False
        second = alice.submit_query("SELECT site FROM obs")
        assert alice.fetch_results(second)["cache_hit"] is True

    def test_runtime_stats_endpoint(self, alice):
        alice.upload("obs", CSV)
        alice.run_query("SELECT site FROM obs")
        alice.run_query("SELECT site FROM obs")
        stats = alice.runtime_stats()
        assert stats["finished"]["SUCCEEDED"] >= 2
        assert stats["cache"]["hits"] >= 1
        assert stats["config"]["max_workers"] == 0

    def test_cancel_completed_query_is_noop(self, alice):
        alice.upload("obs", CSV)
        query_id = alice.submit_query("SELECT site FROM obs")
        payload = alice.cancel_query(query_id)
        assert payload["status"] == "complete"

    def test_cancel_unknown_404_and_foreign_403(self, alice, bob):
        alice.upload("obs", CSV)
        with pytest.raises(ClientError) as excinfo:
            alice.cancel_query("q999999")
        assert excinfo.value.status == 404
        query_id = alice.submit_query("SELECT site FROM obs")
        with pytest.raises(ClientError) as excinfo:
            bob.cancel_query(query_id)
        assert excinfo.value.status == 403


class TestQueuedRuntime:
    """run_async app with a zero-worker pool: jobs queue, nothing runs —
    the deterministic way to exercise pending status, 429 admission and
    queued-job cancellation over HTTP."""

    @pytest.fixture
    def queued_app(self):
        from repro.runtime import RuntimeConfig

        return SQLShareApp(
            run_async=True,
            runtime_config=RuntimeConfig(
                max_workers=0, per_user_queue_depth=1),
        )

    @pytest.fixture
    def carol(self, queued_app):
        return SQLShareClient("carol", app=queued_app)

    def test_pending_then_admission_limit_429(self, carol):
        first = carol.submit_query("SELECT 1")
        assert carol.query_status(first)["status"] == "pending"
        assert carol.fetch_results(first)["status"] == "pending"
        with pytest.raises(ClientError) as excinfo:
            carol.submit_query("SELECT 2")
        assert excinfo.value.status == 429

    def test_cancel_queued_query(self, carol, queued_app):
        query_id = carol.submit_query("SELECT 1")
        payload = carol.cancel_query(query_id)
        assert payload["status"] == "cancelled"
        with pytest.raises(ClientError) as excinfo:
            carol.fetch_results(query_id)
        assert excinfo.value.status == 409
        # The queue slot is released: a new submission is admitted.
        carol.submit_query("SELECT 2")
        stats = carol.runtime_stats()
        assert stats["queued"] == 1
