"""The coordinator serves through SQLShareApp's one route table.

Every route a single node answers, the cluster answers too — by its own
handler or by forwarding to the shard that owns the request — and the
two apps give the same 401/404/405 and error payloads.  Failures a shard
reports by exception name map onto the same statuses as local ones.

Process-free: the coordinator is the real one, with each shard an
in-process :class:`WorkerServer` behind a JSON round trip.
"""

import io
import json
import os

import pytest

from repro.cluster import protocol
from repro.cluster.app import ClusterApp
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.router import shard_for_user
from repro.cluster.worker import WorkerServer
from repro.errors import (
    ClusterError,
    DatasetError,
    IngestError,
    ParseError,
    PermissionError_,
    QuotaError,
    ReproError,
)
from repro.obs import events
from repro.server.rest import _ROUTES, SQLShareApp, error_class, error_status

CSV = "region,amount\nwest,10\neast,20\n"


def _user_on_shard(shard, shards=2):
    for index in range(1000):
        user = "user%d" % index
        if shard_for_user(user, shards) == shard:
            return user
    raise AssertionError("no user hashes to shard %d" % shard)


ALICE = _user_on_shard(0)  # home shard 0
BOB = _user_on_shard(1)  # home shard 1


def _wire(message):
    return json.loads(json.dumps(message, default=protocol.json_default),
                      object_hook=protocol.json_object_hook)


class InProcessCoordinator(ClusterCoordinator):
    """The coordinator with in-process shards; records every frame as
    ``(shard, op, method, path, body)``."""

    def __init__(self, base_dir, shards=2):
        super(InProcessCoordinator, self).__init__(shards, base_dir)
        self.servers = [WorkerServer(index, SQLShareApp(run_async=False))
                        for index in range(shards)]
        self.frames = []
        for handle in self.handles:
            handle.alive = True

    def _transport(self, handle, message, mark_down_on_failure):
        self.frames.append((handle.shard, message["op"],
                            message.get("method"), message.get("path"),
                            message.get("body")))
        return _wire(self.servers[handle.shard].handle(_wire(message)))


def request(app, method, path, user=None, raw=b""):
    """One WSGI request with a raw body; returns (status, payload)."""
    path, _, query = path.partition("?")
    environ = {"REQUEST_METHOD": method, "PATH_INFO": path,
               "QUERY_STRING": query, "CONTENT_LENGTH": str(len(raw)),
               "wsgi.input": io.BytesIO(raw)}
    if user is not None:
        environ["HTTP_X_SQLSHARE_USER"] = user
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["type"] = dict(headers)["Content-Type"]

    text = b"".join(app(environ, start_response)).decode("utf-8")
    if captured["type"] == "application/json":
        return captured["status"], json.loads(text)
    return captured["status"], text


def post(app, path, user, body):
    return request(app, "POST", path, user, json.dumps(body).encode("utf-8"))


@pytest.fixture
def coordinator(tmp_path):
    return InProcessCoordinator(str(tmp_path))


@pytest.fixture
def cluster(coordinator):
    return ClusterApp(coordinator)


def test_every_route_is_answered_by_the_cluster(coordinator, cluster):
    # Bob (shard 1) owns a public dataset; Alice (shard 0) drives every
    # route, so owner routing and home routing land on different shards.
    assert post(cluster, "/api/v1/upload", BOB,
                {"name": "obs", "data": CSV})[0] == 201
    assert request(cluster, "PUT", "/api/v1/dataset/obs/permissions", BOB,
                   b'{"public": true}')[0] == 200
    for method, _pattern, template, name, _auth in _ROUTES:
        path = template.format(name="obs", query_id="q000001",
                               batch_id="b000001", fingerprint="ab12")
        del coordinator.frames[:]
        status, payload = request(cluster, method, path, ALICE, b"{}")
        forwarded = [frame[0] for frame in coordinator.frames
                     if frame[1:4] == ("http", method, path)]
        assert forwarded or status not in (404, 405), (
            method, template, status, payload)
        if not hasattr(ClusterApp, "_" + name):
            expected = 1 if "{name}" in template else 0
            assert forwarded == [expected], (method, template)


ERROR_CASES = [
    ("GET", "/api/v1/datasets", None, b""),  # missing user
    ("GET", "/api/v1/no/such/path", None, b""),  # unknown path, no user
    ("GET", "/api/v1/no/such/path", ALICE, b""),
    ("PATCH", "/api/v1/query", ALICE, b""),  # wrong method
    ("DELETE", "/api/v1/dataset/obs/append", ALICE, b""),
    ("POST", "/api/v1/query", ALICE, b"{}"),  # missing field
    ("POST", "/api/v1/upload", ALICE, b'{"name": "x"}'),
    ("POST", "/api/v1/query", ALICE, b"{x}"),  # invalid JSON
]


@pytest.mark.parametrize("method,path,user,raw", ERROR_CASES)
def test_error_responses_match_a_single_node(cluster, method, path, user,
                                             raw):
    single = SQLShareApp(run_async=False)
    expected = request(single, method, path, user, raw)
    assert expected[0] in (400, 401, 404, 405)
    assert request(cluster, method, path, user, raw) == expected


def test_invalid_json_is_rejected_at_the_coordinator(coordinator, cluster):
    status, payload = request(cluster, "POST", "/api/v1/query", ALICE,
                              b"{x}")
    assert (status, payload) == (400, {"error":
                                       "request body is not valid JSON"})
    assert coordinator.frames == []


def test_denied_cross_shard_read_is_403_like_a_single_node(cluster):
    assert post(cluster, "/api/v1/upload", BOB,
                {"name": "secret", "data": CSV})[0] == 201
    # The fetch-and-local-join fallback: the owning shard refuses.
    status, payload = post(cluster, "/api/v1/query", ALICE,
                           {"sql": "SELECT * FROM secret"})
    assert status == 403, payload
    assert payload["dataset"] == "secret"
    # The owner-routed read gets the same answer a single node gives.
    single = SQLShareApp(run_async=False)
    post(single, "/api/v1/upload", BOB, {"name": "secret", "data": CSV})
    expected = request(single, "GET", "/api/v1/dataset/secret", ALICE)
    assert expected[0] == 403
    assert request(cluster, "GET", "/api/v1/dataset/secret",
                   ALICE) == expected


@pytest.mark.parametrize("error,status", [
    (PermissionError_("denied"), 403),
    (QuotaError("over quota"), 403),
    (DatasetError("no dataset named 'x'"), 404),
    (DatasetError("dataset 'x' already exists"), 409),
    (ParseError("bad syntax"), 400),
    (IngestError("bad file"), 400),
    (ClusterError("shard 1 unreachable"), 503),
    (KeyError("rows"), 500),
])
def test_shard_reported_error_maps_like_a_local_one(error, status):
    assert error_status(type(error), str(error)) == status
    reported = error_class(type(error).__name__)
    assert error_status(reported, str(error)) == status


def test_repro_error_in_a_cluster_handler_is_a_400_body(coordinator,
                                                         cluster):
    def resolve(name, trace=None):
        raise ReproError("directory unavailable")

    coordinator.resolve = resolve
    assert request(cluster, "GET", "/api/v1/dataset/x", ALICE) == (
        400, {"error": "directory unavailable"})


def test_shard_down_is_503_with_reason(coordinator, cluster):
    def unreachable(handle, message, mark_down_on_failure):
        raise ClusterError("shard %d unreachable" % handle.shard)

    coordinator._transport = unreachable
    status, payload = request(cluster, "GET", "/api/v1/query/q1", ALICE)
    assert status == 503
    assert payload["reason"] == "shard_down"


def test_query_string_is_percent_decoded_for_merged_logs(coordinator,
                                                         cluster):
    log = events.EventLog(path=os.path.join(coordinator.base_dir,
                                            events.EVENTS_FILE),
                          process="coordinator")
    log.emit("route", user="a@b")
    log.emit("route", user="other")
    log.close()
    status, payload = request(cluster, "GET", "/api/v1/logs?user=a%40b",
                              ALICE)
    assert status == 200
    assert [record["user"] for record in payload["events"]] == ["a@b"]


def test_query_string_reaches_advisor_shards_decoded(coordinator, cluster):
    status, payload = request(
        cluster, "GET", "/api/v1/advisor?limit=2&min_executions=1&x=a%40b",
        ALICE)
    assert status == 200
    assert payload["shards_reporting"] == [0, 1]
    bodies = [frame[4] for frame in coordinator.frames
              if frame[1:4] == ("http", "GET", "/api/v1/advisor")]
    assert bodies == [{"limit": "2", "min_executions": "1", "x": "a@b"}] * 2
