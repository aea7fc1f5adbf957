"""The structured event log: emit/filter/rotate, the module-level sink,
and the multi-process merge readers behind ``repro logs``."""

import json
import os
import threading
import time

from repro.obs import events
from repro.obs.events import (
    EventLog, cluster_log_paths, filter_events, follow_events,
    read_events,
)


def test_emit_and_recent_roundtrip(tmp_path):
    log = EventLog(path=str(tmp_path / "events.jsonl"), process="server")
    log.emit("submit", trace_id="t1", user="alice", fingerprint="abc",
             job_id="q1")
    log.emit("finish", trace_id="t1", user="alice", outcome="SUCCEEDED")
    records = log.recent()
    assert [r["event"] for r in records] == ["submit", "finish"]
    assert records[0]["process"] == "server"
    assert records[0]["trace_id"] == "t1"
    assert records[0]["job_id"] == "q1"
    assert records[0]["seq"] < records[1]["seq"]
    assert records[0]["ts"] <= records[1]["ts"]


def test_recent_filters():
    log = EventLog()  # in-memory only
    log.emit("submit", trace_id="t1", user="alice")
    log.emit("submit", trace_id="t2", user="bob")
    log.emit("finish", trace_id="t1", user="alice")
    assert len(log.recent(trace_id="t1")) == 2
    assert [r["user"] for r in log.recent(user="bob")] == ["bob"]
    assert len(log.recent(event="finish")) == 1
    assert len(log.recent(limit=1)) == 1


def test_file_lines_are_json(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path=str(path), process="shard0", shard=0)
    log.emit("cache_hit", trace_id="t9")
    log.close()
    lines = path.read_text().strip().splitlines()
    record = json.loads(lines[0])
    assert record["event"] == "cache_hit"
    assert record["shard"] == 0


def test_rotation_keeps_bounded_generations(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path=str(path), process="p", max_bytes=512, backups=2)
    for index in range(200):
        log.emit("tick", n=index, padding="x" * 40)
    log.close()
    names = os.listdir(str(tmp_path))
    generations = [n for n in names if n.startswith("events.jsonl.")]
    assert 0 < len(generations) <= 2
    for name in names:
        # Every generation (and the live file, if one is open) is bounded.
        assert os.path.getsize(str(tmp_path / name)) <= 512 + 256


def test_flush_publishes_buffered_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path=str(path), process="p")
    log.emit("submit", user="alice")
    # Writes are buffered (no flush syscall per line on the hot path);
    # an explicit flush publishes them without closing the log.
    log.flush()
    assert json.loads(path.read_text().splitlines()[0])["event"] == "submit"
    log.emit("finish", user="alice")
    log.close()  # close flushes too
    assert len(path.read_text().splitlines()) == 2


def test_background_flusher_bounds_tail_latency(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path=str(path), process="p")
    try:
        log.emit("submit", user="alice")
        deadline = time.monotonic() + 5 * events.FLUSH_INTERVAL + 2.0
        while time.monotonic() < deadline:
            if path.exists() and path.read_text().strip():
                break
            time.sleep(0.02)
        assert path.read_text().strip(), \
            "the flusher thread never published the buffered line"
    finally:
        log.close()


def test_emit_survives_unwritable_path(tmp_path):
    log = EventLog(path=str(tmp_path / "no-such-dir" / "events.jsonl"),
                   process="p")
    log.emit("submit", user="alice")  # must not raise
    assert log.recent()[0]["event"] == "submit"


def test_module_sink_configure_and_emit(tmp_path):
    try:
        events.configure(path=str(tmp_path / "events.jsonl"), process="test")
        events.emit("route", trace_id="t1")
        assert events.get_log().recent()[0]["event"] == "route"
    finally:
        events.configure()  # restore an import-time-equivalent sink


def test_cluster_log_paths_and_merge(tmp_path):
    coordinator = EventLog(path=str(tmp_path / "events.jsonl"),
                           process="coordinator")
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    shard = EventLog(path=str(shard_dir / "events.jsonl"),
                     process="shard0", shard=0)
    coordinator.emit("route", trace_id="t1", user="alice")
    shard.emit("submit", trace_id="t1", user="alice")
    coordinator.emit("shard_op", trace_id="t1", op="http")
    coordinator.close()
    shard.close()

    paths = cluster_log_paths(str(tmp_path))
    assert len(paths) == 2
    merged = read_events(paths)
    assert [r["event"] for r in merged] == ["route", "submit", "shard_op"]
    assert {r["process"] for r in merged} == {"coordinator", "shard0"}
    only = read_events(paths, trace_id="t1", event="submit")
    assert len(only) == 1 and only[0]["process"] == "shard0"


def test_filter_events_combines_predicates():
    records = [
        {"event": "submit", "trace_id": "t1", "user": "a"},
        {"event": "submit", "trace_id": "t2", "user": "b"},
        {"event": "finish", "trace_id": "t1", "user": "a"},
    ]
    assert len(filter_events(records, trace_id="t1")) == 2
    assert len(filter_events(records, trace_id="t1", event="submit")) == 1
    assert filter_events(records, user="nobody") == []


def test_follow_events_sees_appended_records(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path=str(path), process="p")
    log.emit("submit", n=1)

    seen = []
    done = threading.Event()

    def consume():
        for record in follow_events([str(path)], poll=0.02,
                                    stop=lambda: done.is_set() and
                                    len(seen) >= 2):
            seen.append(record)
            if len(seen) >= 2:
                break

    thread = threading.Thread(target=consume)
    thread.start()
    try:
        deadline = 50
        while not seen and deadline:
            deadline -= 1
            threading.Event().wait(0.02)
        log.emit("finish", n=2)
        done.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [r["event"] for r in seen] == ["submit", "finish"]
    finally:
        done.set()
        log.close()
        thread.join(timeout=1.0)
