"""Distributed-trace plumbing: context propagation, fragment stitching,
span-id namespacing, truncation marking, and deterministic Chrome lanes."""

from repro.cluster import protocol
from repro.obs.tracing import Trace, TraceContext, new_trace_id


def test_trace_context_wire_roundtrip():
    context = TraceContext("abc123", parent="sp4")
    wire = context.to_wire()
    assert wire == {"id": "abc123", "sampled": True, "parent": "sp4"}
    back = TraceContext.from_wire(wire)
    assert back.trace_id == "abc123"
    assert back.parent == "sp4"
    assert back.sampled is True


def test_trace_context_malformed_wire_is_none():
    assert TraceContext.from_wire(None) is None
    assert TraceContext.from_wire("nope") is None
    assert TraceContext.from_wire({}) is None
    assert TraceContext.from_wire({"sampled": True}) is None


def test_protocol_attach_and_extract():
    message = {"op": "run", "sql": "SELECT 1"}
    framed = protocol.attach_trace(message, TraceContext("t1", parent="sp0"))
    assert framed is not message  # original untouched
    assert "trace" not in message
    context = protocol.extract_trace(framed)
    assert context.trace_id == "t1" and context.parent == "sp0"
    assert protocol.extract_trace(message) is None
    assert protocol.attach_trace(message, None) is message


def test_new_trace_id_is_unique_and_short():
    ids = {new_trace_id() for _ in range(100)}
    assert len(ids) == 100
    assert all(len(trace_id) == 16 for trace_id in ids)


def _fragment(trace_id, parent=None, epoch_offset=0.0):
    """A worker-style fragment: one op span + one child."""
    remote = Trace(trace_id, parent=parent)
    remote.origin_epoch += epoch_offset  # simulate clock placement
    op_id = remote.new_span_id()
    remote.add_span("op:run", remote.origin + 0.001, remote.origin + 0.010,
                    span_id=op_id)
    remote.add_span("execute", remote.origin + 0.002, remote.origin + 0.008,
                    parent=op_id)
    return remote.to_dict()


def test_add_remote_namespaces_and_parents():
    trace = Trace("t1")
    call_span = trace.new_span_id()
    trace.add_span("call:run", trace.origin, trace.origin + 0.02,
                   span_id=call_span, shard=1)
    added = trace.add_remote(_fragment("t1", parent=call_span),
                             process="shard1", parent=call_span)
    assert added == 2
    spans = {span.span_id: span for span in trace.spans()}
    # Remote ids are namespaced by the process label; the fragment root
    # hangs off the local call span (un-namespaced reference).
    assert "shard1:sp0" in spans and "shard1:sp1" in spans
    assert spans["shard1:sp0"].parent_id == call_span
    assert spans["shard1:sp1"].parent_id == "shard1:sp0"
    assert spans["shard1:sp0"].process == "shard1"
    assert trace.processes() == ["shard1"]


def test_add_remote_prefix_overrides_namespace():
    trace = Trace("t1")
    trace.add_remote(_fragment("t1"), process="shard0", prefix="q000001")
    ids = sorted(span.span_id for span in trace.spans())
    assert ids == ["q000001:sp0", "q000001:sp1"]
    assert all(span.process == "shard0" for span in trace.spans())


def test_add_remote_rebases_offsets_through_epochs():
    trace = Trace("t1")
    # A fragment whose process started 5s after this trace's origin.
    trace.add_remote(_fragment("t1", epoch_offset=5.0), process="shard1")
    starts = sorted(span.start for span in trace.spans())
    assert 4.9 < starts[0] < 5.2


def test_add_remote_truncated_flags_every_span():
    trace = Trace("t1")
    trace.add_remote(_fragment("t1"), process="shard1", truncated=True)
    assert all(span.attrs.get("truncated") for span in trace.spans())


def test_add_remote_garbage_is_harmless():
    trace = Trace("t1")
    assert trace.add_remote(None, process="shard1") == 0
    assert trace.add_remote("nope", process="shard1") == 0
    assert trace.add_remote({"spans": [{"start_ms": "bad"}]},
                            process="shard1") == 0
    assert trace.spans() == []


def test_mark_process_truncated():
    trace = Trace("t1")
    trace.add_span("route", trace.origin, trace.origin + 0.001)
    trace.add_remote(_fragment("t1"), process="shard1")
    flagged = trace.mark_process_truncated("shard1")
    assert flagged == 2
    for span in trace.spans():
        if span.process == "shard1":
            assert span.attrs["truncated"] is True
        else:
            assert "truncated" not in span.attrs


def test_snapshot_isolates_stitching():
    trace = Trace("t1")
    trace.add_span("route", trace.origin, trace.origin + 0.001)
    first = trace.snapshot()
    first.add_remote(_fragment("t1"), process="shard1")
    assert len(first.spans()) == 3
    assert len(trace.spans()) == 1  # the stored trace is untouched
    second = trace.snapshot()
    second.add_remote(_fragment("t1"), process="shard1")
    assert len(second.spans()) == 3  # no accumulation across snapshots


def test_chrome_lanes_are_deterministic():
    trace = Trace("t1")
    trace.add_span("route", trace.origin, trace.origin + 0.001)
    trace.add_remote(_fragment("t1"), process="shard1")
    trace.add_remote(_fragment("t1"), process="shard0", prefix="other")
    chrome = trace.to_chrome()
    meta = {(e["args"]["name"], e["pid"]) for e in chrome
            if e["name"] == "process_name"}
    assert ("coordinator", 0) in meta
    assert ("shard0", 1) in meta
    assert ("shard1", 2) in meta
    pids = {e["pid"] for e in chrome if e["ph"] == "X"}
    assert pids == {0, 1, 2}
    # Determinism: an identical trace exports identical lane numbering.
    assert chrome == trace.to_chrome()


def test_single_process_chrome_shape_unchanged():
    trace = Trace("q7")
    trace.add_span("execute", trace.origin, trace.origin + 0.004, nodes=2)
    process_meta, thread_meta, event = trace.to_chrome()
    assert process_meta["args"]["name"] == "repro query q7"
    assert thread_meta["name"] == "thread_name"
    assert event["ph"] == "X" and event["args"] == {"nodes": 2}
