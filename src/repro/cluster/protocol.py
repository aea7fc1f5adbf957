"""The coordinator <-> worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Values round-trip through the same tagged encoding the
snapshot/WAL layer uses (:mod:`repro.storage.serialize`), so datetimes and
decimals inside result rows survive the hop between processes unchanged.

The protocol is strictly request/response per frame and a connection may
carry any number of requests, which is what the coordinator's pooled
per-shard connection relies on.  Frames are capped at
:data:`MAX_FRAME_BYTES` — a malformed or runaway peer fails fast
instead of making the receiver allocate gigabytes.

Distributed tracing rides in-band: a request frame may carry a
``"trace"`` key (``{"id": ..., "parent": <span id>, "sampled": bool}``,
see :class:`~repro.obs.tracing.TraceContext`) attached with
:func:`attach_trace`; a traced worker replies with its span fragment
under the reply's ``"trace"`` key.  Untraced frames pay nothing.
"""

import json
import socket
import struct

from repro.obs.tracing import TraceContext
from repro.storage.serialize import json_default, json_object_hook

#: Frame key the trace context (requests) / span fragment (replies)
#: travels under.
TRACE_KEY = "trace"

#: Hard ceiling on one frame (requests and responses alike).  Large query
#: results at bench scale stay well under this; anything bigger is a bug.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


def attach_trace(message, context):
    """A copy of ``message`` carrying ``context``; the original message
    untouched (and returned as-is for a None context)."""
    if context is None:
        return message
    message = dict(message)
    message[TRACE_KEY] = context.to_wire()
    return message


def extract_trace(message):
    """The :class:`TraceContext` a frame carries, or None (malformed
    context is treated as absent — tracing must never fail a frame)."""
    if not isinstance(message, dict):
        return None
    return TraceContext.from_wire(message.get(TRACE_KEY))


class ProtocolError(Exception):
    """The peer sent bytes that are not a valid frame."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (mid-frame or between frames)."""


def encode_frame(message):
    """One message as wire bytes (header + JSON payload)."""
    payload = json.dumps(message, default=json_default,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d-byte cap"
                            % (len(payload), MAX_FRAME_BYTES))
    return _HEADER.pack(len(payload)) + payload


def send_message(sock, message):
    """Write one frame; raises ConnectionClosed on a broken pipe."""
    try:
        sock.sendall(encode_frame(message))
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise ConnectionClosed("send failed: %s" % exc) from exc


def _recv_exact(sock, count):
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionClosed("recv failed: %s" % exc) from exc
        if not chunk:
            raise ConnectionClosed(
                "connection closed with %d of %d bytes outstanding"
                % (remaining, count))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock):
    """Read one frame; raises ConnectionClosed / ProtocolError."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("peer announced a %d-byte frame (cap %d)"
                            % (length, MAX_FRAME_BYTES))
    payload = _recv_exact(sock, length)
    try:
        return json.loads(payload.decode("utf-8"),
                          object_hook=json_object_hook)
    except ValueError as exc:
        raise ProtocolError("frame payload is not valid JSON: %s" % exc) from exc


class ShardConnection(object):
    """One persistent client connection to a worker's protocol socket.

    Not thread-safe by itself; the coordinator guards its pooled
    connection with a lock.
    """

    def __init__(self, port, host="127.0.0.1", timeout=30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = None

    def connect(self):
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def call(self, message):
        """One request/response round trip (connects lazily)."""
        sock = self.connect()
        send_message(sock, message)
        return recv_message(sock)

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
