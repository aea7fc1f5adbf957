"""The append-only, CRC-framed write-ahead log.

Every committed platform mutation (and every query-log record) is framed
and appended here before the operation is acknowledged to the caller, so a
crash at any instant loses at most work that was never acknowledged.  The
format is deliberately boring:

``file  := magic record*``
``magic := b"RPWAL001"``  (8 bytes)
``record := length:u32 crc:u32 payload``  (little-endian header)

``payload`` is UTF-8 JSON carrying a monotonically increasing ``lsn`` plus
an operation envelope (see :mod:`repro.storage.manager`).  ``crc`` is the
CRC-32 of the payload bytes; ``length`` is its byte count.  A torn or
truncated tail — short header, short payload, or CRC mismatch — marks the
end of the recoverable log: replay drops the tail with a warning instead of
failing, which is exactly the contract a kill -9 mid-``write`` requires.

Two durability modes:

- ``"buffered"`` — ``write`` + ``flush``: bytes reach the OS page cache,
  so they survive the *process* dying (SIGKILL) but not the machine;
- ``"fsync"`` — additionally ``os.fsync`` per append: survives power loss
  at a large per-commit latency cost.  The repo benchmark runs
  ``buffered``; its ``ingest_durable`` workload reports the WAL's cost
  (``storage.wal.*``).
"""

import json
import logging
import os
import struct
import threading
import zlib

from repro.storage.serialize import json_default, json_object_hook

logger = logging.getLogger("repro.storage")

MAGIC = b"RPWAL001"
_HEADER = struct.Struct("<II")

#: Accepted values for :class:`WriteAheadLog`'s ``sync`` argument.
SYNC_MODES = ("buffered", "fsync")


class WalCorruptionError(Exception):
    """The log is unusable beyond tail-tearing (bad magic)."""


class ReplaySummary(object):
    """What a :func:`replay` pass observed."""

    __slots__ = ("records", "torn_records", "torn_bytes", "last_lsn",
                 "valid_bytes")

    def __init__(self):
        self.records = 0
        #: Tail records dropped for short/corrupt framing (0 or 1 for a
        #: single torn write; more only if the medium scrambled the tail).
        self.torn_records = 0
        self.torn_bytes = 0
        self.last_lsn = 0
        #: File offset just past the last valid record — where an appender
        #: must resume after trimming a torn tail.
        self.valid_bytes = 0

    def to_dict(self):
        return {
            "records": self.records,
            "torn_records": self.torn_records,
            "torn_bytes": self.torn_bytes,
            "last_lsn": self.last_lsn,
        }


def frame(payload_bytes):
    """Header + payload for one record."""
    return _HEADER.pack(len(payload_bytes), zlib.crc32(payload_bytes)) + payload_bytes


def replay(path, summary=None):
    """Yield decoded record dicts from a WAL file, tolerant of torn tails.

    Anything after the first bad frame is dropped (counted on ``summary``):
    a torn write tears the *tail*, so no valid record can follow it.  A
    missing file replays as empty.
    """
    summary = summary if summary is not None else ReplaySummary()
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return
    with handle:
        magic = handle.read(len(MAGIC))
        if not magic:
            return
        if magic != MAGIC:
            raise WalCorruptionError("%s: bad WAL magic %r" % (path, magic))
        summary.valid_bytes = len(MAGIC)
        while True:
            header = handle.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                summary.torn_records += 1
                summary.torn_bytes += len(header) + _remaining(handle)
                logger.warning("%s: dropping torn WAL tail (short header)", path)
                return
            length, crc = _HEADER.unpack(header)
            payload = handle.read(length)
            trailing = _remaining(handle) if len(payload) < length else 0
            if len(payload) < length or zlib.crc32(payload) != crc:
                summary.torn_records += 1
                summary.torn_bytes += _HEADER.size + len(payload) + trailing
                logger.warning(
                    "%s: dropping torn WAL tail (%s)", path,
                    "short payload" if len(payload) < length else "CRC mismatch")
                return
            try:
                record = json.loads(payload.decode("utf-8"),
                                    object_hook=json_object_hook)
            except ValueError:
                summary.torn_records += 1
                summary.torn_bytes += _HEADER.size + len(payload)
                logger.warning("%s: dropping undecodable WAL tail", path)
                return
            summary.records += 1
            summary.last_lsn = max(summary.last_lsn, record.get("lsn", 0))
            summary.valid_bytes = handle.tell()
            yield record


def _remaining(handle):
    position = handle.tell()
    handle.seek(0, os.SEEK_END)
    end = handle.tell()
    handle.seek(position)
    return end - position


class WriteAheadLog(object):
    """Append-only log writer with per-record CRC framing.

    Thread-safe: appends from the platform's mutators and the runtime's
    query-log listener serialize on an internal lock, so record order on
    disk matches commit order.  ``opener`` is an injection point for the
    fault harness (:mod:`repro.storage.faults`).
    """

    def __init__(self, path, sync="buffered", opener=open):
        if sync not in SYNC_MODES:
            raise ValueError("sync must be one of %s, not %r" % (SYNC_MODES, sync))
        self.path = str(path)
        self.sync = sync
        self._opener = opener
        self._lock = threading.Lock()
        self._handle = None
        self.appends = 0
        self.bytes_written = 0
        # Resume the LSN sequence past whatever the file already holds,
        # and trim any torn tail so new appends extend the valid prefix
        # (a record appended after garbage would be unreachable to replay).
        summary = ReplaySummary()
        for _record in replay(self.path, summary):
            pass
        self._lsn = summary.last_lsn
        #: Torn-tail damage found (and trimmed) when this writer opened the
        #: file — recovery folds these into its report.
        self.torn_records_trimmed = summary.torn_records
        self.torn_bytes_trimmed = summary.torn_bytes
        if summary.torn_records:
            logger.warning("%s: trimming %d torn byte(s) off the WAL tail",
                           self.path, summary.torn_bytes)
            os.truncate(self.path, summary.valid_bytes)

    @property
    def last_lsn(self):
        return self._lsn

    def set_lsn_floor(self, lsn):
        """Never assign an LSN at or below ``lsn`` (used after recovery so
        post-recovery records sort after everything already replayed)."""
        with self._lock:
            self._lsn = max(self._lsn, lsn)

    def append(self, record):
        """Frame, write and (per the sync mode) flush one record dict.

        Assigns and returns the record's LSN.  The record is mutated to
        carry it (``record["lsn"]``).
        """
        with self._lock:
            self._lsn += 1
            record["lsn"] = self._lsn
            payload = json.dumps(
                record, default=json_default, sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
            framed = frame(payload)
            handle = self._ensure_open_locked()
            handle.write(framed)
            handle.flush()
            if self.sync == "fsync":
                # Intentional fsync-under-lock: on-disk record order must
                # match commit order, so the sync serializes with the write.
                os.fsync(handle.fileno())  # selfcheck: ok[SELFCHECK003]
            self.appends += 1
            self.bytes_written += len(framed)
            return self._lsn

    def _ensure_open_locked(self):
        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._handle = self._opener(self.path, "ab")
            if fresh:
                self._handle.write(MAGIC)
                self._handle.flush()
                if self.sync == "fsync":
                    # Intentional: the magic must be durable before any
                    # record that follows it.
                    os.fsync(self._handle.fileno())  # selfcheck: ok[SELFCHECK003]
        return self._handle

    def truncate(self, keep_after_lsn=None):
        """Compact the log after a successful checkpoint.

        Records with LSN at or below ``keep_after_lsn`` are dropped (the
        snapshot covers them); later ones — appended concurrently while the
        checkpoint serialized — are rewritten into the fresh log.  With
        ``keep_after_lsn=None`` everything goes.  The rewrite lands in a
        temp file first and is renamed into place, so a crash mid-truncate
        leaves either the old log (whose covered prefix recovery skips by
        LSN) or the compacted one — never a torn log.

        The LSN sequence keeps counting either way — records written after
        a checkpoint still sort after the checkpoint's ``last_lsn``.
        """
        with self._lock:
            survivors = []
            if keep_after_lsn is not None:
                survivors = [record for record in replay(self.path)
                             if record.get("lsn", 0) > keep_after_lsn]
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            tmp_path = self.path + ".tmp"
            with self._opener(tmp_path, "wb") as handle:
                handle.write(MAGIC)
                for record in survivors:
                    payload = json.dumps(
                        record, default=json_default, sort_keys=True,
                        separators=(",", ":"),
                    ).encode("utf-8")
                    handle.write(frame(payload))
                handle.flush()
                if self.sync == "fsync":
                    # Intentional: the compacted file must be durable
                    # before it replaces the live log.
                    os.fsync(handle.fileno())  # selfcheck: ok[SELFCHECK003]
            os.replace(tmp_path, self.path)

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def size_bytes(self):
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
