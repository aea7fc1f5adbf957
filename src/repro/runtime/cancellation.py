"""Cooperative cancellation: the token the executor polls mid-scan.

A :class:`CancellationToken` is attached to every query job.  The engine's
pull-based iterators call ``ExecutionContext.tick()`` per row, which polls
the token every ``CANCEL_CHECK_ROWS`` rows — so an explicit cancel or an
elapsed statement timeout stops work inside a scan or join, not just
between result rows.
"""

import threading
import time

from repro.errors import QueryCancelled, QueryTimeout


class CancellationToken(object):
    """Thread-safe cancel/deadline flag shared by a job and its worker.

    ``cancel()`` may be called from any thread; the executing thread polls
    :meth:`raise_if_cancelled` (via ``ExecutionContext.tick``), which raises
    :class:`QueryTimeout` when the monotonic deadline has passed and
    :class:`QueryCancelled` when an explicit cancel was requested.
    """

    __slots__ = ("_event", "_deadline", "_reason")

    def __init__(self, timeout=None):
        self._event = threading.Event()
        self._deadline = None
        self._reason = None
        if timeout is not None:
            self.set_deadline(timeout)

    def cancel(self, reason="cancelled"):
        """Request cooperative cancellation (idempotent)."""
        self._reason = self._reason or reason
        self._event.set()

    def set_deadline(self, seconds):
        """Start the statement timeout clock: ``seconds`` from now."""
        self._deadline = time.monotonic() + seconds

    @property
    def cancelled(self):
        return self._event.is_set()

    def raise_if_cancelled(self):
        """Raise QueryCancelled/QueryTimeout if cancel or timeout is due."""
        if self._event.is_set():
            raise QueryCancelled("query cancelled: %s" % (self._reason or "cancelled"))
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout("query exceeded its statement timeout")
