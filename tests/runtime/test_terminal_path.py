"""One terminal path: however a job ends — success, failure, timeout, or
cancellation while still queued — each per-query record is written once."""

import sys
import threading

import pytest

from repro.core.sqlshare import SQLShare
from repro.obs import events
from repro.runtime import (
    CANCELLED,
    FAILED,
    QueryRuntime,
    RuntimeConfig,
    SUCCEEDED,
    TIMED_OUT,
)

CSV = "site,temp\nA,10.5\nB,11.0\nC,12.5\n"
#: A triple self cross-join over 120 rows runs for seconds: a per-job
#: timeout of a few milliseconds always cuts it off.
SLOW_SQL = "SELECT COUNT(*) AS n FROM big a, big b, big c"
OUTCOMES = (SUCCEEDED, FAILED, TIMED_OUT, CANCELLED)


@pytest.fixture
def platform():
    share = SQLShare()
    share.upload("alice", "obs", CSV)
    share.upload("alice", "big",
                 "n\n" + "".join("%d\n" % i for i in range(120)))
    return share


@pytest.fixture
def event_ring():
    log = events.configure()  # fresh in-memory ring
    yield log
    events.configure()


def manual_runtime(platform):
    """No worker threads: default submissions run inline, ``inline=False``
    ones wait in the queue until cancelled."""
    return QueryRuntime(platform, RuntimeConfig(max_workers=0))


def finish_outcomes(ring, job):
    return [record["outcome"] for record in ring.recent(event="finish")
            if record.get("job_id") == job.job_id]


def test_queue_cancel_emits_finish_and_observes_queue_wait(
        platform, event_ring):
    runtime = manual_runtime(platform)
    queued = runtime.submit("alice", "SELECT site FROM obs", inline=False)
    runtime.submit("alice", "SELECT temp FROM obs")
    runtime.cancel(queued.job_id)
    assert [record["job_id"] for record in event_ring.recent(event="submit")
            ].count(queued.job_id) == 1
    assert finish_outcomes(event_ring, queued) == [CANCELLED]
    snap = platform.metrics.snapshot()
    assert snap["repro_scheduler_queue_seconds_count"] == 2.0
    # Never dispatched, so it has no execution time to observe.
    assert snap["repro_scheduler_exec_seconds_count"] == 1.0


def test_every_outcome_writes_each_record_once(platform, event_ring):
    runtime = manual_runtime(platform)
    store = runtime.query_store
    recorded = store.recorded
    logged = len(platform.log.entries)
    jobs = [
        runtime.submit("alice", "SELECT site FROM obs"),
        runtime.submit("alice", "SELECT nope FROM obs"),
        runtime.submit("alice", SLOW_SQL, timeout=0.005),
        runtime.submit("alice", "SELECT temp FROM obs", inline=False),
    ]
    runtime.cancel(jobs[-1].job_id)
    assert tuple(job.state for job in jobs) == OUTCOMES

    for job in jobs:
        assert finish_outcomes(event_ring, job) == [job.state]
    assert store.recorded - recorded == len(jobs)
    entries = platform.log.entries[logged:]
    assert sorted(entry.outcome for entry in entries) == sorted(OUTCOMES)

    snap = platform.metrics.snapshot()
    for outcome in OUTCOMES:
        assert snap['repro_scheduler_jobs_finished_total{outcome="%s"}'
                    % outcome] == 1.0
    failed = {key: value for key, value in snap.items()
              if key.startswith("repro_queries_failed_total{")}
    assert failed == {
        'repro_queries_failed_total{error_class="semantic"}': 1.0,
        'repro_queries_failed_total{error_class="timeout"}': 1.0,
        'repro_queries_failed_total{error_class="cancelled"}': 1.0,
    }

    stats = runtime.stats()
    assert stats["finished"] == {outcome: 1 for outcome in OUTCOMES}
    assert stats["running"] == 0 and stats["queued"] == 0


def test_cancels_racing_workers_end_each_job_once(platform, event_ring):
    """Clients cancel while workers dispatch: whichever side ends a job,
    it ends once, and the running/queued counts return to zero."""
    runtime = QueryRuntime(platform, RuntimeConfig(
        max_workers=4, per_user_max_concurrent=1, per_user_queue_depth=64))
    store = runtime.query_store
    recorded = store.recorded
    submitted = []
    lock = threading.Lock()
    errors = []

    def client(user):
        try:
            for i in range(20):
                job = runtime.submit(user, "SELECT site FROM obs WHERE "
                                     "temp > %d" % i, inline=False)
                with lock:
                    submitted.append(job)
                if i % 2:
                    runtime.cancel(job.job_id)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=("u%d" % n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        for job in submitted:
            job.wait(timeout=30.0)
    finally:
        sys.setswitchinterval(previous)
        runtime.shutdown()
    assert errors == []
    assert len(submitted) == 120 and all(job.done for job in submitted)
    for job in submitted:
        assert finish_outcomes(event_ring, job) == [job.state]
    assert store.recorded - recorded == len(submitted)
    stats = runtime.stats()
    assert sum(stats["finished"].values()) == len(submitted)
    assert stats["running"] == 0 and stats["queued"] == 0
