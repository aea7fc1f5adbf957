"""The query runtime service (scheduler + cancellation + result cache).

``repro.runtime`` owns the lifecycle of every query: jobs move through a
validated state machine (QUEUED -> RUNNING -> SUCCEEDED/FAILED/CANCELLED/
TIMED_OUT), a bounded worker pool dispatches them fairly across users with
per-user admission control, cooperative cancellation stops work mid-scan,
and a versioned result cache serves repeated queries without execution.
See DESIGN.md's "Query runtime" section for the full picture.
"""

from repro.runtime.batch import BatchLane, mydb_dataset_name
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.cancellation import CancellationToken
from repro.runtime.job import (
    CANCELLED,
    FAILED,
    InvalidTransition,
    QUEUED,
    QueryJob,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    TIMED_OUT,
)
from repro.runtime.scheduler import QueryRuntime, RuntimeConfig

__all__ = [
    "BatchLane",
    "mydb_dataset_name",
    "CacheStats",
    "CancellationToken",
    "InvalidTransition",
    "QueryJob",
    "QueryRuntime",
    "ResultCache",
    "RuntimeConfig",
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "TIMED_OUT",
    "TERMINAL_STATES",
]
