"""Subprocess half of the SIGKILL crash harness.

``python -m repro.storage.crash_driver <data_dir> [--sync MODE] [--steps N]
[--checkpoint-at K]`` opens a durable platform over ``data_dir`` and runs a
deterministic mixed workload (uploads, derived views, appends, shares,
queries, quota changes, a delete, a macro).  After every committed step it
prints one flushed line::

    MILESTONE <lsn> <digest>

where ``digest`` is the canonical state digest at that instant.  The parent
test (``tests/storage/test_crash_recovery.py``) SIGKILLs this process at an
arbitrary point mid-stream, recovers the data directory with
``up_to_lsn=<lsn>`` for the last milestone it managed to read, and requires
digest equality — byte-equivalence with the last committed state.

After the final step the driver prints ``DONE`` and exits 0, so the same
entry point also serves the CI recovery-smoke job (which kills it by
timetable rather than luck).
"""

import argparse
import sys

from repro.storage.manager import StorageManager


def _workload_steps(platform):
    """Yield (description, thunk) pairs; each thunk commits >= 1 mutation."""
    # The query log is part of the state digest and records wall-clock
    # ``exec_seconds``.  Pinning it makes every milestone digest a function
    # of the step sequence alone, so digests from two driver processes are
    # comparable (the superset test relies on that).
    timing = {"exec_seconds": 0.0}
    rows = "id,species,count\n1,coho,14\n2,chinook,3\n3,chum,25\n"
    more = "id,species,count\n4,sockeye,9\n5,pink,40\n"
    yield "upload-a", lambda: platform.upload(
        "alice", "Salmon Counts", rows, description="field survey",
        tags=["fish", "survey"])
    yield "upload-b", lambda: platform.upload(
        "bob", "Gene List", "gene,score\nBRCA1,0.9\nTP53,0.7\n")
    yield "derive", lambda: platform.create_dataset(
        "alice", "Big Runs",
        "SELECT species, count FROM [Salmon Counts] WHERE count > 10")
    yield "share", lambda: platform.share("alice", "Big Runs", "bob")
    yield "public", lambda: platform.make_public("bob", "Gene List")
    yield "query-1", lambda: platform.run_query(
        "alice", "SELECT * FROM [Big Runs]", log_extra=timing)
    yield "append", lambda: platform.append("alice", "Salmon Counts", more)
    yield "quota", lambda: platform.quotas.set_limit("carol", 1024 * 1024)
    yield "upload-c", lambda: platform.upload(
        "carol", "Temp Upload", "x,y\n1,2\n3,4\n")
    yield "query-2", lambda: platform.run_query(
        "bob", "SELECT gene FROM [Gene List] WHERE score > 0.8",
        log_extra=timing)
    yield "macro", lambda: platform.macros.define(
        "alice", "top_counts", "SELECT * FROM $t WHERE count > $n")
    yield "describe", lambda: platform.set_description(
        "alice", "Big Runs", "runs over ten fish")
    yield "tags", lambda: platform.add_tags("alice", "Big Runs", ["rivers"])
    yield "materialize", lambda: platform.materialize(
        "bob", "Gene Snapshot", "Gene List")
    yield "delete", lambda: platform.delete_dataset("carol", "Temp Upload")
    yield "doi", lambda: platform.mint_doi("bob", "Gene Snapshot")
    yield "query-3", lambda: platform.run_query(
        "bob", "SELECT COUNT(*) AS n FROM [Gene Snapshot]", log_extra=timing)
    yield "unshare", lambda: platform.unshare("alice", "Big Runs", "bob")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.storage.crash_driver")
    parser.add_argument("data_dir")
    parser.add_argument("--sync", choices=["buffered", "fsync"],
                        default="buffered")
    parser.add_argument("--steps", type=int, default=0,
                        help="stop after N steps (0 = run all)")
    parser.add_argument("--start-at", type=int, default=1,
                        help="skip steps below this number (resume a "
                             "recovered directory where they already ran)")
    parser.add_argument("--checkpoint-at", type=int, default=0,
                        help="force a checkpoint after this step number "
                             "(0 = never)")
    args = parser.parse_args(argv)

    manager = StorageManager(args.data_dir, sync=args.sync)
    if manager.has_state():
        platform, _report = manager.recover()
    else:
        from repro.core.sqlshare import SQLShare

        platform = manager.attach(SQLShare())

    for number, (name, thunk) in enumerate(_workload_steps(platform), 1):
        if number < args.start_at:
            continue
        if args.steps and number > args.steps:
            break
        thunk()
        if args.checkpoint_at and number == args.checkpoint_at:
            manager.checkpoint()
        # The milestone line itself is the commit acknowledgment the parent
        # reads; stdout must be flushed before the next step can tear.
        print("MILESTONE %d %s %s"
              % (manager.wal.last_lsn, manager.digest(), name))
        sys.stdout.flush()
    print("DONE")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
