"""Self-test of the benchmark itself (not of the program).

    python3 benchmarks/e2e/selftest.py --quick

Runs every workload for one second, so its numbers are NOT COMPARABLE with
anything; what it checks is the benchmark's own contract:

- same seed, byte-identical op streams; another seed, other streams;
- the metric and workload names a run prints are exactly those declared
  in BENCHMARK.json, each with a unit, a direction and (end-to-end) a
  bound within the driver's limits;
- the clients spend under 5 % of their time outside the program;
- a run records commit, seed, nproc, Python version, load and flush policy;
- a boundary deleted from the tracer's table costs one warning and nulls
  that layer's metrics, and nothing else;
- a corrupted golden digest, a lost append and a flipped WAL byte are each
  reported as a failure.
"""

import argparse
import concurrent.futures
import json
import os
import random
import re
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
import harness  # noqa: E402
import layers  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402

QUICK_SECONDS = 1.0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_checks = []


def check(label, condition, detail=""):
    _checks.append((label, bool(condition)))
    print("%-4s %s%s" % ("ok" if condition else "FAIL", label,
                         "  (%s)" % detail if detail and not condition else ""))


def check_streams():
    """Another seed gives other streams (that one seed gives the same
    bytes in two processes is checked on the runs, below)."""
    for cls in workloads.WORKLOADS:
        workload = cls()
        workload.build()
        check("%s: another seed, other bytes" % cls.name,
              harness.stream_digest(workload.streams(7))
              != harness.stream_digest(workload.streams(8)))


def check_spec(spec):
    names = [entry["name"] for entry in spec["workloads"]]
    check("workloads in BENCHMARK.json are the ones defined",
          names == [cls.name for cls in workloads.WORKLOADS], str(names))
    seen = set()
    for entry in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        check("name %s is well-formed and used once" % entry["name"],
              NAME_RE.match(entry["name"]) and entry["name"] not in seen)
        seen.add(entry["name"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        check("%s has a unit and a direction" % entry["name"],
              UNIT_RE.match(entry.get("unit", ""))
              and entry.get("better") in ("lower", "higher"))
    for entry in spec["end_to_end"]:
        check("%s has a bound in (0, 0.25]" % entry["name"],
              0 < entry.get("bound", 0) <= 0.25)
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    check("setup_s is an end-to-end metric in seconds, lower is better",
          setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower")
    check("setup_s has the largest bound",
          setup and setup[0]["bound"] == max(
              e["bound"] for e in spec["end_to_end"]))


def check_runs(spec):
    """One untraced and one traced run per workload, two at a time."""
    jobs = [(entry["name"], traced) for entry in spec["workloads"]
            for traced in (False, True)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(
            lambda job: run.run_in_subprocess(job[0], 7, QUICK_SECONDS,
                                              job[1]), jobs))
    digests = {}
    for (name, traced), (lines, result) in zip(jobs, outcomes):
        kind = "per_layer" if traced else "end_to_end"
        digests.setdefault(name, []).extend(
            line.split()[-1] for line in lines if "op streams sha256" in line)
        if result is None:
            check("%s: %s run printed a result" % (name, kind), False)
            continue
        check("%s: %s run is correct and exits 0" % (name, kind),
              result["correct"] and result["exit_code"] == 0
              and result["failed"] == 0 and result["attempted"] >= 1,
              "; ".join(line for line in lines if line.startswith("FAIL")))
        check("%s: %s metric names are the declared ones" % (name, kind),
              set(result["metrics"]) == {e["name"] for e in spec[kind]})
        if traced:
            share = result["metrics"]["diag.generator_share"]
            check("%s: clients spend < 5 %% outside the program" % name,
                  share < 0.05, "%.4f" % share)
        else:
            check("%s: every end-to-end metric is above zero" % name,
                  all(value > 0 for value in result["metrics"].values()))
    for name, seen in digests.items():
        check("%s: same seed, same bytes in two processes" % name,
              len(seen) == 2 and seen[0] == seen[1], str(seen))


def check_environment():
    env = harness.environment(run.ROOT)
    check("a run records commit, nproc, python, load and flush policy",
          all(key in env for key in ("commit", "nproc", "python", "loadavg",
                                     "flush_policy")), str(sorted(env)))


def short_run(name, tracer=None, seed=7):
    """Set up and run ``name`` for a second in this process."""
    workload = workloads.by_name(name)
    ctx, streams, positions, warm, _ = run.set_up(workload, seed, tracer)
    timed, before, after = run.timed_phase(
        ctx, workload, streams, positions, warm, QUICK_SECONDS, tracer)
    return workload, ctx, warm, timed, before, after


def finish(ctx):
    ctx.close()
    shutil.rmtree(ctx.data_dir, ignore_errors=True)


def check_tracer_resilience():
    """Delete one boundary from the table: one warning, one null layer."""
    broken = [(layer, name,
               "repro.engine.parser.no_such_function"
               if layer == "engine.parser" else dotted, before, after)
              for layer, name, dotted, before, after in tracing.BOUNDARIES]
    warnings = []
    tracer = tracing.Tracer(warn=warnings.append)
    tracer.install(broken)
    tracer.enabled = True
    try:
        workload, ctx, warm, timed, before, after = short_run(
            "analytic_scan", tracer)
        try:
            metrics = layers.layer_metrics(ctx, tracer, warm, timed,
                                           before, after)
            failures = workload.check(
                ctx, timed.records, run.load_golden(workload.name))
        finally:
            finish(ctx)
    finally:
        tracer.uninstall()
    check("a missing boundary warns exactly once", len(warnings) == 1,
          str(warnings))
    check("a missing boundary nulls its layer's metrics",
          metrics["engine.parser.busy_s"] is None
          and metrics["engine.parser.calls"] is None)
    check("a missing boundary leaves the other layers measured",
          metrics["engine.executor.busy_s"] > 0
          and metrics["engine.planner.busy_s"] > 0)
    check("a missing boundary fails nothing",
          timed.records and not failures)


def check_sabotage():
    """Each kind of wrong output must be reported."""
    workload, ctx, _, timed, _, _ = short_run("analytic_scan")
    try:
        golden = run.load_golden(workload.name)
        clean = workload.check(ctx, timed.records, golden)
        victim = timed.records[0].op.key
        golden[victim] = golden[victim][:-1] + (
            "0" if golden[victim][-1] != "0" else "1")
        failures = workload.check(ctx, timed.records, golden)
    finally:
        finish(ctx)
    check("golden digests match on a clean run", not clean, str(clean[:1]))
    check("a corrupted golden digest is reported", len(failures) >= 1)

    workload, ctx, _, timed, _, _ = short_run("shared_views_rw")
    try:
        # Drop one acknowledged append from the books: the table now holds
        # five rows more than the benchmark expects.
        text = "\n".join([workload.HEADER] + workload._rows(
            random.Random(1), 900001, workload.APPEND_ROWS)) + "\n"
        lost = harness.OpRecord(harness.json_op(
            harness.WRITE, "POST", "/api/v1/dataset/pub_00/append",
            workload._owner(0), {"data": text}, key=0))
        harness.run_op(ctx.app, lost.op, lost)
        _, failures = workload.finish(ctx, None)
    finally:
        finish(ctx)
    check("an append the books do not know is reported",
          lost.ok and any("pub_00" in line for line in failures),
          str(failures[:2]))

    from repro.storage import faults

    workload, ctx, _, timed, _, _ = short_run("ingest_durable")
    try:
        # Hurt the last *acknowledged* record: past the torn half-record
        # the crash leaves, well inside the one before it.
        _, failures = workload.finish(
            ctx, None, damage=lambda path: faults.flip_byte(path, -200))
    finally:
        finish(ctx)
    check("a flipped byte in the WAL tail is reported", len(failures) >= 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="accepted for symmetry; the self-test is "
                        "always the quick, non-comparable kind")
    parser.parse_args(argv)
    started = time.monotonic()
    spec = run.benchmark_spec()
    print("self-test: %.0f s runs, numbers NOT COMPARABLE" % QUICK_SECONDS)
    print("env %s" % json.dumps(harness.environment(run.ROOT), sort_keys=True))
    check_spec(spec)
    check_environment()
    check_streams()
    check_runs(spec)
    check_tracer_resilience()
    check_sabotage()
    failed = [label for label, passed in _checks if not passed]
    print("%d checks, %d failed, %.1f s"
          % (len(_checks), len(failed), time.monotonic() - started))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
