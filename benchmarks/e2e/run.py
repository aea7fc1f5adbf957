"""End-to-end benchmark of the SQLShare service: one command, four workloads.

Run every workload (each in a fresh subprocess), check outputs and print
every end-to-end metric by name with its unit::

    python3 benchmarks/e2e/run.py --seed 42            # untraced set
    python3 benchmarks/e2e/run.py --seed 42 --trace 1  # per-layer numbers

One workload, as the driver runs it (the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``)::

    python3 benchmarks/e2e/run.py --workload adhoc_log --seed 7 \\
        --seconds 15 --trace 0

``--regen-golden`` rewrites the committed golden digests from the engine
under test; nothing else ever does.  See README.md beside this file.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import trace as tracing  # noqa: E402
import workloads  # noqa: E402
from harness import ADMIN, CLIENTS, ROOT, benchmark_spec  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))

WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_DIR = os.path.join(HERE, "golden")

#: Set-up is repeated, and its median reported, while it is cheap: until
#: the repeats have cost this many seconds or there are MAX_SETUPS of them.
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 5

#: Before the driver's line a run prints its result as measured, with
#: ``null`` for what does not apply; a set reads that line.
RESULT_TAG = "result "


def load_golden(name):
    path = os.path.join(GOLDEN_DIR, name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


class Context(object):
    """One live deployment of the program under a workload."""

    def __init__(self, workload, data_dir, platform):
        from repro.runtime import RuntimeConfig
        from repro.server.rest import SQLShareApp
        from repro.storage import StorageManager

        self.workload = workload
        self.data_dir = data_dir
        # As `repro serve --data-dir` does: every mutation and every query
        # log record goes through the WAL, flush policy "buffered".
        self.manager = StorageManager(data_dir, sync="buffered",
                                      **workload.storage_options())
        self.manager.adopt(platform)
        self.platform = platform
        self.app = SQLShareApp(
            platform, run_async=True,
            runtime_config=RuntimeConfig(max_workers=CLIENTS,
                                         **workload.config))
        self.all_records = []
        self.stale_served = None
        self.recovery = None

    def query(self, user, sql, profile=False):
        """Run one read through the REST path; the payload, or None."""
        record = harness.OpRecord(None)
        harness.run_op(self.app, harness.query_op(user, sql, profile=profile),
                       record)
        return json.loads(record.data) if record.ok else None

    def close(self):
        self.app.runtime.shutdown()
        self.manager.close()


def data_dir_of(name):
    """Inside the checkout, like everything else a run writes."""
    return os.path.join(WORK_DIR, "%s-%d" % (name, os.getpid()))


def set_up(workload, seed, tracer, streams=None):
    """Build, make durable, warm up.  Returns (ctx, streams, positions,
    warm-up records, set-up seconds); a repeated set-up is handed the
    ``streams`` of the first."""
    data_dir = data_dir_of(workload.name)
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    started = time.monotonic()
    platform = workload.build()
    built = time.monotonic()
    # Generating the traffic is the benchmark's work, not the program's.
    if streams is None:
        streams = workload.streams(seed)
    generated = time.monotonic()
    ctx = Context(workload, data_dir, platform)
    positions = [0] * len(streams)
    warm = harness.run_closed_loop(
        ctx.app, streams, positions, max_ops=workload.warm_ops,
        wraps=workload.wraps, tracer=tracer)
    seconds = (time.monotonic() - generated) + (built - started)
    return ctx, streams, positions, warm, seconds


def timed_phase(ctx, workload, streams, positions, warm, seconds, tracer):
    """The measured phase; returns its records and the program's own
    counters before and after it."""
    if tracer is not None:
        tracer.phase = "timed"
    before = ctx.app.runtime.stats()
    timed = harness.run_closed_loop(
        ctx.app, streams, positions, seconds=seconds,
        wraps=workload.wraps, tracer=tracer)
    after = ctx.app.runtime.stats()
    for record in warm.records:
        record.data = b""
    ctx.all_records = warm.records + timed.records
    return timed, before, after


def run_workload(name, seed, seconds, traced, out=sys.stdout):
    """One run of one workload; returns the driver's result object."""
    workload = workloads.by_name(name)
    golden = load_golden(name)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    setups = []
    ctx = streams = None
    try:
        while True:
            ctx, streams, positions, warm, setup_s = set_up(
                workload, seed, tracer, streams)
            setups.append(setup_s)
            # A traced run does not report setup_s, and repeats would add
            # up in its set-up spans.
            if (tracer is not None or sum(setups) >= SETUP_BUDGET_S
                    or len(setups) >= MAX_SETUPS):
                break
            ctx.close()
            ctx = None
        timed, before, after = timed_phase(
            ctx, workload, streams, positions, warm, seconds, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.phase = "check"
        failures = workload.check(ctx, timed.records, golden)
        checked, found = workload.finish(ctx, tracer)
        failures += found
    finally:
        if ctx is not None:
            ctx.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(data_dir_of(name), ignore_errors=True)

    ops = [r for r in timed.records if r.op.kind != ADMIN]
    out.write("%s: seed %d, op streams sha256 %s\n"
              % (name, seed, harness.stream_digest(streams)[:16]))
    for line in failures[:10]:
        out.write("FAIL %s\n" % line)
    if len(failures) > 10:
        out.write("FAIL ... and %d more\n" % (len(failures) - 10))
    if tracer is None:
        latencies = [r.latency_ms for r in ops if r.ok]
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": (sum(1 for r in ops if r.ok) / timed.elapsed
                          if timed.elapsed else 0.0),
            "lat_p50_ms": harness.percentile(latencies, 0.50),
            "lat_p95_ms": harness.percentile(latencies, 0.95),
            "peak_rss_mb": peak_rss_mb,
        }
        out.write("%s: %d ops in %.2f s (%d latency samples, %d set-up(s)),"
                  " flush policy buffered\n"
                  % (name, len(ops), timed.elapsed, len(latencies),
                     len(setups)))
    else:
        metrics = layers.layer_metrics(
            ctx, tracer, warm, timed, before, after)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (name, seed))
        count = tracer.write_chrome(path)
        out.write("%s: %d spans written to %s\n"
                  % (name, count, os.path.relpath(path, ROOT)))
    return {
        "correct": not failures,
        "attempted": len(timed.records) + checked,
        "failed": len(failures),
        "metrics": metrics,
    }


def driver_line(result, spec, traced):
    """The result as the driver wants it: every declared metric, in its
    declared unit, as a number (a metric that does not apply to the
    workload reads 0 here and ``n/a`` in the table)."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        value = result["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": entry["unit"],
        }
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_metrics(name, result, spec, traced, out=sys.stdout):
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    for entry in declared:
        value = result["metrics"].get(entry["name"])
        shown = "n/a" if value is None else "%.6g" % value
        out.write("%-16s %-44s %12s %s\n"
                  % (name, entry["name"], shown, entry["unit"]))


def regen_golden(names):
    for name in names:
        workload = workloads.by_name(name)
        platform = workload.build()
        ops = workload.golden_ops()
        if not ops:
            continue
        data_dir = os.path.join(WORK_DIR, "golden-%s" % name)
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        ctx = Context(workload, data_dir, platform)
        golden = {}
        try:
            for op in ops:
                sql = json.loads(op.body)["sql"]
                payload = ctx.query(op.user, sql)
                if payload is None:
                    raise SystemExit("golden query failed: %s" % sql)
                golden[op.key] = harness.result_digest(sql, payload)
        finally:
            ctx.close()
            shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(os.path.join(GOLDEN_DIR, name + ".json"), "w") as handle:
            json.dump(golden, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print("%s: %d golden digests" % (name, len(golden)))


def run_in_subprocess(name, seed, seconds, traced):
    """One driver-style run in a fresh process; (readable lines, result)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(RESULT_TAG):
        sys.stderr.write(done.stderr)
        return lines, None
    # The driver's line carries a number for every metric; the line above
    # it says which of them do not apply to this workload.
    result = json.loads(lines[-2][len(RESULT_TAG):])
    result["exit_code"] = done.returncode
    return lines[:-2], result


def run_set(args, spec):
    """Every workload, ``--repeats`` times, each run in a fresh process.

    With ``--trace 1`` each untraced run is followed by a traced one; the
    end-to-end numbers always come from the untraced run, and the
    difference in throughput between the two is the tracing overhead.
    """
    names = [entry["name"] for entry in spec["workloads"]]
    results = {"env": harness.environment(ROOT), "seed": args.seed,
               "seconds": args.seconds,
               "comparable": args.seconds == spec["run_seconds"],
               "workloads": {name: [] for name in names}}
    print("env %s" % json.dumps(results["env"], sort_keys=True))
    if not results["comparable"]:
        print("NOT COMPARABLE: --seconds differs from run_seconds (%s)"
              % spec["run_seconds"])
    exit_code = 0
    started = time.monotonic()
    for repeat in range(args.repeats):
        for name in names:
            run = {"seed": args.seed + repeat}
            for traced in ((False, True) if args.trace else (False,)):
                lines, result = run_in_subprocess(
                    name, run["seed"], args.seconds, traced)
                for line in lines:
                    if not line.startswith(name + " "):
                        print(line)
                if result is None or result["exit_code"] != 0:
                    print("%s: run failed" % name)
                    exit_code = 1
                if result is None:
                    continue
                print_metrics(name, result, spec, traced)
                print("%-16s %-44s %12s" % (
                    name, "failed / attempted",
                    "%d / %d" % (result["failed"], result["attempted"])))
                run["per_layer" if traced else "end_to_end"] = \
                    result["metrics"]
                run["correct"] = run.get("correct", True) and result["correct"]
                run["attempted"] = run.get("attempted", 0) + result["attempted"]
                run["failed"] = run.get("failed", 0) + result["failed"]
            if "per_layer" in run and "end_to_end" in run:
                share = 1.0 - (run["per_layer"]["diag.traced_ops_per_s"]
                               / run["end_to_end"]["ops_per_s"])
                run["per_layer"]["diag.trace_overhead_share"] = share
                print("%-16s %-44s %12.4f ratio"
                      % (name, "diag.trace_overhead_share", share))
            results["workloads"][name].append(run)
    results["wall_s"] = round(time.monotonic() - started, 1)
    print("set finished in %.1f s" % results["wall_s"])
    out = args.out or os.path.join(OUT_DIR, "results-%d.json" % args.seed)
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(out))
    return exit_code


def main(argv=None):
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload and print "
                        "the driver's JSON line (default: run them all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload in a set, seeds seed..seed+n-1")
    parser.add_argument("--out", help="where a set's results JSON goes")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.regen_golden:
        regen_golden([args.workload] if args.workload else names)
        return 0
    if args.workload is None:
        return run_set(args, spec)
    if args.workload not in names:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(names)))
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.stderr.write("the program under test is not here: %s has no "
                         "repro package\n" % os.path.join(ROOT, "src"))
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_metrics(args.workload, result, spec, bool(args.trace))
    print(RESULT_TAG + json.dumps(result))
    print(driver_line(result, spec, bool(args.trace)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
