"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent, ``B`` the change; each is the JSON a full run of
``run.py`` wrote (``--repeats`` runs per workload).  One row per workload
and end-to-end metric: both medians, the relative difference in the
direction that is *worse*, the bound from BENCHMARK.json and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the spread between either side's own runs (inter-quartile
                distance over the median) exceeds the bound, so the sets
                cannot tell.

Exit code 1 when any row is ``worse`` or a run of B failed its checks.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402


def _values(runs, metric):
    return [run["end_to_end"][metric] for run in runs
            if metric in run.get("end_to_end", {})]


def compare(parent, change, spec):
    """Rows of (workload, metric, a, b, worse_by, spread, bound, verdict)."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs_a = parent["workloads"].get(workload, [])
        runs_b = change["workloads"].get(workload, [])
        for entry in spec["end_to_end"]:
            a = _values(runs_a, entry["name"])
            b = _values(runs_b, entry["name"])
            if not a or not b:
                rows.append((workload, entry["name"], None, None, None, None,
                             entry["bound"], "missing"))
                continue
            median_a = statistics.median(a)
            median_b = statistics.median(b)
            change_by = (median_b - median_a) / median_a
            worse_by = -change_by if entry["better"] == "higher" else change_by
            spreads = [s for s in (harness.spread(a), harness.spread(b))
                       if s is not None]
            widest = max(spreads) if spreads else None
            # setup_s is gated on its medians alone, as the driver does.
            if worse_by > entry["bound"]:
                verdict = "worse"
            elif (widest is not None and widest > entry["bound"]
                  and entry["name"] != "setup_s"):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, entry["name"], median_a, median_b,
                         worse_by, widest, entry["bound"], verdict))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as handle:
        parent = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    spec = harness.benchmark_spec()
    for label, result in (("A", parent), ("B", change)):
        env = result.get("env", {})
        print("%s: commit %s, seed %s, %s s runs, python %s, nproc %s%s"
              % (label, env.get("commit"), result.get("seed"),
                 result.get("seconds"), env.get("python"), env.get("nproc"),
                 "" if result.get("comparable", True)
                 else "  (NOT COMPARABLE: short runs)"))
    print("%-16s %-12s %12s %12s %9s %8s %6s  %s"
          % ("workload", "metric", "A median", "B median", "worse by",
             "spread", "bound", "verdict"))
    failed = False
    for (workload, metric, a, b, worse_by, widest, bound,
         verdict) in compare(parent, change, spec):
        if a is None:
            print("%-16s %-12s %s" % (workload, metric, verdict))
            failed = True
            continue
        print("%-16s %-12s %12.5g %12.5g %+8.1f%% %7s %5.0f%%  %s"
              % (workload, metric, a, b, 100 * worse_by,
                 "n/a" if widest is None else "%.1f%%" % (100 * widest),
                 100 * bound, verdict))
        failed = failed or verdict == "worse"
    for workload, runs in change["workloads"].items():
        bad = sum(1 for run in runs if not run.get("correct", False))
        if bad:
            print("%s: %d run(s) of B failed their output checks"
                  % (workload, bad))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
