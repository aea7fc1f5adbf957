"""Per-operator runtime profiling: EXPLAIN ANALYZE for the iterator engine.

The planner attaches *estimated* rows and costs to every physical operator
(:mod:`repro.engine.operators`); the paper's whole analysis pipeline runs
on those estimates.  This module records what actually happens: a
:class:`QueryProfiler` wraps each operator in a plan tree (children and
subquery plans included) so that executing the plan counts the rows each
operator actually produced and the wall time spent inside its iterator —
open (the ``execute()`` call itself, where materializing operators like
Sort do their work), per-``next()`` time, and the final exhausting call
(close).

Wrapping is strictly opt-in: an unprofiled execution touches none of this
code, so unprofiled queries pay nothing for it.
Wrappers are installed as instance attributes and removed afterwards, so a
plan object survives profiling unchanged.

The resulting :class:`ExecutionProfile` renders an ``EXPLAIN ANALYZE``-style
side-by-side of estimated vs actual rows with per-operator **q-error**
(the standard cardinality-estimation metric: ``max(est/act, act/est)``
with a one-row floor), which :mod:`repro.analysis.estimation` aggregates
into a cost-model scorecard over whole workloads.
"""

import time


def q_error(estimated, actual):
    """Cardinality q-error: symmetric ratio with a one-row floor.

    1.0 is a perfect estimate; 10.0 means an order of magnitude off in
    either direction.  The floor keeps empty results from producing
    infinite errors (the convention in the cardinality-estimation
    literature).
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


class OperatorStats(object):
    """Actuals recorded for one physical operator instance."""

    __slots__ = (
        "node_id", "parent_id", "depth", "physical_name", "logical_name",
        "properties", "est_rows", "rows", "loops", "open_seconds",
        "next_seconds", "close_seconds", "completed", "is_subplan",
        "_children",
    )

    def __init__(self, node_id, parent_id, depth, operator, is_subplan=False):
        self.node_id = node_id
        self.parent_id = parent_id
        self.depth = depth
        self.physical_name = operator.physical_name
        self.logical_name = operator.logical
        self.properties = dict(operator.properties)
        self.est_rows = operator.est_rows
        #: Rows this operator actually yielded (cumulative over loops).
        self.rows = 0
        #: Times ``execute()`` was called (> 1 for re-executed subplans).
        self.loops = 0
        #: Seconds inside the ``execute()`` call itself.
        self.open_seconds = 0.0
        #: Seconds inside ``next()`` calls that produced a row (inclusive
        #: of children — the iterator pull model nests their work).
        self.next_seconds = 0.0
        #: Seconds inside the final, exhausting ``next()`` call.
        self.close_seconds = 0.0
        #: False when a consumer stopped early (e.g. under a Top).
        self.completed = False
        self.is_subplan = is_subplan
        self._children = []

    @property
    def inclusive_seconds(self):
        return self.open_seconds + self.next_seconds + self.close_seconds

    @property
    def self_seconds(self):
        """Inclusive time minus the children's inclusive time (clamped)."""
        nested = sum(child.inclusive_seconds for child in self._children)
        return max(0.0, self.inclusive_seconds - nested)

    @property
    def actual_rows_per_loop(self):
        if self.loops > 1:
            return self.rows / float(self.loops)
        return float(self.rows)

    @property
    def q_error(self):
        return q_error(self.est_rows, self.actual_rows_per_loop)

    def to_dict(self):
        return {
            "node_id": self.node_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "operator": self.physical_name,
            "logical": self.logical_name,
            "properties": self.properties,
            "estimated_rows": round(self.est_rows, 2),
            "actual_rows": self.rows,
            "loops": self.loops,
            "q_error": round(self.q_error, 3),
            "time_ms": round(self.inclusive_seconds * 1000.0, 3),
            "self_time_ms": round(self.self_seconds * 1000.0, 3),
            "open_ms": round(self.open_seconds * 1000.0, 3),
            "close_ms": round(self.close_seconds * 1000.0, 3),
            "completed": self.completed,
            "subplan": self.is_subplan,
        }


def _profiled_rows(iterator, stats):
    perf = time.perf_counter
    nxt = iter(iterator).__next__
    while True:
        started = perf()
        try:
            row = nxt()
        except StopIteration:
            stats.close_seconds += perf() - started
            stats.completed = True
            return
        stats.next_seconds += perf() - started
        stats.rows += 1
        yield row


def _make_wrapper(original, stats):
    perf = time.perf_counter

    def profiled_execute(ctx):
        stats.loops += 1
        started = perf()
        iterator = original(ctx)
        stats.open_seconds += perf() - started
        return _profiled_rows(iterator, stats)

    return profiled_execute


class QueryProfiler(object):
    """Wraps every operator in a plan for one profiled execution.

    Use as a context manager around the execution::

        profiler = QueryProfiler(planned.root)
        with profiler:
            rows = execute_plan(planned.root)
        profile = profiler.finish()

    ``__exit__`` always restores the original ``execute`` methods, so the
    plan can be reused (or cached) unwrapped.
    """

    def __init__(self, root):
        self.root = root
        self.stats = []  # pre-order
        self._operators = []  # parallel to stats
        self._attached = False
        self._collect(root, parent=None, depth=0, is_subplan=False)
        # Wire the child links used for self-time attribution.
        by_id = {stats.node_id: stats for stats in self.stats}
        for stats in self.stats:
            if stats.parent_id is not None:
                by_id[stats.parent_id]._children.append(stats)

    def _collect(self, operator, parent, depth, is_subplan):
        stats = OperatorStats(
            len(self.stats),
            parent.node_id if parent is not None else None,
            depth, operator, is_subplan=is_subplan,
        )
        self.stats.append(stats)
        self._operators.append(operator)
        for subplan in operator.subplans:
            self._collect(subplan, stats, depth + 1, is_subplan=True)
        for child in operator.children:
            self._collect(child, stats, depth + 1, is_subplan=is_subplan)

    # -- attach / detach ---------------------------------------------------------

    def attach(self):
        if self._attached:
            return self
        for operator, stats in zip(self._operators, self.stats):
            operator.execute = _make_wrapper(operator.execute, stats)
        self._attached = True
        return self

    def detach(self):
        if not self._attached:
            return
        for operator in self._operators:
            operator.__dict__.pop("execute", None)
        self._attached = False

    def __enter__(self):
        return self.attach()

    def __exit__(self, exc_type, exc, tb):
        self.detach()
        return False

    def finish(self, elapsed=None, plan_check=None):
        self.detach()
        return ExecutionProfile(self.stats, elapsed=elapsed,
                                plan_check=plan_check)


class ExecutionProfile(object):
    """The result of one profiled execution: per-operator actuals."""

    def __init__(self, operator_stats, elapsed=None, plan_check=None):
        self.operators = list(operator_stats)
        #: End-to-end execution seconds (the engine's measurement), when known.
        self.elapsed = elapsed
        #: Static plan-verifier findings for the executed plan
        #: (:mod:`repro.check.plancheck`): [] = verified clean, None =
        #: verifier off.  Lets q-error reports distinguish "the estimate
        #: was wrong" from "the plan was already statically suspect".
        self.plan_check = plan_check

    def q_errors(self):
        """Per-operator q-errors, pre-order (executed operators only)."""
        return [stats.q_error for stats in self.operators if stats.loops]

    def summary(self):
        errors = sorted(self.q_errors())
        payload = {
            "operators": len(self.operators),
            "executed": sum(1 for stats in self.operators if stats.loops),
            "actual_rows_root": self.operators[0].rows if self.operators else 0,
        }
        if self.elapsed is not None:
            payload["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        if errors:
            payload["median_q_error"] = round(errors[len(errors) // 2], 3)
            payload["max_q_error"] = round(errors[-1], 3)
        if self.plan_check is not None:
            payload["plan_check"] = (
                "ok" if not self.plan_check
                else sorted(set(v.code for v in self.plan_check)))
        return payload

    def to_dict(self):
        payload = {
            "summary": self.summary(),
            "operators": [stats.to_dict() for stats in self.operators],
        }
        if self.plan_check is not None:
            payload["plan_check"] = [v.to_dict() for v in self.plan_check]
        return payload


def render_explain_analyze(profile):
    """Text table: one indented row per operator, estimates beside actuals.

    The layout mirrors EXPLAIN ANALYZE conventions: tree shape by
    indentation, then estimated rows, actual rows (per loop), loop count,
    q-error and inclusive/self wall time.
    """
    rows = []
    for stats in profile.operators:
        label = "  " * stats.depth + stats.physical_name
        parent = (
            profile.operators[stats.parent_id]
            if stats.parent_id is not None else None
        )
        if stats.is_subplan and (parent is None or not parent.is_subplan):
            label += " [subplan]"
        detail = stats.properties.get("Table") or stats.properties.get("Rows")
        if detail:
            label += " (%s)" % detail
        rows.append((label, stats))
    width = max(len(label) for label, _stats in rows) if rows else 8
    width = max(width, len("Operator"))
    lines = [
        "%-*s %12s %12s %6s %8s %10s %10s"
        % (width, "Operator", "Est. Rows", "Actual Rows", "Loops",
           "Q-Error", "Time(ms)", "Self(ms)"),
        "-" * (width + 64),
    ]
    for label, stats in rows:
        if stats.loops:
            lines.append(
                "%-*s %12.1f %12.1f %6d %8.2f %10.3f %10.3f"
                % (width, label, stats.est_rows, stats.actual_rows_per_loop,
                   stats.loops, stats.q_error,
                   stats.inclusive_seconds * 1000.0,
                   stats.self_seconds * 1000.0)
            )
        else:
            lines.append(
                "%-*s %12.1f %12s %6s %8s %10s %10s"
                % (width, label, stats.est_rows, "-", "-", "-", "-", "-")
            )
    summary = profile.summary()
    if "median_q_error" in summary:
        lines.append("")
        lines.append(
            "q-error: median %.2f, max %.2f over %d operators"
            % (summary["median_q_error"], summary["max_q_error"],
               summary["executed"])
        )
    if profile.elapsed is not None:
        lines.append("execution time: %.3f ms" % (profile.elapsed * 1000.0))
    if profile.plan_check:
        # Statically suspect plan: flag it so a bad q-error row is read in
        # context.  Clean plans add no footer (the common case stays quiet).
        lines.append("plan check: %d static violation(s): %s"
                     % (len(profile.plan_check),
                        ", ".join(sorted(set(v.code
                                             for v in profile.plan_check)))))
    return "\n".join(lines)
