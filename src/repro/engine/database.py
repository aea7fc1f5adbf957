"""Engine facade: the object the platform talks to.

Plays the role of the Azure SQL database in Figure 3 of the paper: executes
SQL, explains queries (SHOWPLAN-style XML), runs DDL (the platform — never
users — issues CREATE/DROP/ALTER), and exposes the catalog.
"""

import copy
import logging
import time

from repro.check.plancheck import verify_plan
from repro.engine import ast_nodes as ast
from repro.engine import semantic
from repro.engine.catalog import Catalog, Column
from repro.engine.executor import execute_plan
from repro.engine.expressions import OutputColumn
from repro.engine.plan_xml import plan_to_xml
from repro.engine.planner import Planner
from repro.engine.prepared import StatementMemo
from repro.engine.types import SQLType, cast_value, format_value, resolve_type_name
from repro.errors import (
    CatalogError,
    Diagnostic,
    ExecutionError,
    PlanCheckError,
    SQLError,
)

logger = logging.getLogger("repro.engine")


class QueryResult(object):
    """Result of an executed statement."""

    def __init__(self, columns, rows, plan=None, info=None, elapsed=0.0,
                 cache_hit=False, profile=None):
        #: Output column names, in order.
        self.columns = columns
        #: Rows as tuples.
        self.rows = rows
        #: Root physical operator (None for DDL/DML).
        self.plan = plan
        #: PlanInfo with referenced tables/columns/views (None for DDL/DML).
        self.info = info
        #: Wall-clock execution time in seconds.
        self.elapsed = elapsed
        #: True when the rows came from the runtime's result cache.
        self.cache_hit = cache_hit
        #: :class:`repro.obs.profiler.ExecutionProfile` when the statement
        #: was executed with ``profile=True`` (per-operator actuals).
        self.profile = profile

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_dicts(self):
        """Rows as a list of column-name dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class ExplainedQuery(object):
    """Result of explaining a statement without executing it."""

    def __init__(self, plan, schema, info, xml, plan_check=None):
        self.plan = plan
        self.schema = schema
        self.info = info
        self.xml = xml
        #: Plan-verifier findings (:class:`repro.check.plancheck.PlanViolation`,
        #: empty list = statically clean; None = verifier disabled).
        self.plan_check = plan_check

    @property
    def total_cost(self):
        return self.plan.total_cost

    @property
    def estimated_rows(self):
        return self.plan.est_rows


class Database(object):
    """An in-memory relational database with a T-SQL-flavoured dialect."""

    def __init__(self, name="sqlshare"):
        self.name = name
        self.catalog = Catalog()
        self.planner = Planner()
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`.  When set,
        #: per-phase timings (parse/analyze/plan/execute) are recorded as
        #: histograms; when None the engine pays only a handful of clock
        #: reads per statement.
        self.metrics = None
        self._phase_histograms = None
        #: Durability hook: called as ``listener(sql, kind)`` after a DDL or
        #: DML statement submitted through :meth:`execute` commits.  The
        #: platform's own mutators never route DDL through ``execute`` (they
        #: use the python-level catalog APIs), so everything arriving here
        #: is a direct engine-level commit that the WAL must replay as SQL.
        self.mutation_listener = None
        #: Lock held across a DDL/DML statement's mutation + listener call
        #: (the storage manager points this at the platform's state lock so
        #: a checkpoint's serialization pass is a consistent cut).
        self.commit_lock = None
        #: Plan-verifier posture for :meth:`execute`:
        #: ``"strict"`` (default — a violating plan raises
        #: :class:`repro.errors.PlanCheckError` before execution, the
        #: fail-closed setting tests and CI run under), ``"warn"`` (serve
        #: mode — log + bump ``check_plan_violations_total`` and run the
        #: plan anyway) or ``"off"``.  Cache hits never re-plan and are
        #: therefore never re-verified, whatever the mode.
        self.plan_check_mode = "strict"
        self._plan_violation_counter = None
        #: Optional cardinality-feedback store
        #: (:class:`repro.adaptive.feedback.CardinalityFeedbackStore`,
        #: duck-typed — the engine only calls ``view(fingerprint)``).  When
        #: set, planning consults observed per-operator cardinalities for
        #: fingerprints that have been probed.
        self.feedback = None
        #: The one text-keyed statement memo (see :mod:`repro.engine.prepared`).
        self.statements = StatementMemo()

    def _phase_histogram(self, phase):
        """The ``repro_engine_<phase>_seconds`` histogram (cached)."""
        if self._phase_histograms is None:
            self._phase_histograms = {}
        histogram = self._phase_histograms.get(phase)
        if histogram is None:
            histogram = self.metrics.histogram(
                "repro_engine_%s_seconds" % phase,
                "Seconds spent in the engine's %s phase." % phase,
            )
            self._phase_histograms[phase] = histogram
        return histogram

    # -- querying ---------------------------------------------------------------

    def prepare(self, sql, trace=None):
        """The front door for SQL text: its :class:`PreparedStatement`.

        Parses at most once per text (repeats are served from
        :attr:`statements`, facts only); never raises on bad SQL — the
        parse error rides on ``.error``.  Every text-taking method below
        accepts the result as ``prepared=`` so a caller that already holds
        one (the scheduler's job) pays for nothing twice.
        """
        started = time.monotonic()
        prepared = self.statements.prepare(sql)
        if prepared.parsed_now:
            self._phase("parse", started, trace)
        return prepared

    def diagnostics(self, prepared):
        """Advisory lint findings (list of dicts) for a prepared statement.

        Computed once per text and kept with the memoized facts: the
        findings depend on the catalog, but they are advisory, so a repeat
        submission reuses them rather than re-analyzing.
        """
        if prepared.diagnostics is None:
            try:
                found = [diagnostic.to_dict() for diagnostic
                         in self.check(prepared.sql, prepared=prepared)]
            except Exception:
                found = []  # advisory; never block a submission
            self.statements.annotate(prepared, found)
        return prepared.diagnostics

    def execute(self, sql, cancellation=None, cache=None, trace=None,
                profile=False, prepared=None):
        """Parse, analyze, plan and run one statement; returns a QueryResult.

        Semantic analysis — the one binder — runs between parsing and
        planning, so name and type errors surface with source positions and
        the full list of problems (``.diagnostics`` on the raised error),
        exactly as :meth:`check` reports them.

        ``cancellation`` is an optional token the executor polls while
        iterating (cooperative cancel/timeout).  ``cache`` is an optional
        :class:`repro.runtime.cache.ResultCache`: queries are looked up by
        normalized SQL, valid only while every table/view analysis resolved
        is still at the version read when it was resolved, and stored on
        success.  A hit skips parsing (when the text was seen before),
        analysis, planning and execution — the entry carries the original
        plan and PlanInfo, which a version match guarantees are still
        accurate — so the caller's permission checks and log metadata
        behave identically at a fraction of the cost.

        ``trace`` is an optional :class:`repro.obs.tracing.Trace`; the
        engine appends one span per phase (cache probe, parse, analyze,
        plan, execute).  ``profile=True`` wraps every physical operator to
        record actual rows and per-operator wall time
        (``QueryResult.profile``); profiled executions bypass the result
        cache so the actuals reflect a real execution.
        """
        if prepared is None:
            prepared = self.prepare(sql, trace=trace)
        if prepared.error is not None:
            raise prepared.error
        if profile or not prepared.is_query:
            cache = None
        if cache is not None:
            entry = self._probe(cache, prepared.key, trace)
            if entry is not None:
                return QueryResult(
                    entry.columns, list(entry.rows),
                    plan=entry.plan, info=entry.info, elapsed=0.0,
                    cache_hit=True,
                )
        statement = prepared.statement
        if statement is None:
            # Facts came from the memo, which never holds an AST.
            started = time.monotonic()
            statement = prepared.ast()
            self._phase("parse", started, trace)
        if not prepared.is_query:
            self._analyze(statement, sql, trace)
            return self._execute_statement(statement, sql)
        planned, violations = self._plan(prepared, statement, trace)
        self._enforce_plan_check(violations, sql)
        info = planned.info
        columns = [column.name for column in planned.schema]
        profiler = None
        if profile:
            from repro.obs.profiler import QueryProfiler

            profiler = QueryProfiler(planned.root)
            profiler.attach()
        started = time.monotonic()
        try:
            rows = execute_plan(planned.root, cancellation=cancellation)
        finally:
            if profiler is not None:
                profiler.detach()
        elapsed = self._phase("execute", started, trace, rows=len(rows))
        if cache is not None:
            # The versions were read as analysis resolved each object, so
            # a write that lands after that makes the entry fail validation
            # instead of blessing rows of the old state with new versions.
            cache.store(prepared.key, planned.versions, columns, rows,
                        plan=planned.root, info=info)
        return QueryResult(
            columns,
            rows,
            plan=planned.root,
            info=info,
            elapsed=elapsed,
            profile=(
                profiler.finish(elapsed=elapsed, plan_check=violations)
                if profiler is not None else None
            ),
        )

    def _phase(self, phase, started, trace, **annotations):
        """Close one engine phase: histogram + trace span; returns seconds."""
        ended = time.monotonic()
        if self.metrics is not None:
            self._phase_histogram(phase).observe(ended - started)
        if trace is not None:
            trace.add_span(phase, started, ended, **annotations)
        return ended - started

    def _analyze(self, statement, sql, trace=None):
        """Semantic analysis (the one binder); raises with every diagnostic
        attached, else returns the :class:`AnalysisResult`."""
        started = time.monotonic()
        analysis = semantic.analyze(statement, self.catalog, source=sql)
        self._phase("analyze", started, trace,
                    diagnostics=len(analysis.diagnostics))
        if not analysis.ok:
            raise semantic.error_from_diagnostics(analysis.diagnostics, sql)
        return analysis

    def _plan(self, prepared, statement, trace=None):
        """The shared bind -> plan -> verify pipeline for one query.

        Returns ``(planned, violations)``; ``violations`` is the plan
        verifier's finding list (None when :attr:`plan_check_mode` is
        ``"off"``).  What a non-empty list means is the caller's call:
        :meth:`execute` enforces the posture, :meth:`explain` and
        :meth:`check_plan` report.
        """
        analysis = self._analyze(statement, prepared.sql, trace)
        started = time.monotonic()
        feedback = self.feedback
        planned = self.planner.plan(
            analysis,
            feedback=(feedback.view(prepared.fingerprint)
                      if feedback is not None else None),
        )
        self._phase("plan", started, trace)
        violations = None
        if self.plan_check_mode != "off":
            started = time.monotonic()
            violations = verify_plan(planned.root, planned.schema)
            self._phase("check", started, trace, violations=len(violations))
        return planned, violations

    def _plan_text(self, sql, prepared=None):
        """:meth:`_plan` from text, for the entry points that do not run it."""
        if prepared is None:
            prepared = self.prepare(sql)
        if prepared.error is not None:
            raise prepared.error
        if not prepared.is_query:
            raise SQLError("not a query")
        return self._plan(prepared, prepared.ast())

    def _enforce_plan_check(self, violations, sql):
        """Apply :attr:`plan_check_mode` to the verifier's findings.

        Strict mode raises on any violation — a plan that fails its own
        type check must not reach the executor; warn mode logs, counts
        (``check_plan_violations_total``) and lets the plan run, which is
        the right posture for a long-lived service.
        """
        if not violations:
            return
        if self.metrics is not None:
            counter = self._plan_violation_counter
            if counter is None:
                counter = self.metrics.counter(
                    "check_plan_violations_total",
                    "Plans rejected or flagged by the static plan "
                    "verifier.",
                )
                self._plan_violation_counter = counter
            counter.inc(len(violations))
        summary = "; ".join(
            "%s %s" % (violation.code, violation.message)
            for violation in violations[:3])
        if self.plan_check_mode == "strict":
            raise PlanCheckError(
                "plan verification failed (%d violation(s)): %s"
                % (len(violations), summary),
                violations=violations,
            )
        logger.warning("plan verification flagged %d violation(s) for "
                       "%.80r: %s", len(violations), sql, summary)

    def check_plan(self, sql, prepared=None):
        """Statically verify the plan a query would get, without running it.

        Returns the list of :class:`repro.check.plancheck.PlanViolation`
        (empty = the plan honours every checked invariant), or None when
        the statement is not a query, semantic analysis rejects it (its
        diagnostics say why) or the verifier is off.  A query that analyzes
        clean and still cannot be planned raises: the REST ``/check``
        endpoint and ``repro lint --explain`` report that as an error, not
        as the absence of a verdict.
        """
        if prepared is None:
            prepared = self.prepare(sql)
        if prepared.error is not None or not prepared.is_query:
            return None
        try:
            _planned, violations = self._plan(prepared, prepared.ast())
        except SQLError as exc:
            if getattr(exc, "diagnostics", None):
                return None
            raise
        return violations

    def _probe(self, cache, key, trace):
        """One result-cache probe (validation included), traced when asked."""
        if trace is None:
            return cache.lookup(key, self.catalog.version_of)
        started = time.monotonic()
        entry = cache.lookup(key, self.catalog.version_of)
        trace.add_span("cache.probe", started, time.monotonic(),
                       hit=entry is not None)
        return entry

    def check(self, sql, lint=True, prepared=None):
        """Statically analyze one statement; nothing is planned or executed.

        Returns the full list of :class:`Diagnostic` findings — syntax
        errors, semantic errors and (unless ``lint`` is False) query-smell
        warnings — instead of raising.  An empty list means the statement is
        clean.
        """
        if prepared is None:
            prepared = self.prepare(sql)
        if prepared.error is not None:
            return [Diagnostic.from_error(prepared.error, sql)]
        statement = prepared.ast()
        if lint:
            from repro.lint import lint_statement

            _result, diagnostics = lint_statement(
                statement, self.catalog, source=sql)
            return diagnostics
        result = semantic.analyze(statement, self.catalog, source=sql)
        return result.sorted_diagnostics()

    def explain(self, sql, prepared=None):
        """Plan a query and return its SHOWPLAN-style XML without running it.

        This is the engine's ``SHOWPLAN_XML`` switch, the entry point for
        Phase 1 of the paper's analysis methodology.
        """
        planned, plan_check = self._plan_text(sql, prepared)
        xml = plan_to_xml(
            planned.root, statement_text=sql,
            expression_ops=planned.info.expression_ops,
            referenced_columns=planned.info.columns,
            plan_check=plan_check,
        )
        return ExplainedQuery(planned.root, planned.schema, planned.info, xml,
                              plan_check=plan_check)

    def query_schema(self, sql, prepared=None):
        """Output columns (name, SQLType) a query would produce."""
        planned, _violations = self._plan_text(sql, prepared)
        return [(column.name, column.sql_type) for column in planned.schema]

    # -- DDL / DML ----------------------------------------------------------------

    def _execute_statement(self, statement, sql):
        lock = self.commit_lock
        if lock is not None:
            with lock:
                return self._execute_statement_locked(statement, sql)
        return self._execute_statement_locked(statement, sql)

    def _execute_statement_locked(self, statement, sql):
        result = self._apply_statement(statement, sql)
        listener = self.mutation_listener
        if listener is not None:
            listener(sql, type(statement).__name__)
        return result

    def _apply_statement(self, statement, sql):
        if isinstance(statement, ast.CreateTable):
            columns = [
                Column(definition.name, resolve_type_name(definition.type_name))
                for definition in statement.columns
            ]
            self.catalog.create_table(statement.name, columns)
            return QueryResult([], [])
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, if_exists=statement.if_exists)
            return QueryResult([], [])
        if isinstance(statement, ast.CreateView):
            self.create_view(statement.name, statement.query, sql)
            return QueryResult([], [])
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name, if_exists=statement.if_exists)
            return QueryResult([], [])
        if isinstance(statement, ast.Insert):
            count = self._insert(statement)
            return QueryResult([], [], elapsed=0.0) if count is None else QueryResult([], [])
        if isinstance(statement, ast.AlterColumn):
            self._alter_column(statement)
            return QueryResult([], [])
        raise SQLError("unsupported statement %s" % type(statement).__name__)

    def create_view(self, name, query_ast, sql=None, replace=False):
        """Create a view from a parsed query (planning it validates it)."""
        planned = self.planner.plan(semantic.analyze(query_ast, self.catalog))
        columns = []
        seen = set()
        for column in planned.schema:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(
                    "view %r would have duplicate column %r" % (name, column.name)
                )
            seen.add(key)
            columns.append(Column(column.name, column.sql_type))
        # Views discard any ORDER BY, per the SQL standard (the paper notes
        # SQLShare strips it automatically during view creation).
        stripped = _strip_order_by(query_ast)
        return self.catalog.create_view(name, sql or "", stripped, columns, replace=replace)

    def create_table_from_rows(self, name, columns, rows):
        """Bulk-create a table (the ingest path).  ``columns`` are Column."""
        table = self.catalog.create_table(name, columns)
        for row in rows:
            table.insert_row(row)
        # Second bump: the table was visible (empty) during the load.
        self.catalog.bump_version(name)
        return table

    def _insert(self, statement):
        table = self.catalog.get_table(statement.table)
        if statement.query is not None:
            planned = self.planner.plan(semantic.analyze(statement.query,
                                                         self.catalog))
            incoming = execute_plan(planned.root)
        else:
            incoming = []
            for row_exprs in statement.rows:
                values = []
                for expr in row_exprs:
                    if not isinstance(expr, ast.Literal):
                        raise SQLError("INSERT VALUES must be literals")
                    values.append(expr.value)
                incoming.append(tuple(values))
        column_order = None
        if statement.columns is not None:
            column_order = [table.column_index(name) for name in statement.columns]
        for values in incoming:
            if column_order is not None:
                row = [None] * len(table.columns)
                if len(values) != len(column_order):
                    raise SQLError("INSERT arity mismatch")
                for target, value in zip(column_order, values):
                    row[target] = value
            else:
                row = list(values)
            coerced = [
                cast_value(value, column.sql_type)
                for value, column in zip(row, table.columns)
            ]
            table.insert_row(coerced)
        self.catalog.bump_version(statement.table)
        return len(incoming)

    def _alter_column(self, statement):
        table = self.catalog.get_table(statement.table)
        target = resolve_type_name(statement.type_name)

        def convert(value):
            if target is SQLType.VARCHAR:
                return format_value(value)
            return cast_value(value, target)

        table.alter_column_type(statement.column, target, convert)
        self.catalog.bump_version(statement.table)

    # -- introspection -----------------------------------------------------------------

    def table_names(self):
        return sorted(table.name for table in self.catalog.tables())

    def view_names(self):
        return sorted(view.name for view in self.catalog.views())

    def row_count(self, table_name):
        return self.catalog.get_table(table_name).stats.row_count

    def total_bytes(self):
        """Rough storage footprint across base tables (quota accounting)."""
        total = 0
        for table in self.catalog.tables():
            total += int(
                table.stats.row_count * table.stats.avg_row_width(table.columns)
            )
        return total


def _strip_order_by(query_ast):
    """A copy of ``query_ast`` without its top-level ORDER BY (shallow: only
    the nodes that change are copied, the caller's AST is left alone)."""
    if isinstance(query_ast, ast.WithQuery):
        body = _strip_order_by(query_ast.body)
        if body is query_ast.body:
            return query_ast
        stripped = copy.copy(query_ast)
        stripped.body = body
        return stripped
    if not query_ast.order_by or (
            isinstance(query_ast, ast.Select) and query_ast.top is not None):
        return query_ast
    stripped = copy.copy(query_ast)
    stripped.order_by = []
    return stripped
