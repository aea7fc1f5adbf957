"""Physical planning: operators, join choice, pushdown and costing.

The planner turns the bound query of semantic analysis
(:mod:`repro.engine.semantic` — the engine's one binder) into a tree of
physical operators (:mod:`repro.engine.operators`) with SQL-Server-style
cardinality and cost estimates attached, because the paper's entire
analysis pipeline is driven by exactly those estimates.  It resolves no
names: FROM layouts, bound expressions, aggregate and window specs,
output names and ORDER BY keys all come from the analysis, and so do the
Phase-2 facts (:class:`repro.engine.semantic.PlanInfo`) and the catalog
versions the plan was built from.  What is left here is the physical
choice: scans versus seeks, predicate pushdown, join algorithms, costing
and cardinality feedback.
"""

import copy

from repro.engine import cost as costmodel
from repro.engine import operators as ops
from repro.engine import semantic
from repro.engine.expressions import (
    BoundBinary,
    BoundCast,
    BoundColumn,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundUnary,
    contains_subquery,
    rebase_expr,
    referenced_slots,
)
from repro.engine.types import SQLType, TYPE_WIDTH
from repro.engine.window import WindowSpec
from repro.errors import BindError, SQLError

_COMPARISONS = ("=", "<>", "<", ">", "<=", ">=")


class PlannedQuery(object):
    """A planned statement: root operator, output schema, Phase-2 facts and
    the ``((name, version), ...)`` vector of the catalog objects it read."""

    def __init__(self, root, schema, info, versions):
        self.root = root
        self.schema = schema
        self.info = info
        self.versions = versions


class Planner(object):
    """Plans analyzed queries; statistics come from the tables they bound."""

    def __init__(self):
        #: Fallback-selectivity bundle (see :mod:`repro.engine.cost`); swap
        #: the instance to retune every heuristic guess at once.
        self.selectivity_defaults = costmodel.DEFAULTS
        #: Cardinality-feedback view of the plan in progress.  Only the
        #: per-call copy that :meth:`plan` makes ever sets it, so one
        #: thread's view never reaches another thread's plan.
        self._feedback = None

    # -- public entry point -----------------------------------------------------

    def plan(self, analysis, feedback=None):
        """Plan an analyzed query; returns a :class:`PlannedQuery`.

        ``analysis`` is the :class:`repro.engine.semantic.AnalysisResult`
        of a query (or of INSERT ... SELECT / CREATE VIEW, whose inner query
        is planned); an analysis with errors raises them.

        ``feedback`` is an optional duck-typed cardinality-feedback view
        (``repro.adaptive.feedback.FeedbackView`` in practice, but the
        engine never imports the adaptive layer): an object whose
        ``estimate_for(operator)`` returns an observed row count for a plan
        site, or None.  When provided, observed cardinalities replace the
        synthetic selectivity guesses at scans/seeks, joins and aggregates
        — which is what lets a misestimated plan flip back after a probe.
        """
        if not analysis.ok:
            raise semantic.error_from_diagnostics(analysis.diagnostics,
                                                  analysis.source)
        query = analysis.query
        if query is None:
            raise SQLError("not a query")
        call = copy.copy(self)
        call._feedback = feedback
        root = call._plan_query(query)
        return PlannedQuery(root, query.schema, analysis.info,
                            analysis.version_vector())

    # -- subqueries ---------------------------------------------------------------

    def _executable(self, expr, subplans):
        """``expr`` with each subquery in it planned (plans go to ``subplans``)."""
        if expr is None or not contains_subquery(expr):
            return expr

        def plan_subquery(node):
            root = self._plan_query(node.query)
            subplans.append(root)
            return node.planned(root)

        return rebase_expr(expr, None, plan_subquery)

    # -- query expressions -----------------------------------------------------------

    def _plan_query(self, query):
        if isinstance(query, semantic.BoundSelect):
            return self._plan_select(query)
        return self._plan_set_operation(query)

    def _plan_set_operation(self, query):
        left_root = self._plan_query(query.left)
        right_root = self._plan_query(query.right)
        schema = query.schema
        target_types = [column.sql_type for column in schema]
        left_root = self._coerce_branch(left_root, target_types)
        right_root = self._coerce_branch(right_root, target_types)
        if query.op == "union":
            root = ops.Concatenation([left_root, right_root], schema)
            rows = left_root.est_rows + right_root.est_rows
            row_size = max(left_root.row_size, right_root.row_size)
            root.set_estimates(rows, row_size, 0.0, costmodel.CPU_PER_ROW * rows)
            if not query.all:
                root = self._distinct(root)
        elif query.op == "intersect":
            root = self._semi_join("semi", left_root, right_root, schema)
        else:  # except
            root = self._semi_join("anti", left_root, right_root, schema)
        root.schema = schema
        if query.order:
            root = self._order(root, query.order, schema, None)
        return root

    def _coerce_branch(self, root, target_types):
        """Cast a set-operation branch to the unified column types.

        T-SQL converts both sides of a UNION to a common type; without this
        a branch whose column widened (say FLOAT under a VARCHAR-unified
        column) would leak raw floats into string comparisons downstream.
        """
        if all(
            column.sql_type == target
            for column, target in zip(root.schema, target_types)
        ):
            return root
        exprs = []
        new_schema = []
        for slot, (column, target) in enumerate(zip(root.schema, target_types)):
            base = BoundColumn(slot, column.sql_type, column.name)
            if column.sql_type == target:
                exprs.append(base)
                new_schema.append(column)
            else:
                exprs.append(BoundCast(base, target, try_cast=False))
                new_schema.append(column.renamed())
                new_schema[-1].sql_type = target
        project = ops.ComputeScalar(root, exprs, new_schema)
        project.set_estimates(
            root.est_rows, root.row_size, 0.0,
            costmodel.COMPUTE_SCALAR_CPU * max(1.0, root.est_rows),
        )
        return project

    def _semi_join(self, kind, left_root, right_root, schema):
        left_distinct = self._distinct(left_root)
        key_count = len(schema)
        left_keys = [
            BoundColumn(i, schema[i].sql_type, schema[i].name) for i in range(key_count)
        ]
        right_keys = [
            BoundColumn(i, right_root.schema[i].sql_type, right_root.schema[i].name)
            for i in range(key_count)
        ]
        join = ops.HashMatch(
            kind, left_distinct, right_root, left_keys, right_keys, None, schema, []
        )
        rows = max(1.0, left_distinct.est_rows * (0.5 if kind == "semi" else 0.5))
        join.set_estimates(
            rows,
            left_distinct.row_size,
            0.0,
            costmodel.hash_join_cpu(right_root.est_rows, left_distinct.est_rows),
        )
        return join

    def _distinct(self, child):
        keys = [
            BoundColumn(i, column.sql_type, column.name)
            for i, column in enumerate(child.schema)
        ]
        out = ops.Sort(child, keys, [False] * len(keys), distinct=True)
        rows = max(1.0, child.est_rows * 0.5)
        out.set_estimates(rows, child.row_size, 0.0, costmodel.sort_cpu(child.est_rows))
        return out

    # -- SELECT -------------------------------------------------------------------------

    def _plan_select(self, select):
        # 1. FROM (a FROM-less SELECT reads one empty row, as in T-SQL)
        if select.source is not None:
            source = self._plan_from(select.source)
        else:
            source = ops.ConstantScan([[]], [])
            source.set_estimates(1, costmodel.ROW_OVERHEAD, 0.0, costmodel.CPU_PER_ROW)

        # 2. WHERE (with seek pushdown into a lone table scan)
        if select.where is not None:
            source = self._plan_where(select.where, source)

        # 3. Aggregation
        if select.aggregate_schema is not None:
            source = self._plan_aggregate(select, source)

        # 4. HAVING
        if select.having is not None:
            subplans = []
            predicate = self._executable(select.having, subplans)
            having = ops.Filter(source, predicate, [predicate.describe()])
            having.subplans.extend(subplans)
            rows = max(1.0, source.est_rows * 0.5)
            having.set_estimates(
                rows, source.row_size, 0.0,
                costmodel.FILTER_CPU_PER_ROW * max(1.0, source.est_rows),
            )
            source = having

        # 5. Window functions
        if select.windows:
            source = self._plan_windows(select, source)

        # 6. Select list
        subplans = []
        exprs = [self._executable(expr, subplans) for expr in select.items]
        out_columns = select.schema
        projection = None
        if self._is_identity_projection(exprs, source):
            root = source
            root.schema = out_columns
        else:
            # The projection gets its own schema list: ORDER BY may push
            # hidden sort columns into it without touching ``out_columns``.
            root = projection = ops.ComputeScalar(source, exprs, list(out_columns))
            rows = source.est_rows
            root.set_estimates(
                rows, _schema_width(out_columns), 0.0,
                costmodel.COMPUTE_SCALAR_CPU * max(1.0, rows),
            )
            root.subplans.extend(subplans)

        # 7. DISTINCT
        if select.select.distinct:
            root = self._distinct(root)
            root.schema = out_columns

        # 8. ORDER BY
        if select.order:
            root = self._order(root, select.order, out_columns, projection)

        # 9. TOP
        node = select.select
        if node.top is not None:
            top = ops.Top(root, node.top, percent=node.top_percent)
            if node.top_percent:
                rows = max(1.0, root.est_rows * node.top / 100.0)
            else:
                rows = min(float(node.top), root.est_rows or float(node.top))
            top.set_estimates(rows, root.row_size, 0.0, costmodel.CPU_PER_ROW * rows)
            root = top
        return root

    def _is_identity_projection(self, exprs, source):
        if len(exprs) != len(source.schema):
            return False
        for slot, expr in enumerate(exprs):
            if not (isinstance(expr, BoundColumn) and expr.slot == slot):
                return False
        return True

    # -- FROM ---------------------------------------------------------------------------

    def _plan_from(self, source):
        if isinstance(source, semantic.BoundJoin):
            return self._plan_join(source)
        if source.kind == "table":
            table = source.table
            scan = ops.ClusteredIndexScan(table, source.schema)
            rows = table.stats.row_count
            row_size = table.stats.avg_row_width(table.columns) + costmodel.ROW_OVERHEAD
            scan.set_estimates(
                rows, row_size, costmodel.scan_io(rows, row_size), costmodel.scan_cpu(rows)
            )
            return scan
        # View, CTE or derived table: expand the bound body in place.
        root = self._plan_query(source.query)
        root.schema = source.schema
        return root

    def _plan_join(self, node):
        left_root = self._plan_from(node.left)
        right_root = self._plan_from(node.right)
        schema = node.schema
        if node.kind == "cross" or node.condition is None:
            join = ops.NestedLoops("cross", left_root, right_root, None, schema, [])
            rows = max(1.0, left_root.est_rows * max(1.0, right_root.est_rows))
            join.set_estimates(
                rows,
                left_root.row_size + right_root.row_size,
                0.0,
                costmodel.nested_loop_cpu(left_root.est_rows, right_root.est_rows),
            )
            self._apply_feedback(join)
            return join
        subplans = []
        predicate = self._executable(node.condition, subplans)
        description = predicate.describe()
        equi_keys = self._extract_equi_keys(predicate, len(node.left.schema))
        join = self._choose_join(
            node.kind, left_root, right_root, predicate, equi_keys, schema, description
        )
        self._apply_feedback(join)
        join.subplans.extend(subplans)
        return join

    def _extract_equi_keys(self, predicate, left_width):
        """Return (left_keys, right_keys, residual) if the predicate has at
        least one column=column equality across the two inputs, else None.

        ``right_keys`` are rebased so they evaluate against the right child's
        own rows (slots shifted by the left child's width)."""
        conjuncts = _split_conjuncts(predicate)
        left_keys, right_keys, residual = [], [], []
        for conjunct in conjuncts:
            pair = self._equi_pair(conjunct, left_width)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        if not left_keys:
            return None
        residual_pred = _combine_and(residual)
        return left_keys, right_keys, residual_pred

    def _equi_pair(self, conjunct, left_width):
        if not (isinstance(conjunct, BoundBinary) and conjunct.op == "="):
            return None
        sides = [conjunct.left, conjunct.right]
        if not all(isinstance(side, BoundColumn) for side in sides):
            return None
        left_side = [s for s in sides if s.slot < left_width]
        right_side = [s for s in sides if s.slot >= left_width]
        if len(left_side) != 1 or len(right_side) != 1:
            return None
        right = right_side[0]
        rebased = BoundColumn(right.slot - left_width, right.sql_type, right.name)
        return left_side[0], rebased

    def _choose_join(self, kind, left_root, right_root, predicate, equi_keys, schema,
                     description):
        left_rows = max(1.0, left_root.est_rows)
        right_rows = max(1.0, right_root.est_rows)
        row_size = left_root.row_size + right_root.row_size
        if equi_keys is None:
            if kind in ("right", "full"):
                raise BindError(
                    "%s OUTER JOIN requires an equality join condition" % kind.upper()
                )
            join = ops.NestedLoops(kind, left_root, right_root, predicate, schema,
                                   [description])
            rows = self._join_cardinality(left_rows, right_rows, None, left_root, right_root)
            join.set_estimates(rows, row_size, 0.0,
                               costmodel.nested_loop_cpu(left_rows, right_rows))
            return join
        left_keys, right_keys, residual = equi_keys
        rows = self._join_cardinality(left_rows, right_rows, (left_keys, right_keys),
                                      left_root, right_root)
        nested_cost = costmodel.nested_loop_cpu(left_rows, right_rows)
        hash_cost = costmodel.hash_join_cpu(right_rows, left_rows)
        # A clustered-index scan delivers rows sorted by the leading column,
        # so joins on leading columns can merge without sorting.
        left_sorted = _sorted_on(left_root, left_keys[0])
        right_sorted = _sorted_on(right_root, right_keys[0])
        merge_cost = (
            (0.0 if left_sorted else costmodel.sort_cpu(left_rows))
            + (0.0 if right_sorted else costmodel.sort_cpu(right_rows))
            + costmodel.merge_join_cpu(left_rows, right_rows)
        )
        if kind in ("right", "full"):
            choice = "hash"
        elif nested_cost <= min(hash_cost, merge_cost):
            choice = "nested"
        elif merge_cost < hash_cost and residual is None and kind == "inner":
            choice = "merge"
        else:
            choice = "hash"
        if choice == "nested":
            join = ops.NestedLoops(kind, left_root, right_root, predicate, schema,
                                   [description])
            join.set_estimates(rows, row_size, 0.0, nested_cost)
            return join
        if choice == "merge":
            join = ops.MergeJoin(kind, left_root, right_root, left_keys, right_keys,
                                 schema, [description])
            join.set_estimates(rows, row_size, 0.0, merge_cost)
            return join
        join = ops.HashMatch(kind, left_root, right_root, left_keys, right_keys, residual,
                             schema, [description])
        join.set_estimates(rows, row_size, 0.0, hash_cost)
        return join

    def _join_cardinality(self, left_rows, right_rows, keys, left_root, right_root):
        if keys is None:
            return max(1.0, left_rows * right_rows * 0.1)
        left_keys, right_keys = keys
        distinct = max(
            self._distinct_estimate(left_root, left_keys[0]),
            self._distinct_estimate(right_root, right_keys[0]),
            1.0,
        )
        return max(1.0, left_rows * right_rows / distinct)

    def _distinct_estimate(self, operator, key_expr):
        if isinstance(operator, (ops.ClusteredIndexScan, ops.ClusteredIndexSeek)):
            if isinstance(key_expr, BoundColumn):
                return float(operator.table.stats.distinct_count(key_expr.name))
        return max(1.0, operator.est_rows * 0.7)

    # -- WHERE ---------------------------------------------------------------------------

    def _plan_where(self, where, source):
        subplans = []
        predicate = self._executable(where, subplans)
        conjuncts = _split_conjuncts(predicate)
        seek_predicates = []
        residual = []
        if isinstance(source, ops.ClusteredIndexScan):
            leading = source.table.clustered_prefix.lower()
            for conjunct in conjuncts:
                if self._is_sargable(conjunct, leading):
                    seek_predicates.append(conjunct)
                else:
                    residual.append(conjunct)
        else:
            residual = conjuncts
        if seek_predicates:
            seek_pred = _combine_and(seek_predicates)
            seek_sel = self._selectivity(seek_pred, source)
            rows = max(1.0, source.est_rows * seek_sel)
            seek = ops.ClusteredIndexSeek(
                source.table, source.schema, seek_pred,
                [conjunct.describe() for conjunct in seek_predicates],
            )
            seek.set_estimates(
                rows,
                source.row_size,
                costmodel.seek_io(rows, source.row_size),
                costmodel.scan_cpu(rows),
            )
            seek.seek_range = self._seek_range_hint(seek_predicates, seek.table)
            source = seek
        # Predicate pushdown: SQL Server evaluates residual predicates
        # inside scans/seeks (and below sorts/projections) rather than with
        # a standalone Filter; a Filter operator only survives when the
        # predicate cannot move (e.g. sits above an aggregate or join it
        # cannot commute with, or contains a subquery).
        leftover = []
        for conjunct in residual:
            selectivity = self._selectivity(conjunct, source)
            if contains_subquery(conjunct) or not self._push_predicate(
                source, conjunct, selectivity
            ):
                leftover.append(conjunct)
        # Feedback hook: the operator's predicate set is final here (seek
        # conjuncts plus every pushed residual), so its plan site matches
        # what a profiled run harvested.  Must run before the leftover
        # Filter is costed — its estimate builds on this one.
        self._apply_feedback(source)
        if leftover:
            residual_pred = _combine_and(leftover)
            rows = max(1.0, (source.est_rows or 1.0) * self._selectivity(residual_pred, source))
            flt = ops.Filter(source, residual_pred,
                             [c.describe() for c in leftover])
            flt.subplans.extend(subplans)
            flt.set_estimates(
                rows, source.row_size, 0.0,
                costmodel.FILTER_CPU_PER_ROW * max(1.0, source.est_rows) * len(leftover),
            )
            self._apply_feedback(flt)
            source = flt
        elif subplans:
            source.subplans.extend(subplans)
        return source

    def _push_predicate(self, operator, conjunct, selectivity):
        """Try to evaluate ``conjunct`` inside ``operator``'s subtree.

        Returns True when the predicate found a home (scan/seek residual, an
        existing Filter, or below a projection/sort/join side); estimates
        along the visited path are scaled by ``selectivity``.
        """
        if isinstance(operator, (ops.ClusteredIndexScan, ops.ClusteredIndexSeek)):
            operator.add_residual(conjunct, conjunct.describe())
            operator.est_rows = max(1.0, operator.est_rows * selectivity)
            operator.cpu_cost += costmodel.FILTER_CPU_PER_ROW * operator.est_rows
            return True
        if isinstance(operator, ops.ComputeScalar):
            exprs = operator.exprs

            def substitute(slot):
                return exprs[slot] if slot < len(exprs) else None

            rebased = rebase_expr(conjunct, substitute)
            if rebased is not None and self._push_predicate(
                operator.children[0], rebased, selectivity
            ):
                operator.est_rows = max(1.0, operator.est_rows * selectivity)
                return True
            return False
        if isinstance(operator, (ops.Sort, ops.Segment)):
            # Filtering commutes with ordering, segmentation and DISTINCT.
            if getattr(operator, "output_width", None) is not None:
                width = operator.output_width
                if any(slot >= width for slot in referenced_slots(conjunct)):
                    return False
            if self._push_predicate(operator.children[0], conjunct, selectivity):
                operator.est_rows = max(1.0, operator.est_rows * selectivity)
                return True
            return False
        if isinstance(operator, ops.Filter):
            if self._push_predicate(operator.children[0], conjunct, selectivity):
                operator.est_rows = max(1.0, operator.est_rows * selectivity)
                return True
            operator.predicate = _combine_and([operator.predicate, conjunct])
            operator.filters.append(conjunct.describe())
            operator.est_rows = max(1.0, operator.est_rows * selectivity)
            return True
        if isinstance(operator, ops.StreamAggregate):
            # A predicate over the grouping key commutes with aggregation.
            key_count = len(operator.key_exprs)
            slots = referenced_slots(conjunct)
            if slots and all(slot < key_count for slot in slots):
                keys = operator.key_exprs

                def substitute_key(slot):
                    return keys[slot] if slot < key_count else None

                rebased = rebase_expr(conjunct, substitute_key)
                if rebased is not None and self._push_predicate(
                    operator.children[0], rebased, selectivity
                ):
                    operator.est_rows = max(1.0, operator.est_rows * selectivity)
                    return True
            return False
        if isinstance(operator, (ops.HashMatch, ops.NestedLoops, ops.MergeJoin)):
            kind = operator.kind
            left_width = len(operator.children[0].schema)
            slots = referenced_slots(conjunct)
            if not slots:
                return False
            if all(slot < left_width for slot in slots) and kind in (
                "inner", "left", "cross", "semi", "anti"
            ):
                if self._push_predicate(operator.children[0], conjunct, selectivity):
                    operator.est_rows = max(1.0, operator.est_rows * selectivity)
                    return True
                return False
            if all(slot >= left_width for slot in slots) and kind in ("inner", "cross"):
                rebased = rebase_expr(
                    conjunct,
                    lambda slot: BoundColumn(
                        slot - left_width,
                        operator.children[1].schema[slot - left_width].sql_type,
                        operator.children[1].schema[slot - left_width].name,
                    ),
                )
                if rebased is not None and self._push_predicate(
                    operator.children[1], rebased, selectivity
                ):
                    operator.est_rows = max(1.0, operator.est_rows * selectivity)
                    return True
            return False
        return False

    def _is_sargable(self, conjunct, leading_column):
        """Whether a conjunct can be answered by the clustered index.

        SQLShare's backend clusters every table on *all* columns in column
        order (§3.4), so any column-vs-literal comparison is index-supported;
        this is what makes Listing 1's ``income > 500000`` a seek even though
        ``income`` is not the leading column.
        """
        del leading_column  # the index covers every column
        if isinstance(conjunct, BoundBinary) and conjunct.op in _COMPARISONS:
            sides = (conjunct.left, conjunct.right)
            columns = [s for s in sides if isinstance(s, BoundColumn)]
            literals = [s for s in sides if isinstance(s, BoundLiteral)]
            return len(columns) == 1 and len(literals) == 1
        return False

    def _selectivity(self, predicate, source):
        table = None
        if isinstance(source, (ops.ClusteredIndexScan, ops.ClusteredIndexSeek)):
            table = source.table
        return _predicate_selectivity(predicate, table, self.selectivity_defaults)

    def _seek_range_hint(self, seek_predicates, table):
        """Bisect hint for the seek fast path (see ClusteredIndexSeek).

        Returns ``(row slot, op, literal value)`` for the first
        range/equality conjunct on the table's sorted clustered column, or
        None.  ``<>`` never narrows a range; literal-on-the-left flips the
        comparison direction.
        """
        clustered = table.clustered_prefix.lower()
        for conjunct in seek_predicates:
            if not (
                isinstance(conjunct, BoundBinary)
                and conjunct.op in ("=", "<", ">", "<=", ">=")
            ):
                continue
            sides = (conjunct.left, conjunct.right)
            columns = [s for s in sides if isinstance(s, BoundColumn)]
            literals = [s for s in sides if isinstance(s, BoundLiteral)]
            if len(columns) != 1 or len(literals) != 1:
                continue
            column, literal = columns[0], literals[0]
            if column.name.lower() != clustered:
                continue
            op = conjunct.op
            if conjunct.left is literal:
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
            return (column.slot, op, literal.value)
        return None

    def _apply_feedback(self, operator):
        """Replace an estimate with an observed cardinality, when one exists.

        The feedback view owns all site-key computation; the planner only
        overwrites ``est_rows`` (and the I/O-proportional costs of leaf
        accesses) and stamps the provenance so EXPLAIN can show which
        estimates came from observation rather than heuristics.
        """
        feedback = self._feedback
        if feedback is None:
            return
        observed = feedback.estimate_for(operator)
        if observed is None:
            return
        rows = max(1.0, float(observed))
        operator.est_rows = rows
        operator.properties["EstimateSource"] = "feedback"
        if isinstance(operator, (ops.ClusteredIndexScan, ops.ClusteredIndexSeek)):
            operator.io_cost = costmodel.seek_io(rows, operator.row_size)
            operator.cpu_cost = costmodel.scan_cpu(rows)

    # -- aggregation ---------------------------------------------------------------------

    def _plan_aggregate(self, select, source):
        subplans = []
        key_exprs = [self._executable(key, subplans) for key in select.group_keys]
        agg_specs = [(name, self._executable(arg, subplans), distinct)
                     for name, arg, distinct in select.aggregates]
        out_columns = select.aggregate_schema
        aggregate = ops.StreamAggregate(
            source, key_exprs, agg_specs, out_columns, scalar=not select.group_keys
        )
        aggregate.subplans.extend(subplans)
        rows = self._group_cardinality(select.key_stats, source)
        aggregate.set_estimates(
            rows, _schema_width(out_columns), 0.0,
            costmodel.aggregate_cpu(source.est_rows) + costmodel.sort_cpu(source.est_rows),
        )
        self._apply_feedback(aggregate)
        return aggregate

    def _group_cardinality(self, key_stats, source):
        if not key_stats:
            return 1.0
        estimate = 1.0
        for stats in key_stats:
            if stats is not None:
                table, column = stats
                estimate *= max(1.0, table.stats.distinct_count(column))
            else:
                estimate *= max(1.0, (source.est_rows or 1.0) ** 0.5)
        return max(1.0, min(estimate, source.est_rows or 1.0))

    # -- window functions --------------------------------------------------------------------

    def _plan_windows(self, select, source):
        subplans = []
        specs = []
        for spec in select.windows:
            arg = self._executable(spec.arg_expr, subplans)
            default = self._executable(spec.default_expr, subplans)
            specs.append(WindowSpec(
                spec.func_name, arg,
                [self._executable(expr, subplans) for expr in spec.partition_exprs],
                [self._executable(expr, subplans) for expr in spec.order_exprs],
                spec.order_descendings, spec.ntile_buckets,
                offset=spec.offset, default_expr=default,
            ))
        out_columns = select.window_schema
        segment = ops.Segment(source)
        segment.set_estimates(source.est_rows, source.row_size, 0.0,
                              costmodel.CPU_PER_ROW * max(1.0, source.est_rows))
        project = ops.SequenceProject(segment, specs, out_columns)
        project.subplans.extend(subplans)
        project.set_estimates(
            source.est_rows, _schema_width(out_columns), 0.0,
            costmodel.sort_cpu(source.est_rows) * len(specs),
        )
        return project

    # -- ORDER BY -------------------------------------------------------------------------------

    def _order(self, root, order, out_columns, projection):
        """Sort ``root`` by the bound ORDER BY keys.

        A key bound over the projection's input (``hidden``, an item not in
        the select list) is evaluated by the projection into an extra slot
        the output schema ignores; when the projection was elided as an
        identity, the projection's input *is* ``root`` and the key applies
        as it stands.  The plans of subqueries in a key are the subplans of
        the operator that evaluates it: the projection for a hidden key,
        the Sort otherwise.
        """
        key_exprs = []
        descendings = []
        subplans = []
        original_width = len(root.schema)
        for expr, descending, hidden in order:
            if hidden is not None and projection is not None:
                key = self._executable(expr, projection.subplans)
                projection.exprs.append(key)
                projection.schema.append(hidden)
                key = BoundColumn(len(projection.schema) - 1, key.sql_type, hidden.name)
            else:
                key = self._executable(expr, subplans)
            key_exprs.append(key)
            descendings.append(descending)
        hidden_width = len(root.schema) - original_width
        sort = ops.Sort(
            root, key_exprs, descendings,
            output_width=original_width if hidden_width else None,
        )
        sort.subplans.extend(subplans)
        sort.set_estimates(root.est_rows, root.row_size, 0.0,
                           costmodel.sort_cpu(root.est_rows))
        sort.schema = list(out_columns)
        return sort


# --------------------------------------------------------------------------
# Module-level helpers
# --------------------------------------------------------------------------


def _sorted_on(operator, key_expr):
    """Whether an input already delivers rows ordered by the join key."""
    if isinstance(operator, (ops.ClusteredIndexScan, ops.ClusteredIndexSeek)):
        return (
            isinstance(key_expr, BoundColumn)
            and key_expr.name.lower() == operator.table.clustered_prefix.lower()
        )
    return False


def _split_conjuncts(predicate):
    if isinstance(predicate, BoundBinary) and predicate.op == "and":
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


def _combine_and(predicates):
    if not predicates:
        return None
    combined = predicates[0]
    for predicate in predicates[1:]:
        combined = BoundBinary("and", combined, predicate, SQLType.BIT)
    return combined


def _predicate_selectivity(predicate, table, defaults=costmodel.DEFAULTS):
    """Heuristic predicate selectivity.

    Statistics win when they apply; otherwise every guess reads through the
    ``defaults`` bundle (:class:`repro.engine.cost.SelectivityDefaults`) —
    the single override point for retuning the fallback magic numbers.
    """
    if predicate is None:
        return 1.0
    if isinstance(predicate, BoundBinary):
        if predicate.op == "and":
            return costmodel.conjunct_selectivity(
                [
                    _predicate_selectivity(predicate.left, table, defaults),
                    _predicate_selectivity(predicate.right, table, defaults),
                ]
            )
        if predicate.op == "or":
            return costmodel.disjunct_selectivity(
                _predicate_selectivity(predicate.left, table, defaults),
                _predicate_selectivity(predicate.right, table, defaults),
            )
        if predicate.op == "=":
            column = _column_side(predicate)
            if column is not None and table is not None:
                return 1.0 / max(1.0, table.stats.distinct_count(column.name))
            return defaults.equality
        if predicate.op in ("<", ">", "<=", ">=", "<>"):
            column = _column_side(predicate)
            if column is not None and table is not None:
                literal = (
                    predicate.right if isinstance(predicate.right, BoundLiteral)
                    else predicate.left
                )
                op = predicate.op
                if predicate.left is literal:
                    # literal OP column: flip the comparison direction.
                    op = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "<>": "<>"}[op]
                estimated = table.stats.range_selectivity(
                    column.name, op, literal.value
                )
                if estimated is not None:
                    return estimated
            return defaults.range
    if isinstance(predicate, BoundLike):
        return defaults.like
    if isinstance(predicate, BoundIsNull):
        return 1.0 - defaults.null if predicate.negated else defaults.null
    if isinstance(predicate, BoundUnary) and predicate.op == "not":
        return max(0.0, 1.0 - _predicate_selectivity(predicate.operand, table, defaults))
    return defaults.unknown


def _column_side(predicate):
    sides = (predicate.left, predicate.right)
    columns = [s for s in sides if isinstance(s, BoundColumn)]
    literals = [s for s in sides if isinstance(s, BoundLiteral)]
    if len(columns) == 1 and len(literals) == 1:
        return columns[0]
    return None


def _schema_width(columns):
    return float(sum(TYPE_WIDTH[c.sql_type] for c in columns)) + costmodel.ROW_OVERHEAD
