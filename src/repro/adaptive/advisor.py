"""Workload-driven physical-design advisor.

The paper's premise is that SQLShare users get *no* DBA: nobody creates
indexes, nobody decides which views deserve materialization.  This module
is the automated stand-in.  It reads the workload the platform already
tracks (the Query Store's per-fingerprint execution counts), plans each
frequent statement with the engine's own cost model — including any
harvested cardinality feedback — and ranks two kinds of physical-design
candidates by **fingerprint frequency × estimated cost saved**:

- **index** — a base table repeatedly filtered on a sargable column that
  is not its clustered order.  Applying the recommendation physically
  re-sorts the table (:meth:`repro.core.sqlshare.SQLShare.recluster_dataset`),
  which lets the seek operator bisect to the matching row range.
- **materialize** — a derived dataset whose defining query does join or
  aggregate work on every reference.  Applying it snapshots the view's
  contents under its own name
  (:meth:`~repro.core.sqlshare.SQLShare.materialize_in_place`); the
  platform demotes the snapshot automatically if upstream data changes.

Recommendations are a dry run by default; :meth:`WorkloadAdvisor.apply`
is the opt-in step, surfaced as ``repro advise --apply`` and
``POST /api/v1/advisor/apply``.
"""

import re

from repro.engine import cost as costmodel
from repro.engine import operators as ops

#: Sargable-comparison prefix of an operator filter description
#: (``BoundBinary.describe()`` renders ``column EQ 'x'``, ``column LT 5``…).
_SARGABLE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*) (?:EQ|LT|GT|LE|GE) ")

#: Queries below this execution count are ignored: a one-off statement
#: cannot justify a physical-design change.
DEFAULT_MIN_EXECUTIONS = 2


def _walk(operator, out):
    out.append(operator)
    for subplan in operator.subplans:
        _walk(subplan, out)
    for child in operator.children:
        _walk(child, out)
    return out


class WorkloadAdvisor(object):
    """Ranks index and materialized-view candidates for one platform."""

    def __init__(self, platform, query_store=None):
        self.platform = platform
        self.query_store = query_store

    # -- recommendation --------------------------------------------------------

    def recommendations(self, top=10, min_executions=DEFAULT_MIN_EXECUTIONS):
        """The ranked dry-run report (the ``repro advise`` payload)."""
        workload = self._workload(min_executions)
        candidates = {}
        for item in workload:
            explained = self._explain(item["sql"])
            if explained is None:
                continue
            plan_ops = _walk(explained.plan, [])
            self._index_candidates(item, plan_ops, candidates)
            self._mv_candidates(item, candidates)
        ranked = sorted(candidates.values(),
                        key=lambda cand: (-cand["score"], cand["dataset"]))
        for rank, candidate in enumerate(ranked, start=1):
            candidate["rank"] = rank
        return {
            "queries_considered": len(workload),
            "min_executions": min_executions,
            "recommendations": ranked[:top],
        }

    def _workload(self, min_executions):
        store = self.query_store
        if store is None:
            return []
        items = []
        for entry in store.entries():
            executions = entry.executions + entry.cache_hits
            if executions < min_executions:
                continue
            items.append({
                "sql": entry.sql,
                "fingerprint": entry.fingerprint,
                "executions": executions,
                "total_seconds": entry.total_seconds,
            })
        items.sort(key=lambda item: -item["executions"])
        return items

    def _explain(self, sql):
        try:
            return self.platform.db.explain(sql)
        except Exception:
            return None  # e.g. a truncated Query Store text; skip it

    def _index_candidates(self, item, plan_ops, out):
        for operator in plan_ops:
            if not isinstance(operator, (ops.ClusteredIndexScan,
                                         ops.ClusteredIndexSeek)):
                continue
            table = operator.table
            dataset = self._dataset_for_table(table.name)
            if dataset is None:
                continue
            for description in operator.filters:
                match = _SARGABLE.match(description)
                if match is None:
                    continue
                column = match.group(1).lower()
                if not any(col.name.lower() == column for col in table.columns):
                    continue
                if (table.clustered_on is not None
                        and table.clustered_on.lower() == column):
                    continue  # already clustered on it
                rows = float(len(table.rows)) or 1.0
                selectivity = min(1.0, max(operator.est_rows, 1.0) / rows)
                saved = ((operator.io_cost + operator.cpu_cost)
                         * (1.0 - selectivity))
                if saved <= 0.0:
                    continue
                key = ("index", dataset.name.lower(), column)
                self._accumulate(out, key, item, saved, {
                    "kind": "index",
                    "dataset": dataset.name,
                    "column": column,
                    "action": "recluster",
                    "reason": ("%d executions filter %s on [%s]; clustering "
                               "enables seek range pruning"
                               % (item["executions"], dataset.name, column)),
                })
                break  # one recommendation per operator

    def _mv_candidates(self, item, out):
        for name in self.platform.db.prepare(item["sql"]).names:
            dataset = self.platform.datasets.get(name.lower())
            if (dataset is None or dataset.kind != "derived"
                    or dataset.base_table):
                continue
            explained = self._explain("SELECT * FROM [%s]" % dataset.name)
            if explained is None:
                continue
            view_cost = explained.plan.total_cost
            plan_ops = _walk(explained.plan, [])
            if not any("Join" in op.logical or "Aggregate" in op.logical
                       for op in plan_ops):
                continue  # a trivial wrapper gains nothing from a snapshot
            est_rows = max(explained.plan.est_rows, 1.0)
            after = (costmodel.seek_io(est_rows, explained.plan.row_size)
                     + costmodel.scan_cpu(est_rows))
            saved = view_cost - after
            if saved <= 0.0:
                continue
            key = ("materialize", dataset.name.lower())
            self._accumulate(out, key, item, saved, {
                "kind": "materialize",
                "dataset": dataset.name,
                "action": "materialize_in_place",
                "reason": ("%d executions re-run the join/aggregate "
                           "definition of [%s]"
                           % (item["executions"], dataset.name)),
            })

    def _accumulate(self, out, key, item, saved_per_execution, payload):
        candidate = out.get(key)
        if candidate is None:
            candidate = out[key] = dict(payload)
            candidate.update({
                "score": 0.0,
                "frequency": 0,
                "estimated_saved_per_execution": 0.0,
                "fingerprints": [],
            })
        candidate["frequency"] += item["executions"]
        candidate["score"] += item["executions"] * saved_per_execution
        candidate["estimated_saved_per_execution"] = max(
            candidate["estimated_saved_per_execution"], saved_per_execution)
        if item["fingerprint"] not in candidate["fingerprints"]:
            candidate["fingerprints"].append(item["fingerprint"])

    def _dataset_for_table(self, table_name):
        lowered = table_name.lower()
        for dataset in self.platform.all_datasets():
            base = dataset.base_table
            if base is not None and base.lower() == lowered:
                return dataset
        return None

    # -- apply (the opt-in step) -----------------------------------------------

    def apply(self, recommendation, owner=None, dry_run=False):
        """Apply one recommendation dict; returns an outcome payload.

        ``owner`` defaults to the target dataset's owner (the advisor is
        an operator surface; ownership checks still run underneath).
        ``dry_run=True`` validates the target without mutating anything.
        """
        kind = recommendation.get("kind")
        dataset = self.platform.dataset(recommendation["dataset"])
        owner = owner or dataset.owner
        if kind == "index":
            column = recommendation["column"]
            if dry_run:
                return {"applied": False, "dry_run": True, "kind": kind,
                        "dataset": dataset.name, "column": column}
            detail = self.platform.recluster_dataset(
                owner, dataset.name, column)
        elif kind == "materialize":
            if dry_run:
                return {"applied": False, "dry_run": True, "kind": kind,
                        "dataset": dataset.name}
            materialized = self.platform.materialize_in_place(
                owner, dataset.name)
            detail = {
                "dataset": materialized.name,
                "base_table": materialized.base_table,
            }
        else:
            raise ValueError("unknown recommendation kind %r" % kind)
        return {"applied": True, "kind": kind, "dataset": dataset.name,
                "detail": detail}
