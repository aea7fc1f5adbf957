"""Schematization idiom detection (§5.1: relaxed schemas afford integration).

The paper searches the corpus of derived datasets for SQL idioms that
correspond to schematization tasks users perform *inside* the database:

- NULL injection: a CASE expression replacing special values with NULL;
- post hoc column types: CAST introducing types on existing columns;
- vertical recomposition: UNION stitching decomposed files back together;
- column renaming: aliases assigning semantic names (often to the default
  ``columnN`` names the ingest pipeline generated).
"""

from repro.engine import ast_nodes as ast
from repro.engine.parser import parse
from repro.errors import SQLError
from repro.ingest.ingestor import DEFAULT_COLUMN_TEMPLATE


class IdiomReport(object):
    """Idioms found in one query/view definition."""

    __slots__ = ("null_injection", "cast", "union", "renaming", "renamed_columns")

    def __init__(self):
        self.null_injection = False
        self.cast = False
        self.union = False
        self.renaming = False
        self.renamed_columns = 0

    def any(self):
        return self.null_injection or self.cast or self.union or self.renaming


def detect_idioms(sql):
    """Detect schematization idioms in one SQL text.

    Raises :class:`SQLError` (propagated from the parser) on unparseable
    input; callers typically skip those.
    """
    query = parse(sql)
    report = IdiomReport()
    for node in query.walk():
        if isinstance(node, ast.Case):
            if _case_yields_null(node):
                report.null_injection = True
        elif isinstance(node, ast.Cast):
            report.cast = True
        elif isinstance(node, ast.SetOperation) and node.op == "union":
            report.union = True
        elif isinstance(node, ast.SelectItem):
            if _is_rename(node):
                report.renaming = True
                report.renamed_columns += 1
    return report


def _case_yields_null(case_node):
    """A CASE branch (or its implicit ELSE) producing NULL — the cleaning
    idiom that maps special values like -999 or 'ND' to SQL NULL."""
    for _condition, result in case_node.whens:
        if isinstance(result, ast.Literal) and result.value is None:
            return True
    if case_node.else_result is None:
        # Searched CASE without ELSE yields NULL on fall-through; only count
        # it when some WHEN filters a specific special value (equality).
        return any(
            isinstance(condition, ast.BinaryOp) and condition.op in ("=", "<>")
            for condition, _result in case_node.whens
        )
    return isinstance(case_node.else_result, ast.Literal) and case_node.else_result.value is None


def _is_rename(item):
    """``expr AS name`` where expr is a bare column with a different name."""
    return (
        item.alias is not None
        and isinstance(item.expr, ast.ColumnRef)
        and item.alias.lower() != item.expr.name.lower()
    )


class CorpusIdiomSurvey(object):
    """The §5.1 numbers over a platform's derived datasets and uploads."""

    def __init__(self, platform):
        self.platform = platform
        self.null_injection_datasets = []
        self.cast_datasets = []
        self.union_datasets = []
        self.renaming_datasets = []
        self.unparseable = []
        self._run()

    def _run(self):
        for dataset in self.platform.datasets.values():
            if not dataset.is_derived:
                continue
            try:
                report = detect_idioms(dataset.sql)
            except SQLError:
                self.unparseable.append(dataset.name)
                continue
            if report.null_injection:
                self.null_injection_datasets.append(dataset.name)
            if report.cast:
                self.cast_datasets.append(dataset.name)
            if report.union:
                self.union_datasets.append(dataset.name)
            if report.renaming:
                self.renaming_datasets.append(dataset.name)

    # -- upload-side statistics --------------------------------------------------

    def default_column_name_stats(self):
        """(# uploads with >=1 defaulted name, # uploads with all defaulted,
        total uploads) — the paper's 1996 / 1691 / 3891 trio."""
        some = 0
        every = 0
        total = 0
        for report in self.platform.ingest_reports.values():
            total += 1
            if report.used_default_names:
                some += 1
            if report.all_names_defaulted:
                every += 1
        return some, every, total

    def summary(self):
        derived_total = sum(
            1 for d in self.platform.datasets.values() if d.is_derived
        )
        some_default, all_default, uploads = self.default_column_name_stats()
        datasets_total = len(self.platform.datasets) or 1
        return {
            "derived_datasets": derived_total,
            "null_injection": len(self.null_injection_datasets),
            "cast": len(self.cast_datasets),
            "union_recomposition": len(self.union_datasets),
            "renaming": len(self.renaming_datasets),
            "renaming_pct_of_datasets": 100.0 * len(self.renaming_datasets) / datasets_total,
            "uploads_with_default_names": some_default,
            "uploads_all_default_names": all_default,
            "uploads": uploads,
        }
