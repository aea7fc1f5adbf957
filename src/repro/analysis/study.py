"""The paper's study in one place: build it, measure it, check its shape.

``repro analyze --scale S`` runs :func:`main`:

- :func:`build` generates the SQLShare deployment at ``scale`` (seed 42)
  and the SDSS comparator at ``scale / 5`` (seed 7), then runs the
  two-phase extraction over both;
- :func:`measure` computes every table and figure of §5-§6 once;
- :func:`contract` states the paper's claims as rows
  ``(section, statistic, paper, measured, holds)``;
- :func:`render` prints the paper-vs-measured report, then the contract.

The contract checks the *shape* of each result (who wins, by roughly
what factor, which pattern dominates), not the paper's absolute values:
the substrate is a synthetic corpus on a from-scratch engine.  Each row
keeps the comparison and threshold of the claim it checks.  Row sections
are the ids EXPERIMENTS.md and DESIGN.md cite (``table3``, ``fig9``, ...).
Tier-1 asserts every row at scale 0.02; 1.0 approximates the paper's
SQLShare corpus.
"""

import collections
import time

from repro.analysis import (complexity, diversity, features, idioms, lifetimes, reuse,
                            sharing, users)
from repro.reporting import bar_chart, cdf_lines, format_kv, format_table, percent_bars
from repro.synth.driver import build_sdss_workload, build_sqlshare_deployment
from repro.workload.extract import WorkloadAnalyzer

SQLSHARE_SEED = 42
SDSS_SEED = 7

#: The original CliffGuard paper's largest chunk distance (§6.4).
CLIFFGUARD_MAX = 0.003

#: One built study: the SQLShare platform and both analyzed catalogs.
#: ``started`` is the build's start (``time.time()``), for the wall-time line.
Study = collections.namedtuple("Study", "platform catalog sdss_catalog started")

#: One claim of the paper.  ``measured`` is rendered text; ``holds`` a bool.
Row = collections.namedtuple("Row", "section statistic paper measured holds")


def build(scale, echo=None):
    """Generate and analyze both workloads; ``echo`` gets progress lines."""
    echo = echo or (lambda line: None)
    started = time.time()
    echo("== generating SQLShare deployment at scale %.2f ==" % scale)
    platform, generator = build_sqlshare_deployment(scale=scale, seed=SQLSHARE_SEED)
    echo("   stats: %s (%.1fs)" % (generator.stats, time.time() - started))
    echo("== generating SDSS comparator ==")
    sdss, _generator = build_sdss_workload(scale=scale / 5.0, seed=SDSS_SEED)
    echo("   %d queries" % len(sdss.log))
    echo("== Phase 1 + Phase 2 ==")
    analyzer = WorkloadAnalyzer(platform, label="sqlshare")
    catalog = analyzer.analyze()
    sdss_catalog = WorkloadAnalyzer(sdss, label="sdss").analyze()
    echo("   sqlshare analyzed %d (skipped %d: datasets deleted since)"
         % (len(catalog), len(analyzer.skipped)))
    return Study(platform, catalog, sdss_catalog, started)


def measure(study):
    """Every table and figure, computed once.  Two-workload results are
    ``(sqlshare, sdss)`` pairs taken from ``catalog`` and ``sdss_catalog``."""
    platform = study.platform
    both = (study.catalog, study.sdss_catalog)
    survey = sharing.SharingSurvey(platform)
    percentages, _parsed, unparsed = features.survey_platform(platform)
    lifetime_curves = lifetimes.lifetime_curves(platform)
    coverage_curves = lifetimes.coverage_curves(platform)
    return {
        "table2a": platform.summary(),
        "table2b": study.catalog.summary(),
        "fig4": lifetimes.queries_per_table(platform),
        "sec51": idioms.CorpusIdiomSurvey(platform).summary(),
        "ragged": sum(1 for r in platform.ingest_reports.values() if r.ragged),
        "sec52": survey.summary(),
        "fig6": survey.view_depth_histogram(),
        "sec53": percentages,
        "unparsed": unparsed,
        "fig7": [complexity.length_histogram(c) for c in both],
        "fig8": [complexity.distinct_operator_distribution(c) for c in both],
        "top_decile": [complexity.top_decile_distinct_operators(c) for c in both],
        "fig9": complexity.operator_frequency(study.catalog),
        "fig10": complexity.operator_frequency(study.sdss_catalog, ignore=()),
        "table3": [diversity.entropy_table(c) for c in both],
        "table4": [diversity.expression_distribution(c) for c in both],
        "sec62": [reuse.estimate_reuse(c) for c in both],
        "fig11": [v for curve in lifetime_curves.values() for v in curve],
        "fig12": [lifetimes.coverage_slope(c) for c in coverage_curves.values()
                  if len(c) > 1],
        "fig13": users.user_points(platform),
        "sec64": diversity.per_user_mozafari(study.catalog),
    }


def contract(m):
    """The paper's claims over measurements ``m``, one :class:`Row` each."""
    rows = []

    def row(section, statistic, paper, measured, holds):
        if isinstance(measured, float):
            measured = "%.2f" % measured
        rows.append(Row(section, statistic, paper, str(measured), bool(holds)))

    s = m["table2a"]
    row("table2a", "queries > 0", "24,275", s["queries"], s["queries"] > 0)
    row("table2a", "derived_views > 0", "4,535", s["derived_views"], s["derived_views"] > 0)
    row("table2a", "derived_views >= 0.25 x datasets", "4,535 of 7,958",
        "%d of %d" % (s["derived_views"], s["datasets"]),
        s["derived_views"] >= 0.25 * s["datasets"])

    s = m["table2b"]
    row("table2b", "mean_length > 50", "217.32", s["mean_length"], s["mean_length"] > 50)
    row("table2b", "mean_operators >= 2.0", "18.12", s["mean_operators"],
        s["mean_operators"] >= 2.0)
    row("table2b", "1.5 <= mean_distinct_operators <= 6.0", "2.71",
        s["mean_distinct_operators"], 1.5 <= s["mean_distinct_operators"] <= 6.0)
    row("table2b", "mean_tables >= 1.0", "2.31", s["mean_tables"], s["mean_tables"] >= 1.0)

    buckets = m["fig4"]
    total = sum(buckets.values())
    row("fig4", "tables queried > 0", "3,891", total, total > 0)
    row("fig4", "queried once >= 0.08 x tables", "1,351 of 3,891",
        "%d of %d" % (buckets["1"], total), buckets["1"] >= 0.08 * total)
    row("fig4", "queried >=5 times >= 0.15 x tables", "1,589 of 3,891",
        "%d of %d" % (buckets[">=5"], total), buckets[">=5"] >= 0.15 * total)

    s = m["sec51"]
    uploads = s["uploads"]
    row("sec51", "derived_datasets > 0", "4,535", s["derived_datasets"],
        s["derived_datasets"] > 0)
    row("sec51", "uploads > 0", "3,891", uploads, uploads > 0)
    row("sec51", "null_injection > 0", "~220", s["null_injection"], s["null_injection"] > 0)
    row("sec51", "cast > 0", "~200", s["cast"], s["cast"] > 0)
    row("sec51", "union_recomposition > 0", "~100", s["union_recomposition"],
        s["union_recomposition"] > 0)
    row("sec51", "renaming > 0", "16% of datasets", s["renaming"], s["renaming"] > 0)
    defaulted = s["uploads_with_default_names"]
    row("sec51", "0.3 <= uploads_with_default_names / uploads <= 0.75", "1,996 of 3,891",
        "%d of %d" % (defaulted, uploads), 0.3 * uploads <= defaulted <= 0.75 * uploads)
    row("sec51", "0.02 <= ragged uploads / uploads <= 0.25", "9%",
        "%d of %d" % (m["ragged"], uploads), 0.02 * uploads <= m["ragged"] <= 0.25 * uploads)

    s = m["sec52"]
    row("sec52", "25 <= derived_pct <= 75", "56%", s["derived_pct"],
        25.0 <= s["derived_pct"] <= 75.0)
    row("sec52", "20 <= public_pct <= 55", "37%", s["public_pct"],
        20.0 <= s["public_pct"] <= 55.0)
    row("sec52", "2 <= shared_pct <= 20", "9%", s["shared_pct"],
        2.0 <= s["shared_pct"] <= 20.0)
    row("sec52", "cross_owner_view_pct > 0", "2.5%", s["cross_owner_view_pct"],
        s["cross_owner_view_pct"] > 0.0)
    row("sec52", "cross_owner_query_pct > 2", ">10%", s["cross_owner_query_pct"],
        s["cross_owner_query_pct"] > 2.0)

    depths = m["fig6"]
    row("fig6", "users with views > 0", "top-100 users", sum(depths.values()),
        sum(depths.values()) > 0)
    row("fig6", "depth 1-3 >= depth 8+", "1-3 dominates",
        "%d vs %d" % (depths["1-3"], depths["8+"]), depths["1-3"] >= depths["8+"])

    pct = m["sec53"]
    row("sec53", "logged queries that fail to re-parse == 0", "-", m["unparsed"],
        m["unparsed"] == 0)
    row("sec53", "12 <= sort <= 40 (%)", "24%", pct["sort"], 12.0 <= pct["sort"] <= 40.0)
    row("sec53", "0.3 <= top_k <= 8 (%)", "2%", pct["top_k"], 0.3 <= pct["top_k"] <= 8.0)
    row("sec53", "3 <= outer_join <= 20 (%)", "11%", pct["outer_join"],
        3.0 <= pct["outer_join"] <= 20.0)
    row("sec53", "0.8 <= window <= 10 (%)", "4%", pct["window"],
        0.8 <= pct["window"] <= 10.0)

    for label, histogram in zip(("sqlshare", "sdss"), m["fig7"]):
        short = histogram["<100"] + histogram["100-500"]
        row("fig7", "%s <500 chars > 80 (%%)" % label, "mostly short", short, short > 80.0)
    for label, histogram in zip(("sqlshare", "sdss"), m["fig7"]):
        summed = sum(histogram.values())
        row("fig7", "%s buckets sum to 100 (%%)" % label, "-", summed,
            abs(summed - 100.0) < 1e-6)

    ours, theirs = m["top_decile"]
    row("fig8", "top-decile distinct operators: sqlshare > sdss", "almost double",
        "%.2f vs %.2f" % (ours, theirs), ours > theirs)

    ops = dict(m["fig9"])
    row("fig9", "Stream Aggregate > 15 (%)", "27.7", ops.get("Stream Aggregate", 0),
        ops.get("Stream Aggregate", 0) > 15.0)
    row("fig9", "Clustered Index Seek > 10 (%)", "22.8", ops.get("Clustered Index Seek", 0),
        ops.get("Clustered Index Seek", 0) > 10.0)
    row("fig9", "Sort > 8 (%)", "11.1", ops.get("Sort", 0), ops.get("Sort", 0) > 8.0)
    row("fig9", "Clustered Index Scan not counted", "ignored",
        "counted" if "Clustered Index Scan" in ops else "absent",
        "Clustered Index Scan" not in ops)
    joins = ops.get("Hash Match", 0) + ops.get("Nested Loops", 0) + ops.get("Merge Join", 0)
    row("fig9", "Hash Match + Nested Loops + Merge Join > 5 (%)", "21.1", joins, joins > 5.0)
    row("fig9", "Filter < Stream Aggregate (%)", "1.8 vs 27.7",
        "%.2f vs %.2f" % (ops.get("Filter", 100), ops.get("Stream Aggregate", 0)),
        ops.get("Filter", 100) < ops.get("Stream Aggregate", 0))

    sdss_ops = dict(m["fig10"])
    top = m["fig10"][0][0] if m["fig10"] else "-"
    row("fig10", "top operator is Compute Scalar or Clustered Index Seek",
        "Compute Scalar", top, top in ("Compute Scalar", "Clustered Index Seek"))
    row("fig10", "Compute Scalar > 30 (%)", "18.0", sdss_ops.get("Compute Scalar", 0),
        sdss_ops.get("Compute Scalar", 0) > 30.0)
    row("fig10", "Stream Aggregate: sdss < sqlshare (%)", "fewer aggregates",
        "%.2f vs %.2f" % (sdss_ops.get("Stream Aggregate", 0),
                          ops.get("Stream Aggregate", 100)),
        sdss_ops.get("Stream Aggregate", 0) < ops.get("Stream Aggregate", 100))

    # A plan template keeps every operator's output column names, aliases
    # included (diversity.plan_template states the rule); these rows are
    # sensitive to it.
    ours, theirs = m["table3"]

    def versus(key, fmt="%d"):
        return (fmt + " vs " + fmt) % (ours[key], theirs[key])

    row("table3", "sqlshare string_distinct_pct > 85", "96%",
        ours["string_distinct_pct"], ours["string_distinct_pct"] > 85.0)
    row("table3", "sdss string_distinct_pct < 15", "3%",
        theirs["string_distinct_pct"], theirs["string_distinct_pct"] < 15.0)
    row("table3", "column_distinct: sqlshare > 10 x sdss", "10,928 vs 467",
        versus("column_distinct"), ours["column_distinct"] > 10 * theirs["column_distinct"])
    row("table3", "column_distinct_pct: sqlshare > sdss", "45.35% vs 0.2%",
        versus("column_distinct_pct", "%.2f"),
        ours["column_distinct_pct"] > theirs["column_distinct_pct"])
    row("table3", "distinct_templates_pct: sqlshare > sdss", "63.07% vs 0.3%",
        versus("distinct_templates_pct", "%.2f"),
        ours["distinct_templates_pct"] > theirs["distinct_templates_pct"])
    row("table3", "distinct_templates: sqlshare > 10 x sdss", "15,199 vs 686",
        versus("distinct_templates"),
        ours["distinct_templates"] > 10 * theirs["distinct_templates"])

    (ranked, distinct), (sdss_ranked, sdss_distinct) = m["table4"]
    ours, theirs = dict(ranked), dict(sdss_ranked)
    first = ranked[0][0] if ranked else "-"
    row("table4", "sqlshare top operator is like or CASE", "like", first,
        first in ("like", "CASE"))
    string_ops = {"like", "patindex", "substring", "isnumeric", "charindex", "len", "upper"}
    present = sorted(string_ops & set(ours))
    row("table4", "sqlshare string operators present >= 4", "6", len(present),
        len(present) >= 4)
    row("table4", "sdss has GetRangeThroughConvert", "25,746",
        theirs.get("GetRangeThroughConvert", 0), "GetRangeThroughConvert" in theirs)
    row("table4", "sdss has BIT_AND", "21,850", theirs.get("BIT_AND", 0), "BIT_AND" in theirs)
    row("table4", "sdss GetRangeThroughConvert > like", "25,746 vs 2,376",
        "%d vs %d" % (theirs.get("GetRangeThroughConvert", 0), theirs.get("like", 0)),
        theirs.get("GetRangeThroughConvert", 0) > theirs.get("like", 0))
    row("table4", "distinct operators: sqlshare > sdss", "89 vs 49",
        "%d vs %d" % (distinct, sdss_distinct), distinct > sdss_distinct)

    ours, theirs = m["sec62"]
    low, high = ours.bimodality()
    row("sec62", "0.15 <= sqlshare saved fraction <= 0.75", "~0.37",
        ours.saved_fraction, 0.15 <= ours.saved_fraction <= 0.75)
    row("sec62", "0 <= sdss saved fraction <= 0.45", "~0.14",
        theirs.saved_fraction, 0.0 <= theirs.saved_fraction <= 0.45)
    row("sec62", "saved fraction: sqlshare > sdss + 0.05", "0.37 vs 0.14",
        "%.2f vs %.2f" % (ours.saved_fraction, theirs.saved_fraction),
        ours.saved_fraction > theirs.saved_fraction + 0.05)
    row("sec62", "queries saving <10% or >90% > 0.5", "bimodal", low + high,
        low + high > 0.5)

    ordered = sorted(m["fig11"])
    median = ordered[len(ordered) // 2] if ordered else 0.0
    longest = ordered[-1] if ordered else 0.0
    row("fig11", "datasets of the 12 most active users > 0", "-", len(ordered),
        len(ordered) > 0)
    row("fig11", "median lifetime < 45 days", "<10 days", median, median < 45.0)
    row("fig11", "longest lifetime > 90 days", "years", longest, longest > 90.0)

    slopes = m["fig12"]
    ad_hoc = sum(1 for slope in slopes if slope <= 1.6)
    row("fig12", "coverage curves > 0", "12 users", len(slopes), len(slopes) > 0)
    row("fig12", "slope <= 1.6 for >= half the users", "ad hoc dominates",
        "%d of %d" % (ad_hoc, len(slopes)), ad_hoc >= len(slopes) / 2.0)

    points = m["fig13"]
    counts = users.category_counts(points)
    one_shots = [p.queries for p in points if p.category == users.ONE_SHOT]
    row("fig13", "users classified >= 3", "591", sum(counts.values()),
        sum(counts.values()) >= 3)
    row("fig13", "exploratory >= analytical", "exploratory dominates",
        "%d vs %d" % (counts[users.EXPLORATORY], counts[users.ANALYTICAL]),
        counts[users.EXPLORATORY] >= counts[users.ANALYTICAL])
    row("fig13", "one-shot users >= 1", "a cluster", counts[users.ONE_SHOT],
        counts[users.ONE_SHOT] >= 1)
    row("fig13", "every one-shot user's queries <= 60", "1-50",
        max(one_shots, default=0), all(q <= 60 for q in one_shots))

    distances = m["sec64"].values()
    above = sum(1 for d in distances if d > 10 * CLIFFGUARD_MAX)
    row("sec64", "users with >= 10 queries > 0", "-", len(distances), len(distances) > 0)
    row("sec64", "distance > 10 x 0.003 for >= 0.6 of users", "orders of magnitude",
        "%d of %d" % (above, len(distances)), above >= len(distances) * 0.6)
    return rows


def render(study, m, rows):
    """The paper-vs-measured report, the wall time, then the contract."""
    pair = ("sqlshare", "sdss")
    ours, theirs = m["table3"]
    (ranked, distinct), (sranked, sdistinct) = m["table4"]
    ours_reuse, theirs_reuse = m["sec62"]
    low, high = ours_reuse.bimodality()
    blocks = [
        format_kv(m["table2a"], title="Table 2a"),
        format_kv(m["table2b"], title="Table 2b"),
        bar_chart(m["fig4"], title="Fig 4"),
        format_kv(m["sec51"], title="Sec 5.1"),
        format_kv(m["sec52"], title="Sec 5.2"),
        bar_chart(m["fig6"], title="Fig 6"),
        format_kv({k: m["sec53"][k] for k in ("sort", "top_k", "outer_join", "window")},
                  title="Sec 5.3 (%)"),
    ]
    blocks += [percent_bars(list(h.items()), title="Fig 7 (%s)" % label)
               for label, h in zip(pair, m["fig7"])]
    blocks += [percent_bars(list(h.items()), title="Fig 8 (%s)" % label)
               for label, h in zip(pair, m["fig8"])]
    blocks[-1] += ("\n   top-decile distinct ops: sqlshare %.2f vs sdss %.2f"
                   % tuple(m["top_decile"]))
    blocks += [
        percent_bars(m["fig9"], title="Fig 9"),
        percent_bars(m["fig10"], title="Fig 10"),
        format_table(["metric", "sqlshare", "sdss"],
                     [(k, ours[k], theirs[k]) for k in ours], title="Table 3"),
        format_table(["op", "count"], ranked[:12], title="Table 4a (%d distinct)" % distinct),
        format_table(["op", "count"], sranked[:8],
                     title="Table 4b (%d distinct)" % sdistinct),
        "Sec 6.2 reuse: sqlshare %.1f%%, sdss %.1f%% "
        "(bimodality: %.0f%% save <10%%, %.0f%% save >90%%)" % (
            100 * ours_reuse.saved_fraction, 100 * theirs_reuse.saved_fraction,
            100 * low, 100 * high),
        cdf_lines(m["fig11"], title="Fig 11 lifetime days (top users)"),
        "Fig 12 coverage slopes (12 most active): %s"
        % ", ".join("%.2f" % s for s in sorted(m["fig12"])),
        format_kv(users.category_counts(m["fig13"]), title="Fig 13 classes"),
        cdf_lines(sorted(m["sec64"].values()),
                  title="Sec 6.4 Mozafari distances (baseline max 0.003)"),
        "total wall time: %.1fs" % (time.time() - study.started),
        render_contract(rows),
    ]
    return "\n".join("\n" + block for block in blocks)


def render_contract(rows):
    failed = sum(1 for r in rows if not r.holds)
    title = "Shape contract: %d of %d rows hold" % (len(rows) - failed, len(rows))
    return format_table(
        ["section", "statistic", "paper", "measured", "holds"],
        [(r.section, r.statistic, r.paper, r.measured, "yes" if r.holds else "FAIL")
         for r in rows],
        title=title)


def main(scale):
    """Build, measure, print; 0 when every contract row holds, else 1."""
    study = build(scale, echo=print)
    measured = measure(study)
    rows = contract(measured)
    print(render(study, measured, rows))
    return 0 if all(r.holds for r in rows) else 1
