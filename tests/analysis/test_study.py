"""The study's shape contract: every row of the paper's results holds on a
small seeded study, and a planted flip (the two workloads swapped) fails
the rows that compare them."""

import pytest

from repro.analysis import study
from repro.cli import main

SCALE = 0.02


@pytest.fixture(scope="module")
def built():
    return study.build(SCALE)


@pytest.fixture(scope="module")
def measured(built):
    return study.measure(built)


@pytest.fixture(scope="module")
def swapped(built):
    return study.measure(built._replace(catalog=built.sdss_catalog,
                                        sdss_catalog=built.catalog))


def _failed(rows):
    return [(r.section, r.statistic, r.measured) for r in rows if not r.holds]


def test_every_contract_row_holds(measured):
    rows = study.contract(measured)
    assert len(rows) == 71
    assert _failed(rows) == []


def test_every_paper_section_has_rows(measured):
    sections = {r.section for r in study.contract(measured)}
    assert sections == {
        "table2a", "table2b", "fig4", "sec51", "sec52", "fig6", "sec53", "fig7",
        "fig8", "fig9", "fig10", "table3", "table4", "sec62", "fig11", "fig12",
        "fig13", "sec64"}


def test_swapped_workloads_fail_table3(swapped):
    rows = study.contract(swapped)
    table3 = [r for r in rows if r.section == "table3"]
    assert len(table3) == 6
    assert not any(r.holds for r in table3)
    # Rows that read only the SQLShare platform are untouched by the swap.
    assert all(r.holds for r in rows if r.section in ("table2a", "sec51", "sec52"))


def test_report_ends_with_the_contract(built, measured):
    rows = study.contract(measured)
    text = study.render(built, measured, rows)
    for title in ("Table 2a", "Fig 4", "Table 3", "Table 4b", "Sec 6.4", "total wall time"):
        assert title in text
    assert text.index("total wall time") < text.index("Shape contract: 71 of 71 rows hold")


@pytest.mark.parametrize("flip, code", [(False, 0), (True, 1)])
def test_analyze_exit_code_follows_the_contract(monkeypatch, capsys, built, measured,
                                                swapped, flip, code):
    monkeypatch.setattr(study, "build", lambda scale, echo=None: built)
    monkeypatch.setattr(study, "measure", lambda _study: swapped if flip else measured)
    assert main(["analyze", "--scale", str(SCALE)]) == code
    out = capsys.readouterr().out
    assert ("FAIL" in out) == flip
