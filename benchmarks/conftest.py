"""Shared fixtures for the design ablations (``bench_ablation_*.py``).

Each ablation times one design choice and writes its table to
``bench_results/<name>.txt``.  The SQLShare deployment they share is built
once per pytest session at a constant scale 0.05 (seed 42).  The paper's
tables and figures are not here: ``repro analyze --scale S`` regenerates
them and checks their shape (``repro.analysis.study``).
"""

import pathlib

import pytest

from repro.synth.driver import build_sqlshare_deployment
from repro.workload.extract import WorkloadAnalyzer

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "bench_results"

ABLATION_SCALE = 0.05


@pytest.fixture(scope="session")
def sqlshare_catalog():
    platform, _generator = build_sqlshare_deployment(scale=ABLATION_SCALE, seed=42)
    return WorkloadAnalyzer(platform, label="sqlshare").analyze()


@pytest.fixture(scope="session")
def report():
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name, text):
        path = RESULTS_DIR / ("%s.txt" % name)
        path.write_text(text + "\n")
        print("\n" + text)

    return write
