"""Convenience builders shared by examples, tests and benchmarks.

``scale`` 1.0 approximates the paper's corpus sizes (591 users / 24k
queries for SQLShare; the SDSS side is generated at 200k instead of 7M
with the same internal ratios — see EXPERIMENTS.md).
"""

from repro.synth.sdss_workload import SDSSWorkloadGenerator
from repro.synth.sqlshare_workload import SQLShareWorkloadGenerator

#: Paper-scale constants.
PAPER_USERS = 591
PAPER_SDSS_QUERIES = 200000


def build_sqlshare_deployment(scale=0.1, seed=42):
    """Generate a SQLShare deployment; returns (platform, generator)."""
    generator = SQLShareWorkloadGenerator(seed=seed, users=PAPER_USERS, scale=scale)
    platform = generator.generate()
    return platform, generator


def build_sdss_workload(scale=0.1, seed=7):
    """Generate the SDSS comparator; returns (workload, generator)."""
    total = max(500, int(PAPER_SDSS_QUERIES * scale))
    generator = SDSSWorkloadGenerator(seed=seed, total_queries=total)
    workload = generator.generate()
    return workload, generator


# -- replayable workload ------------------------------------------------------


def replayable_queries(platform, limit=None):
    """(user, sql) pairs from the log that can be re-executed today.

    Only successful entries whose referenced objects all still exist
    qualify — the generator's upload/process/download/delete users leave
    log entries against dropped tables, which would fail on replay.  The
    check covers the *transitive* closure the original plan reached
    (``entry.tables``/``entry.views``), not just the named datasets:
    deleting a base dataset leaves dependent views in the catalog that no
    longer plan.
    """
    catalog = platform.db.catalog
    pairs = []
    for entry in platform.log.successful():
        if not all(platform.has_dataset(name) for name in entry.datasets):
            continue
        if not all(catalog.has_object(name)
                   for name in list(entry.tables) + list(entry.views)):
            continue
        pairs.append((entry.owner, entry.sql))
        if limit is not None and len(pairs) >= limit:
            break
    return pairs
