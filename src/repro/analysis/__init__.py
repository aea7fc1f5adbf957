"""Analyses of Sections 5 and 6 of the paper.

Each module reproduces one cluster of findings:

- :mod:`repro.analysis.idioms` -- schematization idioms (§5.1)
- :mod:`repro.analysis.sharing` -- views, permissions, view depth (§5.2, Fig 6)
- :mod:`repro.analysis.features` -- SQL feature usage (§5.3)
- :mod:`repro.analysis.complexity` -- length / operator complexity (§6.1, Figs 7-10)
- :mod:`repro.analysis.diversity` -- workload entropy and expressions (§6.2, Tables 3-4)
- :mod:`repro.analysis.reuse` -- cached-subtree reuse estimation (§6.2)
- :mod:`repro.analysis.lifetimes` -- dataset lifetime / coverage (§6.3, Figs 4, 11, 12)
- :mod:`repro.analysis.users` -- user classification (§6.4, Fig 13)
- :mod:`repro.analysis.hygiene` -- static-analysis error/smell rates per
  user archetype (builds on :mod:`repro.engine.semantic` and
  :mod:`repro.lint`)
- :mod:`repro.analysis.estimation` -- cardinality-estimation quality
  (q-error) from profiled workload replay (builds on :mod:`repro.obs`)
- :mod:`repro.analysis.study` -- the whole study: builds both workloads,
  renders every table/figure above and checks the paper's claims as a
  shape contract (``repro analyze``)
"""
