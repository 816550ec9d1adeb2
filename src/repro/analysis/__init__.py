"""Closed-form analyses and experiment helpers.

* :mod:`repro.analysis.probability` — Eq. (2)/(3): cheat-success
  probability and required sample size (Fig. 2).
* :mod:`repro.analysis.costs` — communication/storage/economics closed
  forms: ``O(m log n)`` vs ``O(n)`` byte models, §3.3 ``rco``, Eq. (5).
* :mod:`repro.analysis.montecarlo` — empirical estimators validating
  the closed forms against real protocol runs.
* :mod:`repro.analysis.sweep` / :mod:`repro.analysis.tables` — sweep
  and table-rendering utilities shared by benches and examples.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.analysis.probability": (
        "cheat_success_probability detection_probability required_sample_size "
        "fig2_series"
    ),
    "repro.analysis.montecarlo": "estimate_escape_rate",
    "repro.analysis.sweep": "sweep",
    "repro.analysis.tables": "format_table",
})
