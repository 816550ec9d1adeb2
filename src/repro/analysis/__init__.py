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

from repro.analysis.probability import (
    cheat_success_probability,
    detection_probability,
    fig2_series,
    required_sample_size,
)
from repro.analysis.montecarlo import estimate_escape_rate
from repro.analysis.sweep import sweep
from repro.analysis.tables import format_table

__all__ = [
    "cheat_success_probability",
    "detection_probability",
    "required_sample_size",
    "fig2_series",
    "estimate_escape_rate",
    "sweep",
    "format_table",
]
