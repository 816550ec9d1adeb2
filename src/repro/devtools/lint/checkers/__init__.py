"""The rule registry: one module per rule, ~50 lines each."""

from __future__ import annotations

from repro.devtools.lint.checkers.pickle_containment import PickleContainment
from repro.devtools.lint.checkers.locks import LockDiscipline
from repro.devtools.lint.checkers.async_blocking import BlockingInAsync
from repro.devtools.lint.checkers.exceptions import SwallowedException
from repro.devtools.lint.checkers.metrics import MetricsNaming
from repro.devtools.lint.checkers.wire_schema import WireSchemaCoverage

#: Every shipped rule, in rule-ID order (README "Static analysis" lists
#: them in the same order).  Instantiated fresh per run.
ALL_CHECKERS = (
    PickleContainment,
    LockDiscipline,
    BlockingInAsync,
    SwallowedException,
    MetricsNaming,
    WireSchemaCoverage,
)
