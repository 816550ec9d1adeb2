"""Workload substrate: domains, task functions and screeners (paper §2.1).

The paper's computation model is a function ``f : X -> T`` over a finite
domain, partitioned into per-participant subdomains ``D``, plus a
screener ``S(x, f(x))`` that selects the "results of interest" actually
reported to the supervisor.  This package provides:

* :class:`~repro.tasks.domain.Domain` implementations
  (:class:`~repro.tasks.domain.RangeDomain`,
  :class:`~repro.tasks.domain.ExplicitDomain`) with partitioning.
* :class:`~repro.tasks.function.TaskFunction` — the black-box ``f`` with
  an abstract per-evaluation cost ``C_f``, an optional cheap verifier
  (the paper's factoring example), and a one-wayness flag that gates
  the ringer baseline.
* Concrete workloads in :mod:`repro.tasks.workloads` modelled on the
  paper's motivating applications (password search / key cracking,
  smallpox-style molecule screening, SETI-style signal search, GIMPS
  Mersenne testing, Monte-Carlo estimation, optimization search).
* :class:`~repro.tasks.screener.Screener` implementations.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.tasks.domain": "RangeDomain ExplicitDomain",
    "repro.tasks.function": "TaskFunction",
    "repro.tasks.result": "TaskAssignment",
    "repro.tasks.screener": "MatchScreener ThresholdScreener TopKScreener",
    "repro.tasks.workloads": (
        "PasswordSearch FactoringTask MoleculeScreening SignalSearch MersenneCheck "
        "MonteCarloEstimate OptimizationSearch"
    ),
})

__all__ = [
    "RangeDomain",
    "ExplicitDomain",
    "TaskFunction",
    "TaskAssignment",
    "MatchScreener",
    "ThresholdScreener",
    "TopKScreener",
    "PasswordSearch",
    "FactoringTask",
    "MoleculeScreening",
    "SignalSearch",
    "MersenneCheck",
    "MonteCarloEstimate",
    "OptimizationSearch",
]
