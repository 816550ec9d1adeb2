"""Baseline anti-cheating schemes the paper builds on or compares with.

* :class:`~repro.baselines.double_check.DoubleCheckScheme` — assign the
  same task to several participants and compare (§1's "straightforward
  solution"; BOINC-style redundancy).  Wastes cycles, ``O(n)`` traffic.
* :class:`~repro.baselines.naive_sampling.NaiveSamplingScheme` — the
  §1 "improved solution": participant returns *all* results, supervisor
  spot-checks ``m``.  Detection like CBS, still ``O(n)`` traffic.
* :class:`~repro.baselines.ringer.RingerScheme` — Golle–Mironov [8]:
  pre-computed secret images the participant must rediscover.  Only
  sound for one-way ``f`` (§1.1) — enforced at construction.
* :class:`~repro.baselines.hardening.HardenedProbeScheme` — Szajda,
  Lawson & Owen [10]-style planted probes for optimization and
  Monte-Carlo workloads where ringers don't apply.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.baselines.double_check": "DoubleCheckScheme",
    "repro.baselines.naive_sampling": "NaiveSamplingScheme",
    "repro.baselines.ringer": "RingerScheme",
    "repro.baselines.hardening": "HardenedProbeScheme",
})
