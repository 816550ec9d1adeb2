"""repro — a reproduction of *Uncheatable Grid Computing* (Du et al., ICDCS 2004).

The package implements the paper's Commitment-Based Sampling (CBS)
scheme — Merkle-tree commitments plus random sampling that let a grid
supervisor verify, with ``O(m log n)`` communication, that an untrusted
participant really evaluated ``f`` over its whole input domain — along
with the non-interactive variant (NI-CBS), the §3.3 storage
optimization, the baseline schemes the paper positions itself against
(double-checking, naive sampling, Golle–Mironov ringers, Szajda-style
hardening), adversary models, a grid simulator with byte-accurate cost
accounting, and the closed-form analyses (Eq. 2/3/5, Fig. 2, rco).

Quickstart::

    from repro import (
        CBSScheme, HonestBehavior, SemiHonestCheater,
        PasswordSearch, RangeDomain, TaskAssignment,
    )

    task = TaskAssignment("job-0", RangeDomain(0, 1 << 16), PasswordSearch())
    scheme = CBSScheme(n_samples=20)

    honest = scheme.run(task, HonestBehavior(), seed=7)
    assert honest.outcome.accepted                 # Theorem 1 (soundness)

    lazy = scheme.run(task, SemiHonestCheater(honesty_ratio=0.5), seed=7)
    assert not lazy.outcome.accepted               # caught w.p. 1 - 0.5^20

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
per-figure reproduction harnesses (indexed in README "Benchmarks").
"""

from repro._version import __version__
from repro.analysis import cheat_success_probability, required_sample_size
from repro.baselines import (
    DoubleCheckScheme,
    HardenedProbeScheme,
    NaiveSamplingScheme,
    RingerScheme,
)
from repro.cheating import (
    ColludingCheater,
    HonestBehavior,
    SemiHonestCheater,
    UniformValueGuess,
)
from repro.core import CBSScheme, NICBSParticipant, NICBSScheme
from repro.grid import GridSimulation, SimulationConfig
from repro.tasks import (
    MatchScreener,
    MoleculeScreening,
    PasswordSearch,
    RangeDomain,
    SignalSearch,
    TaskAssignment,
    ThresholdScreener,
)

__all__ = [
    "__version__",
    # analysis
    "cheat_success_probability",
    "required_sample_size",
    # baselines
    "DoubleCheckScheme",
    "NaiveSamplingScheme",
    "RingerScheme",
    "HardenedProbeScheme",
    # cheating
    "HonestBehavior",
    "SemiHonestCheater",
    "ColludingCheater",
    "UniformValueGuess",
    # core
    "CBSScheme",
    "NICBSScheme",
    "NICBSParticipant",
    # grid
    "GridSimulation",
    "SimulationConfig",
    # tasks
    "RangeDomain",
    "TaskAssignment",
    "PasswordSearch",
    "MoleculeScreening",
    "SignalSearch",
    "MatchScreener",
    "ThresholdScreener",
]
