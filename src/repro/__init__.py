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

import sys
import types

from repro._version import __version__


class _Package(types.ModuleType):
    """The one lazy re-export rule of every package ``__init__``.

    PEP 562's module ``__getattr__``, held on the module's class: an
    export is imported from its owning module on first read, and the
    class also sees the import system bind a loaded submodule on its
    package, so an export named like its own submodule
    (``repro.analysis.sweep``) keeps its place.
    """

    def __getattr__(self, name: str):
        if name not in self._owners:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        # __import__, not importlib: -X importtime reports this import.
        value = getattr(__import__(self._owners[name], fromlist=(name,)), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        owner = self._owners.get(name)
        if isinstance(value, types.ModuleType) and owner == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted(set(self.__dict__) | set(self.__dict__.get("__all__", ())))


def _reexport(package: str, exports: dict[str, str]) -> None:
    """Give ``package`` the rule over ``exports``: each owning module
    and the names it exports, which become a name -> owner table."""
    module = sys.modules[package]
    module._owners = {
        name: owner for owner, names in exports.items() for name in names.split()
    }
    module.__class__ = _Package


_reexport(__name__, {
    "repro.analysis.probability": "cheat_success_probability required_sample_size",
    "repro.baselines.double_check": "DoubleCheckScheme",
    "repro.baselines.hardening": "HardenedProbeScheme",
    "repro.baselines.naive_sampling": "NaiveSamplingScheme",
    "repro.baselines.ringer": "RingerScheme",
    "repro.cheating.strategies": "ColludingCheater HonestBehavior SemiHonestCheater",
    "repro.cheating.guessing": "UniformValueGuess",
    "repro.core.cbs": "CBSScheme",
    "repro.core.ni_cbs": "NICBSParticipant NICBSScheme",
    "repro.grid.simulation": "GridSimulation SimulationConfig",
    "repro.tasks.screener": "MatchScreener ThresholdScreener",
    "repro.tasks.workloads": "MoleculeScreening PasswordSearch SignalSearch",
    "repro.tasks.domain": "RangeDomain",
    "repro.tasks.result": "TaskAssignment",
})

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
