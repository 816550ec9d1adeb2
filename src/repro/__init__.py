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
from repro.accounting import CostLedger
from repro.analysis import (
    cheat_success_probability,
    detection_probability,
    fig2_series,
    required_sample_size,
)
from repro.baselines import (
    DoubleCheckScheme,
    HardenedProbeScheme,
    NaiveSamplingScheme,
    RingerScheme,
)
from repro.cheating import (
    Behavior,
    BernoulliGuess,
    ColludingCheater,
    GuessModel,
    HonestBehavior,
    MaliciousBehavior,
    SemiHonestCheater,
    UniformValueGuess,
    ZeroGuess,
)
from repro.core import (
    CBSParticipant,
    CBSScheme,
    CBSSupervisor,
    NICBSParticipant,
    NICBSScheme,
    NICBSSupervisor,
    SchemeRunResult,
    VerificationOutcome,
    VerificationScheme,
)
from repro.engine import (
    Executor,
    ProcessPoolExecutor,
    SchemeJob,
    SerialExecutor,
    ThreadPoolExecutor,
    derive_seed,
    get_executor,
    run_scheme_jobs,
)
from repro.grid import (
    DetectionReport,
    GridSimulation,
    SimulationConfig,
    run_population,
)
from repro.merkle import (
    AuthenticationPath,
    HashFunction,
    IteratedHash,
    MerkleTree,
    PartialMerkleTree,
    StreamingMerkleBuilder,
    get_hash,
)
from repro.tasks import (
    Domain,
    ExplicitDomain,
    FactoringTask,
    MatchScreener,
    MersenneCheck,
    MoleculeScreening,
    MonteCarloEstimate,
    OptimizationSearch,
    PasswordSearch,
    RangeDomain,
    SignalSearch,
    TaskAssignment,
    TaskFunction,
    ThresholdScreener,
    TopKScreener,
)

__all__ = [
    "__version__",
    # accounting
    "CostLedger",
    # analysis
    "cheat_success_probability",
    "detection_probability",
    "required_sample_size",
    "fig2_series",
    # baselines
    "DoubleCheckScheme",
    "NaiveSamplingScheme",
    "RingerScheme",
    "HardenedProbeScheme",
    # cheating
    "Behavior",
    "HonestBehavior",
    "SemiHonestCheater",
    "ColludingCheater",
    "MaliciousBehavior",
    "GuessModel",
    "ZeroGuess",
    "BernoulliGuess",
    "UniformValueGuess",
    # core
    "CBSScheme",
    "CBSParticipant",
    "CBSSupervisor",
    "NICBSScheme",
    "NICBSParticipant",
    "NICBSSupervisor",
    "VerificationScheme",
    "VerificationOutcome",
    "SchemeRunResult",
    # engine
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "get_executor",
    "derive_seed",
    "SchemeJob",
    "run_scheme_jobs",
    # grid
    "GridSimulation",
    "SimulationConfig",
    "DetectionReport",
    "run_population",
    # merkle
    "MerkleTree",
    "PartialMerkleTree",
    "StreamingMerkleBuilder",
    "AuthenticationPath",
    "HashFunction",
    "IteratedHash",
    "get_hash",
    # tasks
    "Domain",
    "RangeDomain",
    "ExplicitDomain",
    "TaskAssignment",
    "TaskFunction",
    "PasswordSearch",
    "FactoringTask",
    "MoleculeScreening",
    "SignalSearch",
    "MersenneCheck",
    "MonteCarloEstimate",
    "OptimizationSearch",
    "MatchScreener",
    "ThresholdScreener",
    "TopKScreener",
]
