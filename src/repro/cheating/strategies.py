"""Participant behaviours: honest, semi-honest cheating, malicious.

A :class:`Behavior` turns a :class:`~repro.tasks.result.TaskAssignment`
into the vector of leaf payloads the participant will commit to,
charging only the work it *actually* performed to the ledger.  The
supervisor never sees behaviours — only commitments, proofs and
reports — which is exactly the paper's threat model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cheating.guessing import GuessModel, ZeroGuess
from repro.exceptions import TaskError
from repro.tasks.function import TaskFunction
from repro.tasks.result import TaskAssignment
from repro.utils.prf import PrfPrefix


@dataclass
class ComputedWork:
    """What a behaviour produced for an assignment.

    ``leaf_payloads[i]`` is what goes into Merkle leaf ``i`` (the true
    ``f(x_i)`` for honestly-computed indices, a fabrication otherwise).
    ``honest_indices`` is ground truth for analysis only.
    """

    leaf_payloads: list[bytes]
    honest_indices: set[int] = field(default_factory=set)

    @property
    def honesty_ratio(self) -> float:
        """Realized ``r = |D'| / |D|``."""
        return self.summary().honesty_ratio

    def summary(self) -> "WorkSummary":
        """The two counts every consumer outside this process reads."""
        return WorkSummary(
            n_inputs=len(self.leaf_payloads),
            n_honest=len(self.honest_indices),
        )


@dataclass(frozen=True)
class WorkSummary:
    """Ground truth reduced to counts: ``|D|`` and ``|D'|``.

    What :func:`repro.engine.jobs.execute_batch` returns in place of a
    :class:`ComputedWork`, so a run's leaf vector never leaves the
    process that computed it; ``honesty_ratio`` reads the same on both.
    """

    n_inputs: int
    n_honest: int

    @property
    def honesty_ratio(self) -> float:
        """Realized ``r = |D'| / |D|``."""
        if not self.n_inputs:
            return 1.0
        return self.n_honest / self.n_inputs

    def summary(self) -> "WorkSummary":
        return self


def _evaluate_many(
    evaluate: Callable[[Any], bytes], xs: Sequence[Any]
) -> list[bytes]:
    """``f`` over ``xs`` through the caller's ``evaluate``.

    A bound :meth:`TaskFunction.evaluate` (what the CBS participants
    pass, metered) takes the batch in one ``evaluate_many`` call; any
    other callable is called exactly once per input, in order, so a
    counting or charging closure still sees every evaluation.
    """
    owner = getattr(evaluate, "__self__", None)
    if (
        isinstance(owner, TaskFunction)
        and getattr(evaluate, "__func__", None) is type(owner).evaluate
    ):
        return owner.evaluate_many(xs)
    return [evaluate(x) for x in xs]


def _leaf_vector(
    assignment: TaskAssignment,
    evaluate: Callable[[Any], bytes],
    honest: set[int],
    guesser: GuessModel | None = None,
    salt: bytes = b"",
) -> ComputedWork:
    """The one place leaves are produced: ``f`` on the ``honest``
    indices in one batch, ``guesser`` on the rest in another."""
    inputs = assignment.domain.inputs()
    n = len(inputs)
    if len(honest) == n:
        return ComputedWork(_evaluate_many(evaluate, inputs), honest)
    computed = iter(
        _evaluate_many(evaluate, [inputs[i] for i in range(n) if i in honest])
    )
    fabricated = iter(
        guesser.guess_many(
            [i for i in range(n) if i not in honest],
            inputs,
            # Zero-cost oracle: realizes lucky guesses only.
            assignment.function.evaluate,
            assignment.function.result_size,
            salt,
        )
    )
    payloads = [next(computed if i in honest else fabricated) for i in range(n)]
    return ComputedWork(payloads, honest)


class Behavior(abc.ABC):
    """Strategy deciding how an assignment's results are produced."""

    #: Human-readable label used in reports.
    name: str = "behavior"

    @abc.abstractmethod
    def produce(
        self,
        assignment: TaskAssignment,
        evaluate: Callable[[Any], bytes],
        salt: bytes = b"",
    ) -> ComputedWork:
        """Produce the leaf payload vector for the assignment.

        ``evaluate`` is the (usually metered) evaluation of ``f``;
        behaviours must call it exactly once per honestly-computed
        input so ledgers reflect real work.  ``salt`` varies the
        fabrication stream across retries (regrinding, §4.2).
        """

    def corrupt_report(self, report: str | None, index: int) -> str | None:
        """Hook for the malicious model's screener corruption (§2.2)."""
        return report


class HonestBehavior(Behavior):
    """Computes ``f`` on every input — the paper's ``r = 1``."""

    name = "honest"

    def produce(
        self,
        assignment: TaskAssignment,
        evaluate: Callable[[Any], bytes],
        salt: bytes = b"",
    ) -> ComputedWork:
        return _leaf_vector(assignment, evaluate, set(assignment.domain.indices()))


class SemiHonestCheater(Behavior):
    """Evaluates a fraction ``r`` of the domain; fabricates the rest.

    This is the paper's semi-honest model (§2.2): the cheap substitute
    ``f̌`` is a :class:`~repro.cheating.guessing.GuessModel` (a random
    guess by default).  The honestly-computed subset ``D'`` is chosen
    by a deterministic PRF permutation keyed on ``(task_id, salt)``,
    mirroring a cheater who skips an arbitrary subset — CBS's uniform
    sampling makes the choice of *which* inputs to skip irrelevant.

    Parameters
    ----------
    honesty_ratio:
        Target ``r = |D'| / |D|`` in ``[0, 1]``.
    guesser:
        Fabrication model for skipped inputs (default: random bytes,
        ``q ≈ 0``).
    selection:
        ``"spread"`` (PRF-pseudorandom subset, default) or ``"prefix"``
        (compute the first ``⌈rn⌉`` inputs — a lazy cheater who stops
        early).
    """

    def __init__(
        self,
        honesty_ratio: float,
        guesser: GuessModel | None = None,
        selection: str = "spread",
    ) -> None:
        if not 0.0 <= honesty_ratio <= 1.0:
            raise TaskError(f"honesty_ratio must be in [0, 1], got {honesty_ratio}")
        if selection not in ("spread", "prefix"):
            raise TaskError(f"selection must be 'spread' or 'prefix', got {selection!r}")
        self.honesty_ratio = honesty_ratio
        self.guesser = guesser or ZeroGuess()
        self.selection = selection
        self.name = f"semi-honest(r={honesty_ratio:g}, q={self.guesser.q:g})"

    def _choose_honest(self, n: int, task_id: str, salt: bytes) -> set[int]:
        """Pick ``round(r·n)`` indices to compute honestly."""
        n_honest = round(self.honesty_ratio * n)
        n_honest = min(max(n_honest, 0), n)
        if self.selection == "prefix":
            return set(range(n_honest))
        # PRF-keyed partial Fisher–Yates: uniform n_honest-subset.  Draw
        # ``i`` depends on nothing but ``i``, so all come from one keyed
        # prefix before the swaps.
        draws = PrfPrefix(b"dprime", task_id.encode("utf-8"), salt).int_many(
            (i.to_bytes(8, "big") for i in range(n_honest)),
            range(n, n - n_honest, -1),
        )
        order = list(range(n))
        for i, draw in enumerate(draws):
            j = i + draw
            order[i], order[j] = order[j], order[i]
        return set(order[:n_honest])

    def produce(
        self,
        assignment: TaskAssignment,
        evaluate: Callable[[Any], bytes],
        salt: bytes = b"",
    ) -> ComputedWork:
        honest = self._choose_honest(assignment.n_inputs, assignment.task_id, salt)
        return _leaf_vector(assignment, evaluate, honest, self.guesser, salt)


class ColludingCheater(SemiHonestCheater):
    """Semi-honest cheaters that coordinate their fabrications.

    The classic attack on replication (BOINC's known weakness): if the
    replicas of a task collude, their fabricated results *agree*, so
    majority voting sees consensus and accepts.  Collusion is modelled
    by deriving fabrications and the skipped subset from a shared
    ``cartel_key`` instead of the per-run salt — two colluding
    instances given the same assignment produce byte-identical leaf
    vectors regardless of the scheme's seed.

    Against CBS the coordination buys nothing: the supervisor checks
    results against ``f`` itself, not against other participants, so a
    colluding cartel is caught at exactly the Eq. (2) rate.  The E7
    comparison and the unit tests pin both facts.
    """

    def __init__(
        self,
        honesty_ratio: float,
        cartel_key: bytes,
        guesser: GuessModel | None = None,
    ) -> None:
        super().__init__(honesty_ratio, guesser=guesser, selection="spread")
        self.cartel_key = cartel_key
        self.name = (
            f"colluding(r={honesty_ratio:g}, cartel={cartel_key.hex()[:8]})"
        )

    def produce(
        self,
        assignment: TaskAssignment,
        evaluate: Callable[[Any], bytes],
        salt: bytes = b"",
    ) -> ComputedWork:
        # Ignore the per-run salt: every cartel member fabricates from
        # the shared key, so replicas agree byte-for-byte.
        return super().produce(assignment, evaluate, salt=self.cartel_key)


class MaliciousBehavior(Behavior):
    """Computes everything but sabotages the screener step (§2.2).

    The malicious participant pays the full computation cost yet
    reports ``S(x, z)`` for random ``z`` — disrupting the computation
    rather than saving work.  Its Merkle commitments are honest, so CBS
    accepts it; defence requires checking reports, not commitments
    (the paper scopes itself to the semi-honest model for this reason,
    and experiment E7 demonstrates the gap).
    """

    name = "malicious"

    def __init__(self, corruption_rate: float = 1.0) -> None:
        if not 0.0 < corruption_rate <= 1.0:
            raise TaskError(
                f"corruption_rate must be in (0, 1], got {corruption_rate}"
            )
        self.corruption_rate = corruption_rate

    def produce(
        self,
        assignment: TaskAssignment,
        evaluate: Callable[[Any], bytes],
        salt: bytes = b"",
    ) -> ComputedWork:
        return _leaf_vector(assignment, evaluate, set(assignment.domain.indices()))

    def corrupt_report(self, report: str | None, index: int) -> str | None:
        from repro.utils.prf import prf_coin

        flip = prf_coin(
            b"malicious", index.to_bytes(8, "big"), probability=self.corruption_rate
        )
        if not flip:
            return report
        if report is None:
            # Fabricate an "interesting" report out of thin air.
            return f"forged:{index}"
        # Suppress a genuine report.
        return None
