"""The black-box task function ``f`` and its cost model (paper §2.1).

Every verification scheme in this library treats ``f`` as an opaque
deterministic function with:

* a canonical byte encoding of its result (what goes into the Merkle
  leaves — the paper's ``Φ(L_i) = f(x_i)``);
* an abstract per-evaluation cost ``C_f`` in *cost units* (the same
  units hash costs use), so analyses like Eq. (5) are expressible
  without wall-clock noise;
* an optional *cheap verifier*: §3.1 notes that verifying ``f(x_i)``
  "does not necessarily mean that the supervisor has to re-compute
  f(x_i)" (e.g. factoring).  When ``verify_cost`` is cheaper than
  ``cost``, the supervisor uses :meth:`TaskFunction.verify`; otherwise
  it re-computes.
* a ``one_way`` flag: whether recovering ``x`` from ``f(x)`` is
  infeasible.  The Golle–Mironov ringer baseline *requires* this
  (paper §1.1) and refuses non-one-way workloads; CBS does not care.
* a ``guess_success_probability``: the paper's ``q`` — the probability
  that a participant who skipped the evaluation nevertheless guesses
  the exact result (``Pr_guess(Φ(L) = f(x)) = q``, Theorem 3).  For a
  one-way hash image ``q ≈ 0``; for a boolean-output screener-style
  function ``q`` can be as high as 0.5.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.exceptions import TaskError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tasks.domain import Domain


class TaskFunction(abc.ABC):
    """Deterministic task function with canonical result encoding."""

    #: Abstract cost of one evaluation (cost units).
    cost: float = 1.0
    #: Cost of verifying a claimed result; defaults to re-computation.
    verify_cost: float | None = None
    #: Whether f is one-way (x infeasible to recover from f(x)).
    one_way: bool = False
    #: The paper's q: probability a guess matches f(x) exactly.
    guess_success_probability: float = 0.0

    @abc.abstractmethod
    def evaluate(self, x: Any) -> bytes:
        """Compute ``f(x)`` and return its canonical byte encoding."""

    def evaluate_many(self, xs: Sequence[Any]) -> list[bytes]:
        """``[evaluate(x) for x in xs]`` in one call.

        The participant's entry: it hands over a whole assignment's
        inputs at once, so a workload can hoist what its evaluations
        share (a keyed PRF prefix, say) and a wrapper can meter per
        batch.  Overrides must return exactly what the loop would.
        """
        return [self.evaluate(x) for x in xs]

    def verify(self, x: Any, claimed: bytes) -> bool:
        """Check a claimed result, re-computing by default.

        Subclasses with an asymmetric verifier (factoring-style)
        override this and set ``verify_cost`` accordingly.
        """
        return self.evaluate(x) == claimed

    def evaluator(self) -> Callable[[Any], bytes]:
        """:meth:`evaluate`, with what its calls share set up once."""
        return self.evaluate

    def verifier(self, domain: Domain) -> Callable[[int, bytes], bool]:
        """Check 1 for one proof bundle: ``check(i, claimed)`` is
        ``verify(domain[i], claimed)``, uncharged.

        Inputs are read off ``domain.inputs()`` (the caller keeps ``i``
        inside the domain).  The default :meth:`verify` re-computes, so
        the check evaluates each leaf once, through one
        :meth:`evaluator`, however many samples ask.  A function that
        overrides :meth:`verify` is asked per sample.
        """
        inputs = domain.inputs()
        if type(self).verify is not TaskFunction.verify:
            verify = self.verify
            return lambda i, claimed: verify(inputs[i], claimed)
        evaluate, values = self.evaluator(), {}

        def check(i: int, claimed: bytes) -> bool:
            value = values.get(i)
            if value is None:
                value = values[i] = evaluate(inputs[i])
            return value == claimed

        return check

    @property
    def effective_verify_cost(self) -> float:
        """Cost units charged for one verification."""
        return self.cost if self.verify_cost is None else self.verify_cost

    @property
    def result_size(self) -> int:
        """Size in bytes of one encoded result (for wire accounting).

        Subclasses override the property, or set ``_result_size`` when
        the size is fixed; the default raises
        :class:`~repro.exceptions.TaskError` when they did neither.
        """
        cached = getattr(self, "_result_size", None)
        if cached is None:
            raise TaskError(
                f"{type(self).__name__} must define result_size "
                "(fixed-size results) or override the property"
            )
        return cached

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(cost={self.cost},"
            f" one_way={self.one_way}, q={self.guess_success_probability})"
        )


class GuessableFunction(TaskFunction):
    """Wrap a function to expose a different guess probability ``q``.

    Used in experiments that sweep ``q`` (Fig. 2 has ``q = 0`` and
    ``q = 0.5`` curves) while holding the underlying workload fixed: the
    wrapped function's outputs are unchanged, only the adversary's
    modelled guessing power differs.
    """

    def __init__(self, inner: TaskFunction, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise TaskError(f"q must be in [0, 1], got {q}")
        self.inner = inner
        self.cost = inner.cost
        self.verify_cost = inner.verify_cost
        self.one_way = inner.one_way
        self.guess_success_probability = q

    def evaluate(self, x: Any) -> bytes:
        return self.inner.evaluate(x)

    def evaluate_many(self, xs: Sequence[Any]) -> list[bytes]:
        return self.inner.evaluate_many(xs)

    def verify(self, x: Any, claimed: bytes) -> bool:
        return self.inner.verify(x, claimed)

    def verifier(self, domain: Domain) -> Callable[[int, bytes], bool]:
        return self.inner.verifier(domain)

    @property
    def result_size(self) -> int:
        return self.inner.result_size


class MeteredFunction(TaskFunction):
    """Charge every evaluation/verification of ``inner`` to a ledger.

    The ledger is duck-typed (``charge_evaluation(cost)`` /
    ``charge_evaluations(cost, count)`` / ``charge_verification(cost)``)
    to avoid importing the grid layer.  Its inherited
    :meth:`verifier` asks :meth:`verify` per sample, so it charges one
    verification per call; the supervisors do not wrap their function
    and charge check 1 once, in bulk (``charge_verifications``).
    """

    def __init__(self, inner: TaskFunction, ledger) -> None:
        self.inner = inner
        self.ledger = ledger
        self.cost = inner.cost
        self.verify_cost = inner.verify_cost
        self.one_way = inner.one_way
        self.guess_success_probability = inner.guess_success_probability

    def evaluate(self, x: Any) -> bytes:
        self.ledger.charge_evaluation(self.inner.cost)
        return self.inner.evaluate(x)

    def evaluate_many(self, xs: Sequence[Any]) -> list[bytes]:
        """One ledger charge for the batch, made before it runs.

        As with :meth:`evaluate`, the charge precedes the work: if
        ``inner`` raises part-way, all ``len(xs)`` evaluations stay
        charged (the per-input loop would have stopped the books at
        the failing input).
        """
        self.ledger.charge_evaluations(self.inner.cost, len(xs))
        return self.inner.evaluate_many(xs)

    def verify(self, x: Any, claimed: bytes) -> bool:
        self.ledger.charge_verification(self.inner.effective_verify_cost)
        return self.inner.verify(x, claimed)

    @property
    def result_size(self) -> int:
        return self.inner.result_size
