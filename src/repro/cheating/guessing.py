"""Guess models: how a cheater fabricates skipped results.

Theorem 3 of the paper parameterizes everything by
``q = Pr_guess(Φ(L) = f(x))`` — the probability that a fabricated leaf
happens to equal the true result.  A :class:`GuessModel` produces the
fabricated bytes for a skipped input and *knows its own q* so analyses
can be checked against Eq. (2).

:class:`BernoulliGuess` is the workhorse for validation experiments: it
produces the *correct* result with exactly probability ``q`` (decided
by a deterministic PRF coin keyed on the input), which realizes the
paper's abstraction directly without needing astronomically many
Monte-Carlo trials to see rare lucky guesses.  The simulation device is
explicit: obtaining the correct bytes requires calling the oracle
(``true_result``), but *no evaluation cost is charged* — a lucky guess
is free by definition.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable, Sequence

from repro.exceptions import TaskError
from repro.utils.prf import PrfPrefix, prf_bytes, prf_coin, prf_int


class GuessModel(abc.ABC):
    """Produces fabricated result bytes for inputs the cheater skipped."""

    #: The model's own q (probability a guess equals the true result).
    q: float = 0.0

    @abc.abstractmethod
    def guess(
        self,
        index: int,
        x: Any,
        true_result: Callable[[], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> bytes:
        """Fabricate a result for input ``x`` at leaf ``index``.

        ``true_result`` is a zero-cost oracle used only to *realize* a
        lucky guess (see module docstring); honest models never call it.
        ``salt`` lets retrying attackers (regrinding, §4.2) draw fresh
        fabrications.
        """

    def guess_many(
        self,
        indices: Sequence[int],
        inputs: Sequence[Any],
        oracle: Callable[[Any], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> list[bytes]:
        """Fabricate the leaves at ``indices`` in one call.

        ``inputs`` is the whole assignment's input sequence, read at
        ``inputs[index]``; ``oracle`` is the zero-cost ``f`` behind
        every ``true_result``.  Equals :meth:`guess` per index, which
        is the default; models override it to hoist shared work.
        """
        return [
            self.guess(
                index=index,
                x=inputs[index],
                true_result=partial(oracle, inputs[index]),
                result_size=result_size,
                salt=salt,
            )
            for index in indices
        ]


class ZeroGuess(GuessModel):
    """``q ≈ 0``: random bytes, never equal to the true result in practice.

    Matches one-way workloads (password search) where the output space
    is 2^128 or larger — the paper's ``q ≈ 0`` curve in Fig. 2.
    """

    q = 0.0

    def guess(
        self,
        index: int,
        x: Any,
        true_result: Callable[[], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> bytes:
        return prf_bytes(
            b"zero-guess", salt, index.to_bytes(8, "big"), n_bytes=result_size
        )

    def guess_many(
        self,
        indices: Sequence[int],
        inputs: Sequence[Any],
        oracle: Callable[[Any], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> list[bytes]:
        return PrfPrefix(b"zero-guess", salt).bytes_many(
            (index.to_bytes(8, "big") for index in indices), n_bytes=result_size
        )


class BernoulliGuess(GuessModel):
    """Guess correctly with exactly probability ``q`` (PRF coin).

    The direct realization of Theorem 3's abstraction.  The coin is
    keyed on ``(index, salt)`` so repeated protocol runs with different
    salts re-flip, while a single run is internally consistent.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 <= q <= 1.0:
            raise TaskError(f"q must be in [0, 1], got {q}")
        self.q = q

    def guess(
        self,
        index: int,
        x: Any,
        true_result: Callable[[], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> bytes:
        key = (b"bernoulli-guess", salt, index.to_bytes(8, "big"))
        if self.q > 0.0 and prf_coin(*key, probability=self.q):
            return true_result()
        wrong = prf_bytes(*key, b"wrong", n_bytes=result_size)
        # Pathological collision guard: if the PRF bytes happen to equal
        # the truth, flip the last byte so "wrong" really is wrong.
        truth = true_result() if self.q > 0.0 else None
        if truth is not None and wrong == truth:
            wrong = wrong[:-1] + bytes([wrong[-1] ^ 0xFF])
        return wrong


class UniformValueGuess(GuessModel):
    """Guess uniformly over a small output alphabet.

    For boolean or low-resolution outputs (SignalSearch, quantized
    docking scores) the natural cheater draws a uniform symbol; ``q``
    is then ``1/|alphabet|``.  Unlike :class:`BernoulliGuess`, this
    model never touches the oracle — correctness emerges from actual
    value collisions, which is the most faithful (and slowest-mixing)
    simulation.
    """

    def __init__(self, alphabet: list[bytes]) -> None:
        if not alphabet:
            raise TaskError("empty guess alphabet")
        sizes = {len(symbol) for symbol in alphabet}
        if len(sizes) != 1:
            raise TaskError(f"alphabet symbols differ in size: {sizes}")
        self.alphabet = list(alphabet)
        self.q = 1.0 / len(alphabet)

    def guess(
        self,
        index: int,
        x: Any,
        true_result: Callable[[], bytes],
        result_size: int,
        salt: bytes = b"",
    ) -> bytes:
        pick = prf_int(
            b"uniform-guess",
            salt,
            index.to_bytes(8, "big"),
            bound=len(self.alphabet),
        )
        return self.alphabet[pick]


def guess_model_for_q(q: float) -> GuessModel:
    """Convenience: the canonical model realizing a given ``q``."""
    if q <= 0.0:
        return ZeroGuess()
    return BernoulliGuess(q)
