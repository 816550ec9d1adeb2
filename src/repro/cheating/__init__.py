"""Adversary models: guessing power and cheating behaviours (paper §2.2).

The paper's two cheating models are both implemented:

* **Semi-honest** (:class:`~repro.cheating.strategies.SemiHonestCheater`)
  — evaluates ``f`` honestly on a fraction ``r`` of the domain and
  substitutes cheap guesses elsewhere; the focus of the paper.
* **Malicious** (:class:`~repro.cheating.strategies.MaliciousBehavior`)
  — computes everything but corrupts the screener step, returning
  ``S(x, z)`` for random ``z``.

Guessing power (the paper's ``q``) is factored into
:class:`~repro.cheating.guessing.GuessModel` objects so Eq. (2) sweeps
can vary ``q`` independently of ``r``, and the NI-CBS regrinding attack
lives in :mod:`repro.cheating.regrind`.
"""

from repro import _reexport

_reexport(__name__, {
    "repro.cheating.guessing": "ZeroGuess BernoulliGuess UniformValueGuess",
    "repro.cheating.strategies": (
        "HonestBehavior ColludingCheater SemiHonestCheater MaliciousBehavior"
    ),
})
