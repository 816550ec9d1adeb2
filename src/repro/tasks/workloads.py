"""Concrete workloads modelled on the paper's motivating applications.

The paper motivates grid computing with SETI@home, IBM's smallpox
screening, GIMPS and brute-force password cracking (§1 and §3).  Those
pipelines are proprietary or impractically large, but the verification
schemes only interact with ``f`` through (a) its canonical output
bytes, (b) its abstract cost ``C_f``, (c) one-wayness and (d) the guess
probability ``q``.  Each workload here reproduces exactly those four
properties with a deterministic PRF-backed kernel:

* :class:`PasswordSearch` — find the key whose hash matches a target;
  genuinely one-way (it *is* a hash), ``q ≈ 0``.  This is the §3
  "break a 64-bit password" example and the classic ringer setting.
* :class:`MoleculeScreening` — smallpox-style docking-score screening;
  scores are PRF floats quantized to a grid, so ``q`` is small but
  nonzero and tunable.
* :class:`SignalSearch` — SETI-style chunk analysis producing a power
  metric; outputs boolean "interesting" verdicts with threshold
  chosen so ``q`` can be large (e.g. 0.5) — the hard case for naive
  guessing analysis and the Fig. 2 ``q = 0.5`` curve.
* :class:`MersenneCheck` — a *real* computation: the Lucas–Lehmer
  primality test on Mersenne exponents (GIMPS).  Boolean output with
  an overwhelming prior toward "composite".
* :class:`MonteCarloEstimate` — seed-indexed Monte-Carlo estimation
  (the Szajda et al. extension target [10]); deterministic given the
  work-unit seed.
* :class:`OptimizationSearch` — grid-cell objective evaluation (the
  other Szajda target); supports planting known optima for the
  hardening baseline.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from functools import lru_cache
from itertools import islice
from operator import lt
from typing import Any, Callable, Sequence

from repro.exceptions import TaskError
from repro.tasks.function import TaskFunction
from repro.utils.prf import PrfPrefix, prf_bytes, prf_float


def _encode_int(x: Any) -> bytes:
    # Once per evaluated input: the common type is tested first.
    if isinstance(x, int):
        if x < 0:
            raise TaskError(f"negative input {x} has no canonical encoding")
        return x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
    if isinstance(x, bytes):
        return x
    if isinstance(x, str):
        return x.encode("utf-8")
    raise TaskError(f"unsupported input type {type(x).__name__}")


def _width_runs(xs: Sequence[Any]) -> list[tuple[int, int, int]] | None:
    """``xs`` cut into ``(lo, hi, width)`` runs of one encoded width.

    Only for strictly ascending non-negative ``int`` inputs — a
    ``range`` with a positive step, or a list or tuple of exact ints —
    whose canonical encodings then change width at most once per byte
    (every ``RangeDomain`` slice and every honest subset of one).
    ``None`` for anything else: bytes, str, unsorted, duplicated or
    negative inputs keep the per-input :func:`_encode_int`.
    """
    if isinstance(xs, range):
        if xs.step < 0:
            return None
    elif not (
        type(xs) in (list, tuple)
        and set(map(type, xs)) <= {int}
        and all(map(lt, xs, islice(xs, 1, None)))
    ):
        return None
    if not xs or xs[0] < 0:
        return None
    runs, lo = [], 0
    while lo < len(xs):
        width = (xs[lo].bit_length() + 7) // 8 or 1
        hi = bisect_left(xs, 1 << 8 * width, lo)
        runs.append((lo, hi, width))
        lo = hi
    return runs


#: One seeded hasher per salt, shared by every batch and verify pass
#: (a ``PrfPrefix`` only ever adds a per-width framed hasher, the same
#: one whichever thread builds it).
_salted = lru_cache(maxsize=64)(PrfPrefix)


class PasswordSearch(TaskFunction):
    """Brute-force key search: ``f(x) = H(salt || x)``.

    The supervisor holds a target digest; participants hash every key in
    their subdomain and report matches.  ``f`` is one-way, so the
    ringer scheme applies and ``q ≈ 0`` (guessing a 16-byte digest).

    Parameters
    ----------
    salt:
        Public salt mixed into every hash (prevents rainbow reuse).
    digest_bytes:
        Truncated digest length; 16 mirrors the paper's MD5 setting.
    cost:
        Abstract ``C_f``; defaults to 1.0 cost unit per key.
    """

    one_way = True
    guess_success_probability = 0.0

    def __init__(
        self, salt: bytes = b"repro/password", digest_bytes: int = 16, cost: float = 1.0
    ) -> None:
        if digest_bytes < 4:
            raise TaskError(f"digest_bytes must be >= 4, got {digest_bytes}")
        self.salt = salt
        self.digest_bytes = digest_bytes
        self.cost = cost
        self._result_size = digest_bytes

    def evaluate(self, x: Any) -> bytes:
        return prf_bytes(self.salt, _encode_int(x), n_bytes=self.digest_bytes)

    def evaluator(self) -> Callable[[Any], bytes]:
        return _salted(self.salt).keyed(_encode_int, self.digest_bytes)

    def evaluate_many(self, xs: Sequence[Any]) -> list[bytes]:
        # The salt is absorbed once per salt, and each run of one key
        # width its length frame once per batch.
        prefix = _salted(self.salt)
        runs = _width_runs(xs)
        if runs is None:
            return prefix.bytes_many(
                map(_encode_int, xs), n_bytes=self.digest_bytes
            )
        results: list[bytes] = []
        for lo, hi, width in runs:
            results += prefix.fixed_bytes_many(
                xs[lo:hi], width, n_bytes=self.digest_bytes
            )
        return results

    @property
    def result_size(self) -> int:
        return self.digest_bytes

    def target_for(self, x: Any) -> bytes:
        """The digest a supervisor would publish to hunt for key ``x``."""
        return self.evaluate(x)


class MoleculeScreening(TaskFunction):
    """Synthetic docking-score screening (IBM smallpox grid analogue).

    Each molecule id maps to a deterministic pseudo-docking score in
    ``[0, 1)``, quantized to ``resolution`` levels.  The canonical
    result is the 4-byte big-endian quantized score.  Guessing succeeds
    with probability ``1/resolution`` under a uniform guesser, which is
    the value exposed as ``q``.
    """

    one_way = False

    def __init__(
        self,
        library_seed: bytes = b"repro/smallpox",
        resolution: int = 1024,
        cost: float = 50.0,
    ) -> None:
        if resolution < 2:
            raise TaskError(f"resolution must be >= 2, got {resolution}")
        self.library_seed = library_seed
        self.resolution = resolution
        self.cost = cost
        self.guess_success_probability = 1.0 / resolution

    def evaluate(self, x: Any) -> bytes:
        score = prf_float(self.library_seed, _encode_int(x))
        level = min(int(score * self.resolution), self.resolution - 1)
        return struct.pack(">I", level)

    @property
    def result_size(self) -> int:
        return 4

    def score(self, x: Any) -> float:
        """The un-quantized docking score, for screener thresholds."""
        return prf_float(self.library_seed, _encode_int(x))


class SignalSearch(TaskFunction):
    """SETI-style chunk analysis with a boolean "interesting" verdict.

    A work-unit id maps to a simulated spectral peak power; the result
    is ``b"\\x01"`` if the power exceeds ``threshold`` else ``b"\\x00"``.
    With ``threshold = 0.5`` the output is an unbiased coin, so a
    guessing cheater succeeds with ``q = 0.5`` — precisely the
    pessimistic curve in Fig. 2 of the paper.
    """

    one_way = False

    def __init__(
        self,
        sky_seed: bytes = b"repro/seti",
        threshold: float = 0.5,
        cost: float = 200.0,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise TaskError(f"threshold must be in (0, 1), got {threshold}")
        self.sky_seed = sky_seed
        self.threshold = threshold
        self.cost = cost
        # Optimal guesser always predicts the likelier symbol.
        self.guess_success_probability = max(threshold, 1.0 - threshold)

    def power(self, x: Any) -> float:
        """Simulated peak spectral power for work unit ``x``."""
        return prf_float(self.sky_seed, _encode_int(x))

    def evaluate(self, x: Any) -> bytes:
        return b"\x01" if self.power(x) >= self.threshold else b"\x00"

    @property
    def result_size(self) -> int:
        return 1


class MersenneCheck(TaskFunction):
    """Lucas–Lehmer primality of ``2^p − 1`` (GIMPS analogue).

    This is a *real* computation, not a PRF: input ``p`` (an odd prime
    exponent) is accepted iff ``M_p = 2^p − 1`` is prime.  Result is one
    byte.  Verification cost equals evaluation cost (no shortcut is
    known), and the output is guessable — almost all ``M_p`` are
    composite — so ``q`` is close to 1 and CBS's commitment (not
    guess-resistance) is what provides the defence; the bench E7 uses
    this to show where ringers fail.
    """

    one_way = False

    def __init__(self, cost: float = 100.0) -> None:
        self.cost = cost
        # A cheater answering the constant "composite" is almost always
        # right; model q conservatively as 0.9 (the share of composite
        # M_p among small prime exponents is higher still).
        self.guess_success_probability = 0.9

    def evaluate(self, x: Any) -> bytes:
        p = int(x)
        return b"\x01" if self.is_mersenne_prime(p) else b"\x00"

    @staticmethod
    def is_mersenne_prime(p: int) -> bool:
        """Lucas–Lehmer test; handles the ``p = 2`` special case."""
        if p < 2:
            return False
        if p == 2:
            return True  # M_2 = 3 is prime.
        if not MersenneCheck._is_prime(p):
            return False  # M_p composite whenever p is.
        m = (1 << p) - 1
        s = 4
        for _ in range(p - 2):
            s = (s * s - 2) % m
        return s == 0

    @staticmethod
    def _is_prime(n: int) -> bool:
        if n < 2:
            return False
        if n % 2 == 0:
            return n == 2
        limit = int(math.isqrt(n))
        for d in range(3, limit + 1, 2):
            if n % d == 0:
                return False
        return True

    @property
    def result_size(self) -> int:
        return 1


class MonteCarloEstimate(TaskFunction):
    """Seed-indexed Monte-Carlo π estimation work units.

    Work unit ``x`` is a seed; the participant draws ``n_samples``
    PRF points in the unit square and reports the hit count for the
    quarter circle, encoded as 4 bytes.  Deterministic given the seed,
    which is what makes it verifiable at all (the Szajda et al. [10]
    prerequisite).  ``q`` follows the binomial's mode probability.
    """

    one_way = False

    def __init__(self, n_samples: int = 64, cost: float = 10.0) -> None:
        if n_samples < 1:
            raise TaskError(f"n_samples must be >= 1, got {n_samples}")
        self.n_samples = n_samples
        self.cost = cost
        # Mode of Binomial(n, π/4): guessing the single likeliest count.
        p = math.pi / 4.0
        mode = int((self.n_samples + 1) * p)
        self.guess_success_probability = float(
            math.comb(self.n_samples, mode) * p**mode * (1 - p) ** (self.n_samples - mode)
        )

    def evaluate(self, x: Any) -> bytes:
        seed = _encode_int(x)
        hits = 0
        for i in range(self.n_samples):
            tag = i.to_bytes(4, "big")
            u = prf_float(b"mc-x", seed, tag)
            v = prf_float(b"mc-y", seed, tag)
            if u * u + v * v <= 1.0:
                hits += 1
        return struct.pack(">I", hits)

    @property
    def result_size(self) -> int:
        return 4


class FactoringTask(TaskFunction):
    """Semiprime factoring: expensive to compute, trivial to verify.

    §3.1's asymmetric-verification remark made concrete: "factoring
    large numbers is an expensive computation, but verifying the
    factoring results is trivial."  Input ``k`` indexes a deterministic
    semiprime ``N_k = p·q`` (both primes drawn PRF-uniformly from
    ``[2^(bits−1), 2^bits)``); the result is the smaller factor.
    :meth:`verify` multiplies and divides instead of re-factoring, so
    ``verify_cost ≪ cost`` — the supervisor's per-sample cost in CBS
    drops accordingly (covered by the E7 comparison and unit tests).

    ``bits`` is kept small (trial division must actually run); the
    *cost model* carries the expensive-to-compute semantics.
    """

    one_way = False
    guess_success_probability = 0.0  # guessing a factor ≈ impossible

    def __init__(self, bits: int = 14, cost: float = 500.0,
                 verify_cost: float = 1.0,
                 seed: bytes = b"repro/factoring") -> None:
        if not 6 <= bits <= 20:
            raise TaskError(f"bits must be in [6, 20], got {bits}")
        self.bits = bits
        self.cost = cost
        self.verify_cost = verify_cost
        self.seed = seed

    def _prime_near(self, tag: bytes, k: int) -> int:
        lo = 1 << (self.bits - 1)
        candidate = lo + prf_float(self.seed, tag, _encode_int(k)) * lo
        candidate = int(candidate) | 1
        while not _is_prime(candidate):
            candidate += 2
        return candidate

    def semiprime(self, k: int) -> int:
        """The public challenge number ``N_k``."""
        return self._prime_near(b"p", int(k)) * self._prime_near(b"q", int(k))

    def evaluate(self, x: Any) -> bytes:
        n = self.semiprime(int(x))
        # Trial division — genuinely the expensive step.
        f = 3
        while f * f <= n:
            if n % f == 0:
                return f.to_bytes(8, "big")
            f += 2
        raise TaskError(f"internal error: {n} did not factor")  # pragma: no cover

    def verify(self, x: Any, claimed: bytes) -> bool:
        if len(claimed) != 8:
            return False
        factor = int.from_bytes(claimed, "big")
        n = self.semiprime(int(x))
        if factor <= 1 or factor >= n or n % factor != 0:
            return False
        # The canonical answer is the *smaller* prime factor.
        return factor == min(factor, n // factor) and _is_prime(factor)

    @property
    def result_size(self) -> int:
        return 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class OptimizationSearch(TaskFunction):
    """Grid-cell objective evaluation for distributed optimization.

    Each input indexes a cell of the search lattice; ``f`` returns the
    objective value at the cell's centre, quantized to ``resolution``
    levels (4 bytes).  The landscape is a deterministic sum of PRF-
    placed Gaussian wells, so there exist genuine optima the hardening
    baseline [10] can plant and check.
    """

    one_way = False

    def __init__(
        self,
        landscape_seed: bytes = b"repro/opt",
        n_wells: int = 8,
        resolution: int = 4096,
        grid_side: int = 1 << 12,
        cost: float = 25.0,
    ) -> None:
        if n_wells < 1:
            raise TaskError(f"n_wells must be >= 1, got {n_wells}")
        if resolution < 2:
            raise TaskError(f"resolution must be >= 2, got {resolution}")
        self.landscape_seed = landscape_seed
        self.n_wells = n_wells
        self.resolution = resolution
        self.grid_side = grid_side
        self.cost = cost
        self.guess_success_probability = 1.0 / resolution
        self.wells = [
            (
                prf_float(landscape_seed, b"wx", i.to_bytes(4, "big")),
                prf_float(landscape_seed, b"wy", i.to_bytes(4, "big")),
                0.05 + 0.2 * prf_float(landscape_seed, b"ws", i.to_bytes(4, "big")),
            )
            for i in range(n_wells)
        ]

    def cell_center(self, x: Any) -> tuple[float, float]:
        """Map cell index to its centre in the unit square."""
        index = int(x)
        row, col = divmod(index % (self.grid_side**2), self.grid_side)
        return ((col + 0.5) / self.grid_side, (row + 0.5) / self.grid_side)

    def objective(self, x: Any) -> float:
        """Continuous objective (lower is better) at the cell centre."""
        cx, cy = self.cell_center(x)
        value = 1.0
        for wx, wy, width in self.wells:
            d2 = (cx - wx) ** 2 + (cy - wy) ** 2
            value -= math.exp(-d2 / (2.0 * width**2))
        return value

    def evaluate(self, x: Any) -> bytes:
        # Objective is in (-n_wells, 1]; normalize to [0, 1) then quantize.
        raw = self.objective(x)
        lo = 1.0 - len(self.wells)
        norm = (raw - lo) / (1.0 - lo + 1e-12)
        norm = min(max(norm, 0.0), 1.0 - 1e-12)
        return struct.pack(">I", int(norm * self.resolution))

    @property
    def result_size(self) -> int:
        return 4
