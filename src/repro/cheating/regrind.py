"""The NI-CBS regrinding attack (paper §4.2).

Because NI-CBS derives the sample indices from the committed root, a
cheater who computed only ``D' ⊂ D`` can *grind*: rebuild the Merkle
tree with fresh filler values for the skipped inputs until the derived
samples all land inside ``D'`` — the paper's three-step strategy:

1. build the tree with random numbers for ``x ∈ D − D'``;
2. derive the samples from the root; if all fall in ``D'``, done;
3. otherwise pick new random fillers and repeat.

A rational attacker does step 3 *incrementally*: changing a single
filler leaf re-randomizes the root at a cost of only ``O(log n)``
hashes (update the leaf-to-root path), so each attempt costs
``m·C_g + O(log n)·C_hash`` — which is why the paper's Eq. (5) defence
prices ``g`` rather than counting on rebuild costs::

    (1/r^m) · m · C_g  >=  n · C_f

Expected attempts are ``1/r^m``.  :func:`run_regrind_attack` executes
the strategy (incremental by default; ``incremental=False`` gives the
naive full-rebuild variant for the E5 ablation), metering every cost,
and returns the attack transcript plus the economics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting import CostLedger
from repro.cheating.strategies import SemiHonestCheater
from repro.core.ni_cbs import derive_sample_indices
from repro.core.protocol import NICBSSubmissionMsg
from repro.core.scheme import run_salt
from repro.exceptions import SchemeConfigurationError
from repro.merkle.hashing import CountingHash, HashFunction, get_hash
from repro.merkle.tree import LeafEncoding, MerkleTree, combine, encode_leaf
from repro.tasks.result import TaskAssignment


class _MutableMerkleTree(MerkleTree):
    """A :class:`MerkleTree` supporting O(log n) single-leaf updates.

    The attacker's workhorse: built like any tree, then
    :meth:`update_leaf` rewrites one leaf digest and recomputes its path
    to the root.  Hash costs flow through the (counting) hash function
    handed in.
    """

    def update_leaf(self, index: int, payload: bytes) -> None:
        """Replace leaf ``index`` and rehash its path (O(log n))."""
        digest = encode_leaf(payload, self.hash_fn, self.leaf_encoding)
        for row in self._levels[:0:-1]:  # the leaf row up to the root's children
            row[index] = digest
            pair = index & ~1
            digest = combine(self.hash_fn, row[pair], row[pair + 1])
            index >>= 1
        self._levels[0][0] = digest


@dataclass
class RegrindResult:
    """Transcript and economics of one regrinding attack."""

    succeeded: bool
    attempts: int
    honesty_ratio: float
    n_samples: int
    #: All attack-side costs (honest subset + rebuilds + g evaluations).
    ledger: CostLedger = field(default_factory=CostLedger)
    #: The winning submission, ready to feed a verifier (None if failed).
    submission: NICBSSubmissionMsg | None = None
    #: Cost of computing the task honestly (n · C_f) for comparison.
    honest_task_cost: float = 0.0

    @property
    def attack_cost(self) -> float:
        """Total compute the attacker actually spent."""
        return self.ledger.total_compute_cost

    @property
    def profitable(self) -> bool:
        """Whether cheating beat honest computation (Eq. 5 violated)."""
        return self.succeeded and self.attack_cost < self.honest_task_cost


def run_regrind_attack(
    assignment: TaskAssignment,
    honesty_ratio: float,
    n_samples: int,
    sample_hash: HashFunction | None = None,
    hash_fn: HashFunction | None = None,
    leaf_encoding: LeafEncoding = LeafEncoding.HASHED,
    max_attempts: int = 100_000,
    seed: int = 0,
    incremental: bool = True,
) -> RegrindResult:
    """Execute the §4.2 grinding strategy against NI-CBS.

    The honest subset ``D'`` is computed once (charged at ``r·n·C_f``);
    every further attempt redraws filler value(s), updates the tree and
    re-derives the samples (``m`` metered evaluations of ``g``).

    ``incremental=True`` (default) changes one filler leaf per attempt
    — the rational attacker's ``O(log n)``-hash regrind.
    ``incremental=False`` redraws *all* fillers and rebuilds the whole
    tree per attempt, the literal reading of the paper's step 3 (used
    by the E5 ablation to show why Eq. 5 cannot lean on rebuild costs).
    """
    if not 0.0 < honesty_ratio <= 1.0:
        raise SchemeConfigurationError(
            f"honesty_ratio must be in (0, 1], got {honesty_ratio}"
        )
    if max_attempts < 1:
        raise SchemeConfigurationError(
            f"max_attempts must be >= 1, got {max_attempts}"
        )
    ledger = CostLedger()
    tree_hash = CountingHash(hash_fn or get_hash(), ledger)
    g = CountingHash(sample_hash or get_hash("sha256"), ledger)
    n = assignment.n_inputs

    # Phase 1: honest work on D' (done once, reused every attempt).
    base_salt = run_salt(seed)
    cheater = SemiHonestCheater(honesty_ratio)

    def metered_evaluate(x):
        ledger.charge_evaluation(assignment.function.cost)
        return assignment.function.evaluate(x)

    base_work = cheater.produce(assignment, metered_evaluate, salt=base_salt)
    honest = base_work.honest_indices
    fillers = sorted(set(range(n)) - honest)

    result = RegrindResult(
        succeeded=False,
        attempts=0,
        honesty_ratio=len(honest) / n,
        n_samples=n_samples,
        ledger=ledger,
        honest_task_cost=n * assignment.function.cost,
    )

    def fresh_guess(index: int, salt: bytes) -> bytes:
        return cheater.guesser.guess(
            index=index,
            x=assignment.domain[index],
            true_result=lambda: b"",  # ZeroGuess never calls it
            result_size=assignment.function.result_size,
            salt=salt,
        )

    def finish(tree: _MutableMerkleTree, samples: list[int]) -> None:
        # Every sample is honest, so the claimed results are base_work's.
        result.succeeded = True
        result.submission = NICBSSubmissionMsg(
            task_id=assignment.task_id,
            root=tree.root,
            n_leaves=n,
            bundle=tree.multiproof(samples, base_work.leaf_payloads),
        )

    if incremental:
        tree = _MutableMerkleTree(
            list(base_work.leaf_payloads), tree_hash, leaf_encoding
        )
        for attempt in range(max_attempts):
            result.attempts = attempt + 1
            ledger.bump("regrind_attempts")
            if attempt > 0:
                if not fillers:
                    break  # r = 1: nothing to regrind; first try decides
                target = fillers[(attempt - 1) % len(fillers)]
                tree.update_leaf(
                    target,
                    fresh_guess(target, base_salt + attempt.to_bytes(8, "big")),
                )
            samples = derive_sample_indices(
                tree.root, n=n, m=n_samples, sample_hash=g
            )
            if all(index in honest for index in samples):
                finish(tree, samples)
                return result
        return result

    # Naive variant: redraw every filler and rebuild the whole tree.
    for attempt in range(max_attempts):
        result.attempts = attempt + 1
        ledger.bump("regrind_attempts")
        attempt_salt = base_salt + attempt.to_bytes(8, "big")
        payloads = [
            base_work.leaf_payloads[i]
            if i in honest
            else fresh_guess(i, attempt_salt)
            for i in range(n)
        ]
        tree = _MutableMerkleTree(payloads, tree_hash, leaf_encoding)
        samples = derive_sample_indices(
            tree.root, n=n, m=n_samples, sample_hash=g
        )
        if all(index in honest for index in samples):
            finish(tree, samples)
            return result
    return result


def expected_regrind_attempts(honesty_ratio: float, n_samples: int) -> float:
    """The paper's ``1/r^m`` expected attempt count (§4.2)."""
    if not 0.0 < honesty_ratio <= 1.0:
        raise SchemeConfigurationError(
            f"honesty_ratio must be in (0, 1], got {honesty_ratio}"
        )
    return honesty_ratio ** (-n_samples)
