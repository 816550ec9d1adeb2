"""Cost accounting: the ledger every scheme charges against.

The paper's claims are cost claims — ``O(n)`` vs ``O(m log n)``
communication (§3), ``rco = 2m/S`` recompute overhead (§3.3), and the
Eq. (5) economics of the regrinding attack.  Rather than measure noisy
wall-clock, every metered component charges a :class:`CostLedger`:

* ``f``-evaluations and verifications, in abstract cost units
  (``C_f`` per call, see :class:`repro.tasks.function.TaskFunction`);
* hash invocations (``C_g`` per call for the NI-CBS sample generator);
* bytes sent/received on the simulated network;
* storage slots (Merkle digests held);
* discrete event counters (commitments, proofs, regrind attempts...).

Ledgers add, subtract and snapshot, so experiments can diff phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.exceptions import LedgerError


def _add_repeated(total: float, cost: float, count: int) -> float:
    """``total`` after ``count`` successive ``total += cost``, bit for bit.

    Float addition rounds at every step, so ``total + cost * count``
    drifts from the repeated sum for costs like 0.1, and a bulk charge
    must not show in the books.  Integer-valued floats below 2**53 add
    and multiply without rounding, so there (the default unit costs)
    the product is the same number; any other cost takes the additions,
    in a local instead of through one method call each.
    """
    total, cost = float(total), float(cost)
    if total.is_integer() and cost.is_integer():
        bulk = total + cost * count
        if bulk < 2.0**53:
            return bulk
    for _ in range(count):
        total += cost
    return total


@dataclass
class CostLedger:
    """Mutable cost accumulator with named counters.

    Cost fields are floats in abstract cost units; count fields are
    plain integers.  All mutators validate non-negative charges.
    """

    #: Total cost of f-evaluations (Σ C_f).
    evaluation_cost: float = 0.0
    #: Number of f-evaluations.
    evaluations: int = 0
    #: Total cost of result verifications at the supervisor.
    verification_cost: float = 0.0
    #: Number of verifications.
    verifications: int = 0
    #: Total cost of hash invocations (tree building + sample generation).
    hash_cost: float = 0.0
    #: Number of hash invocations.
    hashes: int = 0
    #: Bytes sent over the network by the owning node.
    bytes_sent: int = 0
    #: Bytes received over the network by the owning node.
    bytes_received: int = 0
    #: Messages sent.
    messages_sent: int = 0
    #: Messages received.
    messages_received: int = 0
    #: Peak number of stored Merkle digests (storage footprint).
    storage_digests: int = 0
    #: Screener invocations cost.
    screening_cost: float = 0.0
    #: Free-form counters (e.g. "regrind_attempts").
    counters: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Charging API (used by metered wrappers)
    # ------------------------------------------------------------------

    def _check(self, amount: float, what: str) -> None:
        if amount < 0:
            raise LedgerError(f"negative {what} charge: {amount}")

    def charge_evaluation(self, cost: float) -> None:
        """Record one ``f`` evaluation of the given cost."""
        self._check(cost, "evaluation")
        self.evaluation_cost += cost
        self.evaluations += 1

    def charge_evaluations(self, cost: float, count: int) -> None:
        """Record ``count`` evaluations of ``cost`` each, as that many
        :meth:`charge_evaluation` calls would."""
        self._check(cost, "evaluation")
        self._check(count, "evaluation count")
        self.evaluation_cost = _add_repeated(self.evaluation_cost, cost, count)
        self.evaluations += count

    def charge_verification(self, cost: float) -> None:
        """Record one result verification of the given cost."""
        self._check(cost, "verification")
        self.verification_cost += cost
        self.verifications += 1

    def charge_hash(self, cost: float) -> None:
        """Record one hash invocation of the given cost."""
        self._check(cost, "hash")
        self.hash_cost += cost
        self.hashes += 1

    def charge_hashes(self, cost: float, count: int) -> None:
        """Record ``count`` hash invocations of ``cost`` each, as that
        many :meth:`charge_hash` calls would."""
        self._check(cost, "hash")
        self._check(count, "hash count")
        self.hash_cost = _add_repeated(self.hash_cost, cost, count)
        self.hashes += count

    def charge_screening(self, cost: float) -> None:
        """Record one screener invocation."""
        self._check(cost, "screening")
        self.screening_cost += cost

    def record_send(self, n_bytes: int) -> None:
        """Record an outbound message of ``n_bytes``."""
        self._check(n_bytes, "send")
        self.bytes_sent += n_bytes
        self.messages_sent += 1

    def record_receive(self, n_bytes: int) -> None:
        """Record an inbound message of ``n_bytes``."""
        self._check(n_bytes, "receive")
        self.bytes_received += n_bytes
        self.messages_received += 1

    def record_storage(self, n_digests: int) -> None:
        """Record a storage footprint; keeps the peak."""
        self._check(n_digests, "storage")
        self.storage_digests = max(self.storage_digests, n_digests)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a free-form counter."""
        self._check(by, "counter")
        self.counters[counter] = self.counters.get(counter, 0) + by

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    @property
    def total_compute_cost(self) -> float:
        """Evaluations + verifications + hashing + screening."""
        return (
            self.evaluation_cost
            + self.verification_cost
            + self.hash_cost
            + self.screening_cost
        )

    def snapshot(self) -> "CostLedger":
        """A deep copy for phase diffing."""
        clone = CostLedger()
        for f_ in fields(self):
            if f_.name == "counters":
                clone.counters = dict(self.counters)
            else:
                setattr(clone, f_.name, getattr(self, f_.name))
        return clone

    def diff(self, earlier: "CostLedger") -> "CostLedger":
        """The charge accumulated since ``earlier`` (a snapshot)."""
        delta = CostLedger()
        for f_ in fields(self):
            if f_.name == "counters":
                keys = set(self.counters) | set(earlier.counters)
                delta.counters = {
                    k: self.counters.get(k, 0) - earlier.counters.get(k, 0)
                    for k in keys
                    if self.counters.get(k, 0) != earlier.counters.get(k, 0)
                }
            elif f_.name == "storage_digests":
                delta.storage_digests = self.storage_digests
            else:
                setattr(
                    delta, f_.name, getattr(self, f_.name) - getattr(earlier, f_.name)
                )
        return delta

    def merge(self, other: "CostLedger") -> None:
        """Accumulate ``other`` into this ledger (population totals)."""
        self.evaluation_cost += other.evaluation_cost
        self.evaluations += other.evaluations
        self.verification_cost += other.verification_cost
        self.verifications += other.verifications
        self.hash_cost += other.hash_cost
        self.hashes += other.hashes
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        self.messages_sent += other.messages_sent
        self.messages_received += other.messages_received
        self.storage_digests = max(self.storage_digests, other.storage_digests)
        self.screening_cost += other.screening_cost
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def as_dict(self) -> dict:
        """Flat dict of all counters (for table rows)."""
        out = {
            "evaluation_cost": self.evaluation_cost,
            "evaluations": self.evaluations,
            "verification_cost": self.verification_cost,
            "verifications": self.verifications,
            "hash_cost": self.hash_cost,
            "hashes": self.hashes,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "storage_digests": self.storage_digests,
            "screening_cost": self.screening_cost,
        }
        out.update(self.counters)
        return out
