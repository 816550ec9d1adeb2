"""Input domains and partitioning (paper §2.1).

The supervisor partitions the global domain ``X`` into subdomains and
assigns subdomain ``X_i`` to participant ``i``.  A domain here is an
ordered, finite, indexable collection of *inputs* (opaque Python
values); CBS identifies inputs by their 0-based index, which is what
the Merkle leaves and sample challenges refer to.
"""

from __future__ import annotations

import abc
from typing import Any, Iterator, Sequence

from repro.exceptions import DomainError


class Domain(abc.ABC):
    """An ordered finite collection of task inputs."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of inputs ``n = |D|``."""

    @abc.abstractmethod
    def __getitem__(self, index: int) -> Any:
        """The input ``x_index`` (0-based)."""

    def inputs(self) -> Sequence[Any]:
        """All inputs in index order, as one read-only sequence.

        What the participant's batch path evaluates over; subclasses
        return what they already hold (a ``range``, the backing list —
        not a copy, so not to be mutated) instead of ``n``
        bounds-checked ``__getitem__`` calls.
        """
        return [self[i] for i in range(len(self))]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.inputs())

    def indices(self) -> range:
        """``range(n)`` over the domain's leaf indices."""
        return range(len(self))

    def partition(self, n_parts: int) -> list["Domain"]:
        """Every :meth:`part` of the ``n_parts``-way split, in order."""
        # range(1) at n_parts <= 0, so part() refuses it too.
        return [self.part(i, n_parts) for i in range(max(n_parts, 1))]

    def part(self, index: int, n_parts: int) -> "Domain":
        """Part ``index`` of ``n_parts`` contiguous subdomains of
        near-equal size.

        The first ``len(self) % n_parts`` parts receive one extra input,
        so sizes differ by at most one and every input is assigned
        exactly once.
        """
        n = len(self)
        if n_parts <= 0:
            raise DomainError(f"n_parts must be positive, got {n_parts}")
        if n_parts > n:
            raise DomainError(
                f"cannot partition {n} inputs into {n_parts} non-empty parts"
            )
        if not 0 <= index < n_parts:
            raise DomainError(f"part {index} outside [0, {n_parts})")
        base, extra = divmod(n, n_parts)
        start = index * base + min(index, extra)
        return self.slice(start, start + base + (index < extra))

    @abc.abstractmethod
    def slice(self, start: int, stop: int) -> "Domain":
        """The subdomain covering indices ``[start, stop)``."""

    def _check_slice(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= len(self):
            raise DomainError(
                f"slice [{start}, {stop}) invalid for domain of size {len(self)}"
            )
        if start == stop:
            raise DomainError("empty subdomain")


class RangeDomain(Domain):
    """Consecutive integers ``[start, stop)`` — key spaces, chunk ids.

    This is the shape of the paper's examples: a 64-bit password key
    space, molecule indices, work-unit ids.
    """

    def __init__(self, start: int, stop: int) -> None:
        if stop <= start:
            raise DomainError(f"empty range [{start}, {stop})")
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.stop - self.start:
            raise DomainError(f"index {index} outside [0, {len(self)})")
        return self.start + index

    def inputs(self) -> range:
        return range(self.start, self.stop)

    def slice(self, start: int, stop: int) -> "RangeDomain":
        self._check_slice(start, stop)
        return RangeDomain(self.start + start, self.start + stop)

    def __repr__(self) -> str:
        return f"RangeDomain({self.start}, {self.stop})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangeDomain)
            and self.start == other.start
            and self.stop == other.stop
        )

    def __hash__(self) -> int:
        return hash(("RangeDomain", self.start, self.stop))


class ExplicitDomain(Domain):
    """An explicit sequence of arbitrary hashable inputs."""

    def __init__(self, inputs: Sequence[Any]) -> None:
        items = list(inputs)
        if not items:
            raise DomainError("empty explicit domain")
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Any:
        if not 0 <= index < len(self):
            raise DomainError(f"index {index} outside [0, {len(self)})")
        return self._items[index]

    def inputs(self) -> Sequence[Any]:
        return self._items

    def slice(self, start: int, stop: int) -> "ExplicitDomain":
        self._check_slice(start, stop)
        return ExplicitDomain(self._items[start:stop])

    def __repr__(self) -> str:
        preview = ", ".join(repr(x) for x in self._items[:3])
        suffix = ", ..." if len(self._items) > 3 else ""
        return f"ExplicitDomain([{preview}{suffix}], n={len(self._items)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExplicitDomain) and self._items == other._items

    def __hash__(self) -> int:
        return hash(("ExplicitDomain", tuple(self._items)))
