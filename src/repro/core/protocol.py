"""Wire messages for the CBS protocols, with real byte encodings.

Experiment E3 reproduces the paper's communication-cost claims
(``O(n)`` naive vs ``O(m log n)`` CBS), so every message serializes to
actual bytes via the canonical codec, and the simulated network
accounts ``len(encode())`` per transfer.

Message flow (interactive CBS, §3.1):

1. participant → supervisor: :class:`CommitmentMsg` (``Φ(R)``)
2. supervisor → participant: :class:`SampleChallengeMsg` (``i_1..i_m``)
3. participant → supervisor: :class:`ProofBundleMsg`
   (per sample: claimed ``f(x_i)`` + sibling digests ``λ_1..λ_H`` —
   on the wire one multiproof: a digest several samples share, or can
   derive from each other, travels once or not at all)
4. supervisor → participant: :class:`VerdictMsg`

NI-CBS (§4) collapses 1–3 into a single :class:`NICBSSubmissionMsg`.
The naive baselines use :class:`FullResultsMsg` (all ``n`` results on
the wire) — the ``O(n)`` cost CBS eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.core.wire import (
    KINDS as _SHARED_KINDS,
    MAX_CONTAINER_ITEMS,
    VARINT_MAX,
    Field,
    WireMessage,
)
from repro.exceptions import CodecError, ProofShapeError
from repro.merkle.multiproof import Multiproof
from repro.merkle.proof import LeafEncoding, SampleProof
from repro.utils.encoding import (
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
    read_uints,
)

# A protocol message declares no range of its own, and everything its
# decoder rejects is a malformed encoding: a CodecError.
_field = partial(Field, hi=VARINT_MAX, error=CodecError)
_TASK_ID = _field("task_id", "str")

#: Tallest path a bundle may claim: a tree over 2^64 leaves (§3's
#: headline domain).
MAX_PATH_HEIGHT = 64

#: Wire code of each leaf encoding (carried once per proof bundle).
ENCODING_CODES = {LeafEncoding.HASHED: 0, LeafEncoding.RAW: 1}
ENCODING_FROM_CODE = {code: enc for enc, code in ENCODING_CODES.items()}


@dataclass(frozen=True)
class CommitmentMsg(WireMessage):
    """Step 1: the Merkle root ``Φ(R)`` commits all ``n`` results."""

    task_id: str
    root: bytes
    n_leaves: int

    FIELDS = (_TASK_ID, _field("root", "bytes"), _field("n_leaves", "uint"))


@dataclass(frozen=True)
class SampleChallengeMsg(WireMessage):
    """Step 2: the supervisor's ``m`` sample indices (0-based)."""

    task_id: str
    indices: tuple[int, ...]

    FIELDS = (_TASK_ID, _field("indices", "uints"))


def _encode_proofs(spec: Field, bundle: Multiproof | tuple[SampleProof, ...]) -> bytes:
    """The ``proofs`` kind: ``m ‖ n_leaves ‖ leaf-encoding code ‖ height
    ‖ the m sample indices in sample order ‖ the claimed results of the
    distinct leaves, ascending ‖ the supplied digests, level-major, left
    to right`` (both lists counted; ``m = 0`` alone when empty) — the
    fields of the bundle's :class:`Multiproof`, packed here when the
    message holds in-memory :class:`SampleProof` values."""
    proof = Multiproof.from_proofs(bundle)
    if not proof.indices:
        return encode_uint(0)
    return b"".join(
        (
            encode_uint(len(proof.indices)),
            encode_uint(proof.n_leaves),
            encode_uint(ENCODING_CODES[proof.leaf_encoding]),
            encode_uint(proof.height),
            *[encode_uint(index) for index in proof.indices],
            encode_bytes_list(proof.results),
            encode_bytes_list(proof.digests),
        )
    )


def _read_proofs(spec: Field, data: bytes, pos: int) -> tuple[Multiproof, int]:
    """Read one bundle back as its :class:`Multiproof`.  Anything sized
    from a claimed count is bounded first: ``m`` by the bytes left,
    ``height`` by :data:`MAX_PATH_HEIGHT`, the ``m × height`` sibling
    slots by :data:`~repro.core.wire.MAX_CONTAINER_ITEMS`.  A sample outside
    the bundle's own tree is an impossible path: :class:`ProofShapeError`."""
    count, pos = read_uint(data, pos)
    if not count:
        return Multiproof.from_proofs(()), pos
    n_leaves, pos = read_uint(data, pos)
    code, pos = read_uint(data, pos)
    encoding = ENCODING_FROM_CODE.get(code)
    if encoding is None:
        raise CodecError(f"unknown leaf-encoding code {code}")
    height, pos = read_uint(data, pos)
    if (
        count > len(data) - pos
        or height > MAX_PATH_HEIGHT
        or count * height > MAX_CONTAINER_ITEMS
    ):
        raise CodecError(
            f"bundle of {count} samples over height {height} exceeds the "
            "bytes that follow or the sibling-slot limit"
        )
    indices, pos = read_uints(data, pos, count)
    results, pos = read_bytes_list(data, pos)
    distinct = len(set(indices))
    if len(results) != distinct:
        raise CodecError(f"{len(results)} claimed results for {distinct} leaves")
    digests, pos = read_bytes_list(data, pos)
    proof = Multiproof(
        tuple(indices), n_leaves, encoding, height, tuple(results), tuple(digests)
    )
    need = sum(map(len, proof.nodes))
    if len(digests) != need:
        raise CodecError(f"{len(digests)} supplied digests, the samples need {need}")
    if n_leaves and proof.leaves[-1] >= n_leaves:
        raise ProofShapeError(f"leaf index {proof.leaves[-1]} outside [0, {n_leaves})")
    return proof, pos


#: The shared kinds plus the one only this module can build.
KINDS = {**_SHARED_KINDS, "proofs": (_encode_proofs, _read_proofs)}


class _Proofs:
    """A bundle message's ``proofs`` field.  It stores what it is given —
    a :class:`Multiproof`, or in-memory :class:`SampleProof` values that
    are packed when the message is encoded or verified — and that is
    what the layout encodes and ``bundle`` returns.  Read as ``proofs``
    it is ``m`` :class:`SampleProof` values, derived on first read."""

    def __get__(self, msg: Any, owner: type | None = None) -> Any:
        if msg is None:
            raise AttributeError("proofs")  # a required field: no default
        stored = msg.__dict__["proofs"]
        return stored.proofs if isinstance(stored, Multiproof) else stored

    def __set__(self, msg: Any, stored: Any) -> None:
        msg.__dict__["proofs"] = stored


@dataclass(frozen=True)
class ProofBundleMsg(WireMessage, kinds=KINDS):
    """Step 3: proofs for all challenged samples."""

    task_id: str
    proofs: Multiproof | tuple[SampleProof, ...] = _Proofs()

    FIELDS = (_TASK_ID, _field("proofs", "proofs"))
    bundle = property(lambda msg: msg.__dict__["proofs"], doc="``proofs`` as stored.")


@dataclass(frozen=True)
class NICBSSubmissionMsg(WireMessage, kinds=KINDS):
    """NI-CBS single-shot submission: commitment + self-derived proofs.

    The broker architecture (§4) forwards this from participant to
    supervisor without any interactive round.
    """

    task_id: str
    root: bytes
    n_leaves: int
    proofs: Multiproof | tuple[SampleProof, ...] = _Proofs()

    FIELDS = (
        _TASK_ID,
        _field("root", "bytes"),
        _field("n_leaves", "uint"),
        _field("proofs", "proofs"),
    )
    bundle = ProofBundleMsg.bundle


@dataclass(frozen=True)
class FullResultsMsg(WireMessage):
    """All ``n`` results on the wire — the naive baselines' payload."""

    task_id: str
    results: tuple[bytes, ...]

    FIELDS = (_TASK_ID, _field("results", "bytes_list"))


@dataclass(frozen=True)
class ReportsMsg(WireMessage):
    """Screener hits (the results of interest) — normal grid payload."""

    task_id: str
    reports: tuple[str, ...] = field(default_factory=tuple)

    FIELDS = (_TASK_ID, _field("reports", "strs"))


@dataclass(frozen=True)
class AssignMsg(WireMessage):
    """Task assignment descriptor sent supervisor → participant.

    Carries enough to identify the work (task id, domain bounds and a
    workload label); the function itself is code both sides share, as
    in real grids where the client software embeds the kernel.
    """

    task_id: str
    n_inputs: int
    workload: str = ""

    FIELDS = (_TASK_ID, _field("n_inputs", "uint"), _field("workload", "str"))


@dataclass(frozen=True)
class VerdictMsg(WireMessage):
    """Step 4 outcome: accepted, or caught with a reason."""

    task_id: str
    accepted: bool
    reason: str = ""

    FIELDS = (_TASK_ID, _field("accepted", "bool"), _field("reason", "str"))
