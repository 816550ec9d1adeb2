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

from repro.core.wire import (
    KINDS as _SHARED_KINDS,
    MAX_CONTAINER_ITEMS,
    VARINT_MAX,
    Field,
    WireMessage,
)
from repro.exceptions import CodecError, ProofShapeError
from repro.merkle.multiproof import Multiproof
from repro.merkle.proof import LeafEncoding
from repro.utils.encoding import (
    bytes_list_size,
    encode_bytes_list,
    encode_uint,
    read_bytes_list,
    read_uint,
    read_uints,
    uint_list_size,
    uint_size,
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


def _encode_proofs(spec: Field, bundle: Multiproof) -> bytes:
    """The ``proofs`` kind: ``m ‖ n_leaves ‖ leaf-encoding code ‖ height
    ‖ the m sample indices in sample order ‖ the claimed results of the
    distinct leaves, ascending ‖ the supplied digests, level-major, left
    to right`` (both lists counted; ``m = 0`` alone when empty) — the
    fields of the bundle's :class:`Multiproof`, in order."""
    if not bundle.indices:
        return encode_uint(0)
    return b"".join(
        (
            encode_uint(len(bundle.indices)),
            encode_uint(bundle.n_leaves),
            encode_uint(ENCODING_CODES[bundle.leaf_encoding]),
            encode_uint(bundle.height),
            *[encode_uint(index) for index in bundle.indices],
            encode_bytes_list(bundle.results),
            encode_bytes_list(bundle.digests),
        )
    )


def _proofs_size(spec: Field, bundle: Multiproof) -> int:
    """``len(_encode_proofs(spec, bundle))``, without building it."""
    if not bundle.indices:
        return 1
    return (
        uint_list_size(bundle.indices)  # m, then the indices
        + uint_size(bundle.n_leaves)
        + 1  # the leaf-encoding code
        + uint_size(bundle.height)
        + bytes_list_size(bundle.results)
        + bytes_list_size(bundle.digests)
    )


def _read_proofs(spec: Field, data: bytes, pos: int) -> tuple[Multiproof, int]:
    """Read one bundle back as its :class:`Multiproof`.  Anything sized
    from a claimed count is bounded first: ``m`` by the bytes left,
    ``height`` by :data:`MAX_PATH_HEIGHT`, the ``m × height`` sibling
    slots by :data:`~repro.core.wire.MAX_CONTAINER_ITEMS`.  A sample outside
    the bundle's own tree is an impossible path: :class:`ProofShapeError`."""
    count, pos = read_uint(data, pos)
    if not count:
        return Multiproof((), 0, LeafEncoding.HASHED, 0, (), ()), pos
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
KINDS = {**_SHARED_KINDS, "proofs": (_encode_proofs, _read_proofs, _proofs_size)}


@dataclass(frozen=True)
class ProofBundleMsg(WireMessage, kinds=KINDS):
    """Step 3: proofs for all challenged samples."""

    task_id: str
    bundle: Multiproof

    FIELDS = (_TASK_ID, _field("bundle", "proofs"))
    #: The bundle as ``m`` per-sample proofs, derived when read.
    proofs = property(lambda msg: msg.bundle.proofs)


@dataclass(frozen=True)
class NICBSSubmissionMsg(WireMessage, kinds=KINDS):
    """NI-CBS single-shot submission: commitment + self-derived proofs.

    The broker architecture (§4) forwards this from participant to
    supervisor without any interactive round.
    """

    task_id: str
    root: bytes
    n_leaves: int
    bundle: Multiproof

    FIELDS = (
        _TASK_ID,
        _field("root", "bytes"),
        _field("n_leaves", "uint"),
        _field("bundle", "proofs"),
    )
    proofs = ProofBundleMsg.proofs


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
