"""Wire messages for the CBS protocols, with real byte encodings.

Experiment E3 reproduces the paper's communication-cost claims
(``O(n)`` naive vs ``O(m log n)`` CBS), so every message serializes to
actual bytes via the canonical codec, and the simulated network
accounts ``len(encode())`` per transfer.

Message flow (interactive CBS, §3.1):

1. participant → supervisor: :class:`CommitmentMsg` (``Φ(R)``)
2. supervisor → participant: :class:`SampleChallengeMsg` (``i_1..i_m``)
3. participant → supervisor: :class:`ProofBundleMsg`
   (per sample: claimed ``f(x_i)`` + sibling digests ``λ_1..λ_H``)
4. supervisor → participant: :class:`VerdictMsg`

NI-CBS (§4) collapses 1–3 into a single :class:`NICBSSubmissionMsg`.
The naive baselines use :class:`FullResultsMsg` (all ``n`` results on
the wire) — the ``O(n)`` cost CBS eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.wire import KINDS as _SHARED_KINDS, VARINT_MAX, Field, WireMessage
from repro.exceptions import CodecError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.serialize import decode_auth_path, encode_auth_path
from repro.utils.encoding import (
    encode_bytes,
    encode_uint,
    read_bytes,
    read_uint,
)

# A protocol message declares no range of its own, and everything its
# decoder rejects is a malformed encoding: a CodecError.
_field = partial(Field, hi=VARINT_MAX, error=CodecError)
_TASK_ID = _field("task_id", "str")


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


@dataclass(frozen=True)
class SampleProof(WireMessage):
    """Step 3 payload for one sample: claimed result + auth path."""

    index: int
    claimed_result: bytes
    path: AuthenticationPath

    FIELDS = (
        _field("index", "uint"),
        _field("claimed_result", "bytes"),
        _field("path", "path"),
    )


def _encode_proofs(spec: Field, proofs: tuple[SampleProof, ...]) -> bytes:
    """The ``proofs`` kind: a count, then that many :class:`SampleProof`
    rows back to back — the same bytes as encoding each proof on its
    own, built in one pass per bundle."""
    parts = [encode_uint(len(proofs))]
    append = parts.append
    for proof in proofs:
        append(encode_uint(proof.index))
        append(encode_bytes(proof.claimed_result))
        append(encode_auth_path(proof.path))
    return b"".join(parts)


def _read_proofs(
    spec: Field, data: bytes, pos: int
) -> tuple[tuple[SampleProof, ...], int]:
    count, pos = read_uint(data, pos)
    proofs = []
    append = proofs.append
    for _ in range(count):
        index, pos = read_uint(data, pos)
        claimed, pos = read_bytes(data, pos)
        path, pos = decode_auth_path(data, pos)
        append(SampleProof(index, claimed, path))
    return tuple(proofs), pos


#: The shared kinds plus the one only this module can build.
KINDS = {**_SHARED_KINDS, "proofs": (_encode_proofs, _read_proofs)}


@dataclass(frozen=True)
class ProofBundleMsg(WireMessage, kinds=KINDS):
    """Step 3: proofs for all challenged samples."""

    task_id: str
    proofs: tuple[SampleProof, ...]

    FIELDS = (_TASK_ID, _field("proofs", "proofs"))


@dataclass(frozen=True)
class BatchProofMsg(WireMessage):
    """Step 3 variant: one compressed multiproof for all samples.

    An optimization over :class:`ProofBundleMsg` (E11): the sampled
    leaves' authentication paths share interior digests, so a single
    :class:`~repro.merkle.multiproof.MerkleMultiProof` is strictly
    smaller than ``m`` independent paths.  Claimed results ride along
    per distinct index (duplicate samples collapse).
    """

    task_id: str
    indices: tuple[int, ...]
    claimed_results: tuple[bytes, ...]
    proof_bytes: bytes  # encoded MerkleMultiProof

    FIELDS = (
        _TASK_ID,
        _field("indices", "uints"),
        _field("claimed_results", "bytes_list"),
        _field("proof_bytes", "bytes"),
    )


@dataclass(frozen=True)
class NICBSSubmissionMsg(WireMessage, kinds=KINDS):
    """NI-CBS single-shot submission: commitment + self-derived proofs.

    The broker architecture (§4) forwards this from participant to
    supervisor without any interactive round.
    """

    task_id: str
    root: bytes
    n_leaves: int
    proofs: tuple[SampleProof, ...]

    FIELDS = (
        _TASK_ID,
        _field("root", "bytes"),
        _field("n_leaves", "uint"),
        _field("proofs", "proofs"),
    )


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
