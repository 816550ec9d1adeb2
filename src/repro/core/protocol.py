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
from typing import Sequence

from repro.exceptions import CodecError
from repro.merkle.proof import AuthenticationPath
from repro.merkle.serialize import decode_auth_path, encode_auth_path
from repro.utils.encoding import (
    encode_bytes,
    encode_bytes_list,
    encode_uint,
    encode_uint_list,
    read_bytes,
    read_bytes_list,
    read_uint,
    read_uint_list,
)


def _encode_task_id(task_id: str) -> bytes:
    return encode_bytes(task_id.encode("utf-8"))


def _decode_text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in {what}: {exc}") from exc


def _read_task_id(data: bytes, offset: int) -> tuple[str, int]:
    raw, pos = read_bytes(data, offset)
    return _decode_text(raw, "task id"), pos


def _encode_proofs(head: bytes, proofs: Sequence[SampleProof]) -> bytes:
    """``head`` followed by a run of proofs — the one proof encoder.

    Per proof: ``index ‖ claimed result ‖ authentication path``.
    :class:`ProofBundleMsg` and :class:`NICBSSubmissionMsg` pass their
    header and proof count as ``head``; :meth:`SampleProof.encode` is a
    run of one behind an empty head.
    """
    parts = [head]
    append = parts.append
    for proof in proofs:
        append(encode_uint(proof.index))
        append(encode_bytes(proof.claimed_result))
        append(encode_auth_path(proof.path))
    return b"".join(parts)


def _read_proofs(
    data: bytes, pos: int, count: int
) -> tuple[tuple[SampleProof, ...], int]:
    """Decode a run of ``count`` proofs at ``pos`` — the one proof decoder."""
    proofs = []
    append = proofs.append
    for _ in range(count):
        index, pos = read_uint(data, pos)
        claimed, pos = read_bytes(data, pos)
        path, pos = decode_auth_path(data, pos)
        append(SampleProof(index, claimed, path))
    return tuple(proofs), pos


@dataclass(frozen=True)
class CommitmentMsg:
    """Step 1: the Merkle root ``Φ(R)`` commits all ``n`` results."""

    task_id: str
    root: bytes
    n_leaves: int

    def encode(self) -> bytes:
        return (
            _encode_task_id(self.task_id)
            + encode_bytes(self.root)
            + encode_uint(self.n_leaves)
        )

    @classmethod
    def decode(cls, data: bytes) -> "CommitmentMsg":
        task_id, pos = _read_task_id(data, 0)
        root, pos = read_bytes(data, pos)
        n_leaves, pos = read_uint(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in CommitmentMsg")
        return cls(task_id=task_id, root=root, n_leaves=n_leaves)

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class SampleChallengeMsg:
    """Step 2: the supervisor's ``m`` sample indices (0-based)."""

    task_id: str
    indices: tuple[int, ...]

    def encode(self) -> bytes:
        return _encode_task_id(self.task_id) + encode_uint_list(list(self.indices))

    @classmethod
    def decode(cls, data: bytes) -> "SampleChallengeMsg":
        task_id, pos = _read_task_id(data, 0)
        indices, pos = read_uint_list(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in SampleChallengeMsg")
        return cls(task_id=task_id, indices=tuple(indices))

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class SampleProof:
    """Step 3 payload for one sample: claimed result + auth path."""

    index: int
    claimed_result: bytes
    path: AuthenticationPath

    def encode(self) -> bytes:
        return _encode_proofs(b"", (self,))

    @classmethod
    def decode_at(cls, data: bytes, offset: int) -> tuple["SampleProof", int]:
        (proof,), pos = _read_proofs(data, offset, 1)
        return proof, pos

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class ProofBundleMsg:
    """Step 3: proofs for all challenged samples."""

    task_id: str
    proofs: tuple[SampleProof, ...]

    def encode(self) -> bytes:
        head = _encode_task_id(self.task_id) + encode_uint(len(self.proofs))
        return _encode_proofs(head, self.proofs)

    @classmethod
    def decode(cls, data: bytes) -> "ProofBundleMsg":
        task_id, pos = _read_task_id(data, 0)
        count, pos = read_uint(data, pos)
        proofs, pos = _read_proofs(data, pos, count)
        if pos != len(data):
            raise CodecError("trailing bytes in ProofBundleMsg")
        return cls(task_id=task_id, proofs=proofs)

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class BatchProofMsg:
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

    def encode(self) -> bytes:
        return (
            _encode_task_id(self.task_id)
            + encode_uint_list(list(self.indices))
            + encode_bytes_list(self.claimed_results)
            + encode_bytes(self.proof_bytes)
        )

    @classmethod
    def decode(cls, data: bytes) -> "BatchProofMsg":
        task_id, pos = _read_task_id(data, 0)
        indices, pos = read_uint_list(data, pos)
        claimed, pos = read_bytes_list(data, pos)
        proof, pos = read_bytes(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in BatchProofMsg")
        return cls(
            task_id=task_id,
            indices=tuple(indices),
            claimed_results=tuple(claimed),
            proof_bytes=proof,
        )

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class NICBSSubmissionMsg:
    """NI-CBS single-shot submission: commitment + self-derived proofs.

    The broker architecture (§4) forwards this from participant to
    supervisor without any interactive round.
    """

    task_id: str
    root: bytes
    n_leaves: int
    proofs: tuple[SampleProof, ...]

    def encode(self) -> bytes:
        head = (
            _encode_task_id(self.task_id)
            + encode_bytes(self.root)
            + encode_uint(self.n_leaves)
            + encode_uint(len(self.proofs))
        )
        return _encode_proofs(head, self.proofs)

    @classmethod
    def decode(cls, data: bytes) -> "NICBSSubmissionMsg":
        task_id, pos = _read_task_id(data, 0)
        root, pos = read_bytes(data, pos)
        n_leaves, pos = read_uint(data, pos)
        count, pos = read_uint(data, pos)
        proofs, pos = _read_proofs(data, pos, count)
        if pos != len(data):
            raise CodecError("trailing bytes in NICBSSubmissionMsg")
        return cls(task_id=task_id, root=root, n_leaves=n_leaves, proofs=proofs)

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class FullResultsMsg:
    """All ``n`` results on the wire — the naive baselines' payload."""

    task_id: str
    results: tuple[bytes, ...]

    def encode(self) -> bytes:
        return _encode_task_id(self.task_id) + encode_bytes_list(self.results)

    @classmethod
    def decode(cls, data: bytes) -> "FullResultsMsg":
        task_id, pos = _read_task_id(data, 0)
        results, pos = read_bytes_list(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in FullResultsMsg")
        return cls(task_id=task_id, results=tuple(results))

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class ReportsMsg:
    """Screener hits (the results of interest) — normal grid payload."""

    task_id: str
    reports: tuple[str, ...] = field(default_factory=tuple)

    def encode(self) -> bytes:
        return _encode_task_id(self.task_id) + encode_bytes_list(
            [r.encode("utf-8") for r in self.reports]
        )

    @classmethod
    def decode(cls, data: bytes) -> "ReportsMsg":
        task_id, pos = _read_task_id(data, 0)
        raw, pos = read_bytes_list(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in ReportsMsg")
        return cls(
            task_id=task_id,
            reports=tuple(_decode_text(r, "report") for r in raw),
        )

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class AssignMsg:
    """Task assignment descriptor sent supervisor → participant.

    Carries enough to identify the work (task id, domain bounds and a
    workload label); the function itself is code both sides share, as
    in real grids where the client software embeds the kernel.
    """

    task_id: str
    n_inputs: int
    workload: str = ""

    def encode(self) -> bytes:
        return (
            _encode_task_id(self.task_id)
            + encode_uint(self.n_inputs)
            + encode_bytes(self.workload.encode("utf-8"))
        )

    @classmethod
    def decode(cls, data: bytes) -> "AssignMsg":
        task_id, pos = _read_task_id(data, 0)
        n_inputs, pos = read_uint(data, pos)
        workload, pos = read_bytes(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in AssignMsg")
        return cls(
            task_id=task_id,
            n_inputs=n_inputs,
            workload=_decode_text(workload, "workload"),
        )

    def wire_size(self) -> int:
        return len(self.encode())


@dataclass(frozen=True)
class VerdictMsg:
    """Step 4 outcome: accepted, or caught with a reason."""

    task_id: str
    accepted: bool
    reason: str = ""

    def encode(self) -> bytes:
        return (
            _encode_task_id(self.task_id)
            + encode_uint(1 if self.accepted else 0)
            + encode_bytes(self.reason.encode("utf-8"))
        )

    @classmethod
    def decode(cls, data: bytes) -> "VerdictMsg":
        task_id, pos = _read_task_id(data, 0)
        flag, pos = read_uint(data, pos)
        reason, pos = read_bytes(data, pos)
        if pos != len(data):
            raise CodecError("trailing bytes in VerdictMsg")
        return cls(
            task_id=task_id,
            accepted=bool(flag),
            reason=_decode_text(reason, "reason"),
        )

    def wire_size(self) -> int:
        return len(self.encode())
